package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestFlagsDocumented: every flag of this command has a row in README's CLI
// flag table — a flag added, renamed or removed here must move there too.
func TestFlagsDocumented(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, cli, ok := strings.Cut(string(readme), "\n## CLI\n")
	if !ok {
		t.Fatal("README.md has no \"## CLI\" section")
	}
	cli, _, _ = strings.Cut(cli, "\n## ")
	flags := regexp.MustCompile(`flag\.[A-Z]\w*\("([a-z0-9-]+)"`).FindAllStringSubmatch(string(src), -1)
	if len(flags) < 30 {
		t.Fatalf("found only %d flag definitions in main.go: the pattern no longer matches how they are declared", len(flags))
	}
	for _, f := range flags {
		if !strings.Contains(cli, "`-"+f[1]+"`") {
			t.Errorf("flag -%s is not in README's CLI flag table", f[1])
		}
	}
}
