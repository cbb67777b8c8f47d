package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestFlagsDocumented: every flag this command registers — its own and one
// per key of the sort-option table — has a row in README's CLI flag table;
// a flag added, renamed or removed must move there too.
func TestFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, cli, ok := strings.Cut(string(readme), "\n## CLI\n")
	if !ok {
		t.Fatal("README.md has no \"## CLI\" section")
	}
	cli, _, _ = strings.Cut(cli, "\n## ")
	count := 0
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") { // the test binary's own
			return
		}
		count++
		if !strings.Contains(cli, "`-"+f.Name+"`") {
			t.Errorf("flag -%s is not in README's CLI flag table", f.Name)
		}
	})
	if count < 27 {
		t.Fatalf("found only %d registered flags, want at least 27 (16 of the command's own, 11 sort keys)", count)
	}
}
