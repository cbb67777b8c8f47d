package main

import (
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestScaledFlags: a flag counted in MiB, KiB or µs reaches the library as
// its product, and a count whose product overflows int64 is refused before
// any option is built — never wrapped into another value.
func TestScaledFlags(t *testing.T) {
	cases := []struct {
		flag        string
		count, unit int64
		want        int64
		wantErr     string
	}{
		{"max-memory-mib", 64, 1 << 20, 64 << 20, ""},
		{"max-memory-mib", -1, 1 << 20, -1 << 20, ""}, // the library's to refuse
		{"max-memory-mib", 1<<43 - 1, 1 << 20, (1<<43 - 1) << 20, ""},
		{"max-memory-mib", 1 << 44, 1 << 20, 0, "invalid value 17592186044416 for flag -max-memory-mib: want an integer in [-8796093022207, 8796093022207]"},
		{"retry-base-us", 200, int64(time.Microsecond), int64(200 * time.Microsecond), ""},
		{"retry-base-us", math.MaxInt64 / 100, int64(time.Microsecond), 0, "flag -retry-base-us: want an integer in [-9223372036854775, 9223372036854775]"},
		{"chaos-dead-after-kib", 4, 1 << 10, 4 << 10, ""},
		{"chaos-dead-after-kib", math.MinInt64 / 512, 1 << 10, 0, "flag -chaos-dead-after-kib: want an integer in [-9007199254740991, 9007199254740991]"},
	}
	for _, c := range cases {
		got, err := scaled(c.flag, c.count, c.unit)
		switch {
		case c.wantErr == "" && (err != nil || got != c.want):
			t.Errorf("-%s %d: got %d, %v; want %d", c.flag, c.count, got, err, c.want)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("-%s %d: got %d, %v; want an error mentioning %q", c.flag, c.count, got, err, c.wantErr)
		}
	}
}

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
