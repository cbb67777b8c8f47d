package server

// Tests of the wire→option spelling (internal/optspell's table, which
// cmd/colsort's sort flags share): every well-spelled combination yields
// options, every misspelled one is refused with an error naming the
// offending key — a typo must never silently select a default. What a value
// may be is not this file's: the rule book is the library's (colsort's
// TestRuleBook holds it, against both endpoints).

import (
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colsort"
	"colsort/internal/optspell"
)

func TestParseSortOptionsAccepts(t *testing.T) {
	cases := []struct {
		name  string
		query string
	}{
		{"empty", ""},
		{"algorithm", "alg=subblock"},
		{"hybrid with group", "alg=hybrid&group=2"},
		{"full key spec", "key-offset=16&key-width=8&order=desc"},
		{"order only", "order=asc"},
		{"padding", "padding=never"},
		{"hierarchical knobs", "max-memory-mib=64&merge-fanin=8"},
		{"machine overrides", "nowait=true"},
		{"retry policy", "retries=4&retry-base-us=50&redo-budget=2&scrub=true"},
		{"redo disabled", "redo-budget=-1"},
		// Sort refuses a baseline that would emit output; the spelling is fine.
		{"baseline algorithms are spelled", "alg=baseline-io-3pass"},
		{"caller-handled extra", "records=100"},
		// Spelled fine: whether the job may run is resolve's to say.
		{"cap with hybrid", "alg=hybrid&group=2&max-memory-mib=64"},
		{"cap with padding=never", "padding=never&max-memory-mib=64"},
		{"a zero is the default", "max-memory-mib=0&merge-fanin=0&retries=0&retry-base-us=0&key-width=0&deadline-ms=0"},
		{"scaled counts", "max-memory-mib=64&retry-base-us=200"},
		{"scaled counts at their limits", "max-memory-mib=8796093022207&deadline-ms=9223372036854&retry-base-us=9223372036854775"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := optspell.Parse(q, "records"); err != nil {
				t.Errorf("%q rejected: %v", tc.query, err)
			}
		})
	}
}

// TestParseSortOptionsRejects: a misspelled request is refused by the parse
// loop; a well-spelled one whose VALUE the library refuses passes the loop
// untouched (the wire restates no rule) and is refused by the resolver both
// endpoints ask, naming the Go option.
func TestParseSortOptionsRejects(t *testing.T) {
	eng, err := colsort.New(testBase(filepath.Join(t.TempDir(), "scratch")))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cases := []struct {
		name    string
		query   string
		library bool // parse accepts; Engine.PlanSort refuses
		wantMsg string
	}{
		{"unknown key", "allg=threaded", false, `unknown option "allg"`},
		{"bad algorithm", "alg=baseline-io", false, `option "alg": want baseline-io-3pass | baseline-io-4pass | combined | hybrid | m-columnsort | subblock | threaded | threaded-4pass, got "baseline-io"`},
		{"empty value", "order=", false, "empty value"},
		{"bad order", "order=sideways", false, `want asc | desc`},
		{"bad padding", "padding=sometimes", false, `want auto | never`},
		{"bad fabric", "fabric=zero-copy", false, `unknown option "fabric" (known: alg, `},
		{"async is gone", "async=true", false, `unknown option "async" (known: alg, `},
		{"bad bool", "nowait=maybe", false, "want a boolean"},
		{"bad int", "key-offset=three", false, "want an integer"},
		{"hybrid without group", "alg=hybrid", false, "requires a group size"},
		{"group without hybrid", "group=2", false, `only applies to alg=hybrid`},
		{"group with non-hybrid", "alg=threaded&group=2", false, `only applies to alg=hybrid`},
		{"bad run formation", "run-formation=fixed-batch", false, `unknown option "run-formation" (known: alg, `},
		// chaos=off shielded a job from engine-wide chaos, which is gone, as
		// are the chaos-* keys: fault injection is for tests only.
		{"chaos off is gone", "chaos=off", false, `unknown option "chaos" (known: alg, `},
		{"chaos not off", "chaos=on", false, `unknown option "chaos" (known: alg, `},
		{"chaos off with params", "chaos=off&chaos-seed=1", false, `unknown option "chaos" (known: alg, `},
		{"two bad types name the first", "scrub=2&nowait=3", false, `option "nowait"`},
		// A count whose scaled form overflows int64 is ill-typed, not wrapped
		// into another value (2^44 MiB would be 0: no cap).
		{"max-memory-mib overflows", "max-memory-mib=17592186044416", false, `option "max-memory-mib": want an integer in [-8796093022207, 8796093022207], got "17592186044416"`},
		{"deadline-ms overflows", "deadline-ms=18446744073709", false, `option "deadline-ms": want an integer in [-9223372036854, 9223372036854]`},
		{"retry-base-us overflows", "retry-base-us=-9223372036854776", false, `option "retry-base-us": want an integer in [-9223372036854775, 9223372036854775]`},
		{"retry-base-us overflows upward", "retry-base-us=92233720368547758", false, `option "retry-base-us": want an integer in [-9223372036854775, 9223372036854775]`},
		// A scaled count reaches the library as its product.
		{"negative deadline at its limit", "deadline-ms=-9223372036854", true, "colsort: WithDeadline(-2562047h47m16.854s)"},
		{"negative cap", "max-memory-mib=-1", true, "colsort: WithMaxMemory(-1048576)"},
		{"negative backoff", "retry-base-us=-200", true, "colsort: WithRetry: BaseDelay -200µs"},

		{"negative key offset", "key-offset=-1", true, "colsort: record: key field [-1:7) outside"},
		{"fan-in of one", "merge-fanin=1", true, "colsort: WithMergeFanIn(1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := optspell.Parse(q)
			if tc.library {
				if err != nil {
					t.Fatalf("%q refused by the parse loop (%v): the wire must not restate a rule of resolve", tc.query, err)
				}
				_, err = eng.PlanSort(1024, opts...)
			}
			if err == nil {
				t.Fatalf("%q accepted, want an error mentioning %q", tc.query, tc.wantMsg)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}

	// A repeated key is ambiguous, never last-wins.
	if _, err := optspell.Parse(url.Values{"alg": {"threaded", "subblock"}}); err == nil ||
		!strings.Contains(err.Error(), "each option may appear once") {
		t.Errorf("repeated key: got %v", err)
	}
}

func TestValuesFromMapSharesValidator(t *testing.T) {
	// The job API's options object runs through the same validator.
	if _, err := optspell.Parse(valuesFromMap(map[string]string{"order": "desc", "key-width": "8"})); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
	_, err := optspell.Parse(valuesFromMap(map[string]string{"colour": "red"}))
	if err == nil || !strings.Contains(err.Error(), `unknown option "colour"`) {
		t.Errorf("unknown map key: got %v", err)
	}
}

// TestWireKeysDocumented: every key of the option table has its row in
// DESIGN.md §11's option mapping — a key added, renamed or removed in
// optspell.Keys must move there too.
func TestWireKeysDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(design), "\n## 11. ")
	if !ok {
		t.Fatal("DESIGN.md has no §11")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	for _, k := range optspell.Keys {
		if !strings.Contains(sec, "| `"+k.Name+"` |") {
			t.Errorf("wire key %q has no row in DESIGN.md §11's option table", k.Name)
		}
	}
	if strings.Contains(sec, "`async`") {
		t.Error("DESIGN.md §11 still documents the removed wire key `async`")
	}
	if strings.Contains(sec, "| `chaos` |") || strings.Contains(sec, "| `chaos-") {
		t.Error("DESIGN.md §11 still documents a removed wire key `chaos` or `chaos-*`")
	}
}
