package server

// Tests of the strict wire→option mapping: every accepted combination
// compiles, every malformed or conflicting one is refused with an error
// naming the offending key — a typo must never silently select a default.

import (
	"net/url"
	"strings"
	"testing"
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
		{"machine overrides", "async=true&nowait=true"},
		{"retry policy", "retries=4&retry-base-us=50&redo-budget=2&scrub=true"},
		{"redo disabled", "redo-budget=-1"},
		{"chaos off", "chaos=off"},
		{"chaos on", "chaos-seed=7&chaos-p-transient=0.01&chaos-p-bitflip=0.001&chaos-p-torn=0"},
		{"caller-handled extra", "records=100"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := parseSortOptions(q, "records"); err != nil {
				t.Errorf("%q rejected: %v", tc.query, err)
			}
		})
	}
}

func TestParseSortOptionsRejects(t *testing.T) {
	cases := []struct {
		name    string
		query   string
		wantMsg string
	}{
		{"unknown key", "allg=threaded", `unknown option "allg"`},
		{"baseline algorithms are not wired", "alg=baseline-io", "unknown algorithm"},
		{"empty value", "order=", "empty value"},
		{"bad order", "order=sideways", `want "asc" or "desc"`},
		{"bad padding", "padding=sometimes", `want "auto" or "never"`},
		{"bad fabric", "fabric=zero-copy", `unknown option "fabric" (known: alg, `},
		{"bad bool", "async=maybe", "not a boolean"},
		{"bad int", "key-offset=three", "not an integer"},
		{"negative key offset", "key-offset=-1", "must be ≥ 0"},
		{"zero key width", "key-width=0", "must be ≥ 1"},
		{"hybrid without group", "alg=hybrid", "requires a group size"},
		{"group without hybrid", "group=2", `only applies to alg=hybrid`},
		{"group with non-hybrid", "alg=threaded&group=2", `only applies to alg=hybrid`},
		{"max-memory with hybrid", "alg=hybrid&group=2&max-memory-mib=64", "conflicts with alg=hybrid"},
		{"max-memory with padding=never", "padding=never&max-memory-mib=64", "conflicts with padding=never"},
		{"zero max-memory", "max-memory-mib=0", "must be ≥ 1"},
		{"fan-in of one", "merge-fanin=1", "must be ≥ 2"},
		{"bad run formation", "run-formation=fixed-batch", `unknown option "run-formation" (known: alg, `},
		{"zero retries", "retries=0", "must be ≥ 1"},
		{"chaos not off", "chaos=on", `the only value is "off"`},
		{"chaos off with params", "chaos=off&chaos-seed=1", "conflicts with the chaos-"},
		{"probability above one", "chaos-p-bitflip=1.5", "probability must be in [0, 1]"},
		{"probability not a number", "chaos-p-torn=often", "not a number"},
		{"two bad probabilities name the first", "chaos-p-torn=2&chaos-p-transient=3", `option "chaos-p-transient"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			_, err = parseSortOptions(q)
			if err == nil {
				t.Fatalf("%q accepted, want an error mentioning %q", tc.query, tc.wantMsg)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}

	// A repeated key is ambiguous, never last-wins.
	if _, err := parseSortOptions(url.Values{"alg": {"threaded", "subblock"}}); err == nil ||
		!strings.Contains(err.Error(), "each option may appear once") {
		t.Errorf("repeated key: got %v", err)
	}
}

func TestValuesFromMapSharesValidator(t *testing.T) {
	// The job API's options object runs through the same validator.
	if _, err := parseSortOptions(valuesFromMap(map[string]string{"order": "desc", "key-width": "8"})); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
	_, err := parseSortOptions(valuesFromMap(map[string]string{"colour": "red"}))
	if err == nil || !strings.Contains(err.Error(), `unknown option "colour"`) {
		t.Errorf("unknown map key: got %v", err)
	}
}
