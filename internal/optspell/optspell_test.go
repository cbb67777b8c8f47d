package optspell

import (
	"testing"
	"time"
)

// TestScaledKeysPutProducts: a count in KiB or µs reaches the option it
// spells as its bytes or nanoseconds. (The wire's TestParseSortOptions*
// hold every key's spelling; the MiB and ms keys' products show in the
// library sentences of their rows there.)
func TestScaledKeysPutProducts(t *testing.T) {
	for _, tc := range []struct {
		key, value string
		got        func(*accumulator) int64
		want       int64
	}{
		{"retry-base-us", "200", func(a *accumulator) int64 { return int64(a.retry.BaseDelay) }, int64(200 * time.Microsecond)},
		{"chaos-dead-after-kib", "4", func(a *accumulator) int64 { return a.chaos.DeadSpillAfter }, 4 << 10},
		{"chaos-dead-after-kib", "-9007199254740991", func(a *accumulator) int64 { return a.chaos.DeadSpillAfter }, -9007199254740991 << 10},
	} {
		var a accumulator
		for _, k := range Keys {
			if k.Name == tc.key && !k.set(&a, tc.value) {
				t.Fatalf("%s=%s refused", tc.key, tc.value)
			}
		}
		if got := tc.got(&a); got != tc.want {
			t.Errorf("%s=%s put %d, want %d", tc.key, tc.value, got, tc.want)
		}
	}
}
