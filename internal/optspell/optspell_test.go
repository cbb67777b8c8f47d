package optspell

import (
	"testing"
	"time"
)

// TestScaledKeysPutProducts: a count in µs reaches the option it spells as
// its nanoseconds, at its limit too. (The wire's TestParseSortOptions*
// hold every key's spelling; the MiB and ms keys' products show in the
// library sentences of their rows there.)
func TestScaledKeysPutProducts(t *testing.T) {
	for _, tc := range []struct {
		key, value string
		got        func(*accumulator) int64
		want       int64
	}{
		{"retry-base-us", "200", func(a *accumulator) int64 { return int64(a.retry.BaseDelay) }, int64(200 * time.Microsecond)},
		{"retry-base-us", "-9223372036854775", func(a *accumulator) int64 { return int64(a.retry.BaseDelay) }, -9223372036854775 * int64(time.Microsecond)},
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
