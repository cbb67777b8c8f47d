package sortalg

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"colsort/internal/record"
)

// fallsInput builds n 64-byte records whose keys come in ascending order but
// for about falls keys below their predecessor. The ordered keys are dense —
// i·1024 plus a draw below 1024, as record.NearlySorted's — or wide: sorted
// uniform draws. The falls come from swaps (falls disjoint neighbour pairs
// swapped, one fall each) or outliers (falls keys replaced by draws over the
// keys' range, about one fall each).
func fallsInput(n, falls int, wide, outliers bool, seed int64) record.Slice {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	draw := func() uint64 { return uint64(rng.Int63n(int64(n) << 10)) }
	if wide {
		draw = rng.Uint64
	}
	for i := range keys {
		keys[i] = uint64(i)<<10 | uint64(rng.Intn(1<<10))
		if wide {
			keys[i] = draw()
		}
	}
	slices.Sort(keys)
	for _, p := range rng.Perm(n / 2)[:falls] {
		if outliers {
			keys[2*p] = draw()
		} else {
			keys[2*p], keys[2*p+1] = keys[2*p+1], keys[2*p]
		}
	}
	s := record.Make(n, 64)
	for i, k := range keys {
		s.SetKey(i, k)
	}
	return s
}

// BenchmarkRadixLevels times radixKV's two first levels against each other on
// the same pairs — one MSD digit (ordered) and two LSD digits — alternating
// them within every iteration, on keys with a known share of falls (keys
// below their predecessor): the measurement nearlyOrdered's cutoff rests on.
// It reports each level's nanoseconds per sort and the falls per key that
// sortSlices counts.
func BenchmarkRadixLevels(b *testing.B) {
	for _, form := range []string{"dense-swaps", "dense-outliers", "wide-swaps", "wide-outliers"} {
		for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
			for _, share := range []int{0, 256, 64, 32, 16, 8, 4, 2} { // falls = n/share
				falls := 0
				if share > 0 {
					falls = n / share
				}
				wide, outliers := strings.HasPrefix(form, "wide"), strings.HasSuffix(form, "outliers")
				src := fallsInput(n, min(falls, n/2), wide, outliers, int64(n+share))
				b.Run(fmt.Sprintf("%s/n=%d/falls=1:%d", form, n, share), func(b *testing.B) {
					pairs, tmp, count := make([]kv, n), make([]kv, n), make([]int, 2<<radixMaxBits)
					diff, _, falls := extract(pairs, src)
					work := make([]kv, n)
					var took [2]time.Duration
					for i := 0; i < b.N; i++ {
						for j := range 2 {
							one := (i+j)%2 == 0
							copy(work, pairs)
							start := time.Now()
							radixKV(work, tmp, diff, one, src, count)
							if one {
								took[0] += time.Since(start)
							} else {
								took[1] += time.Since(start)
							}
						}
					}
					b.ReportMetric(float64(took[0].Nanoseconds())/float64(b.N), "one-ns/sort")
					b.ReportMetric(float64(took[1].Nanoseconds())/float64(b.N), "two-ns/sort")
					b.ReportMetric(float64(falls)/float64(n), "falls/key")
				})
			}
		}
	}
}
