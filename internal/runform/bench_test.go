package runform

import (
	"fmt"
	"testing"

	"colsort/internal/record"
)

// BenchmarkFormer times the Former alone, fed from memory and drained into
// memory: capacity 2¹⁷ slots over 2²⁰ records (8 capacities — the shape of
// the bench/ hier-* workloads), at both record sizes, on the three inputs
// that use the tournament differently: uniform (every replay path random),
// nearly-sorted (one run, winners nearly sequential) and heavy-dup (every
// match a prefix tie).
func BenchmarkFormer(b *testing.B) {
	const capacity, n, chunk = 1 << 17, 1 << 20, 1 << 13
	for _, z := range []int{16, 64} {
		for _, in := range oracleInputs {
			switch in.name {
			case "uniform", "nearly-sorted", "dup":
			default:
				continue
			}
			b.Run(fmt.Sprintf("z=%d/%s", z, in.name), func(b *testing.B) {
				src := makeInput(in.gen, n, z)
				buf := record.Make(chunk, z)
				b.SetBytes(int64(n) * int64(z))
				b.ResetTimer()
				runs := 0
				for i := 0; i < b.N; i++ {
					f := New(capacity, z, nil, sliceReader(src, new(int)))
					for runs = 0; ; runs++ {
						if _, ok, err := f.NextRun(); err != nil || !ok {
							break
						}
						for {
							if got, _ := f.Fill(buf); got == 0 {
								break
							}
						}
					}
					f.Close()
				}
				b.ReportMetric(float64(runs), "runs")
			})
		}
	}
}
