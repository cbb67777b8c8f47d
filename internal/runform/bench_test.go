package runform

import (
	"fmt"
	"testing"

	"colsort/internal/record"
	"colsort/internal/sortalg"
)

// BenchmarkFormer times the Former alone, fed from memory and drained into
// memory: capacity 2¹⁷ records over 2²⁰ (8 capacities — the shape of the
// bench/ hier-* workloads), at both record sizes, on the inputs that use it
// differently: uniform (a merge of ~20 mini-runs, chunks split in the
// middle), nearly-sorted (one ascending run of chunks already in order),
// k-disordered (one ascending run of chunks that still need sorting, each
// mini-run winning long streaks), reverse (one descending run,
// every mini-run read backwards) and heavy-dup (every match a prefix tie).
// Each shape is fed both ways: feed=records through New's per-record adapter
// (what bench/replay.go times), feed=chunks through NewChunked with every
// chunk made by SortChunk inside the timed loop, as the pipeline's ingest
// stage makes them. It reports the runs formed and their mean length over
// the capacity, so
//
//	go test -run '^$' -bench 'BenchmarkFormer/z=64/uniform' ./internal/runform
//
// is the former alone at hier-uniform's shape, comparable with the bench's
// runform.form_mb_s, runform.runs and runform.run_len_over_cap.
func BenchmarkFormer(b *testing.B) {
	const capacity, n, chunk = 1 << 17, 1 << 20, 1 << 13
	for _, z := range []int{16, 64} {
		for _, in := range oracleInputs {
			switch in.name {
			case "uniform", "nearly-sorted", "k-disordered", "reverse", "dup":
			default:
				continue
			}
			src := makeInput(in.gen, n, z)
			for _, feed := range feeds {
				b.Run(fmt.Sprintf("z=%d/%s/feed=%s", z, in.name, feed.name), func(b *testing.B) {
					pool := record.NewPool()
					buf := record.Make(chunk, z)
					b.SetBytes(int64(n) * int64(z))
					b.ResetTimer()
					runs := 0
					for i := 0; i < b.N; i++ {
						f := feed.new(capacity, src, pool, new(int))
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
					b.ReportMetric(float64(n)/float64(runs)/capacity, "run_len_over_cap")
				})
			}
		}
	}
}

// BenchmarkSortChunk times the ingest stage's work on one chunk — the key-step
// tally and the radix sort — at the hier-* workloads' chunk length
// (ChunkLen(2¹⁷) = 16384 records), on random keys, on nearly-sorted ones
// (in order as they arrive: the chunk is the arrivals themselves) and on
// k-disordered ones (bounded local disorder: the radix still runs).
func BenchmarkSortChunk(b *testing.B) {
	n := ChunkLen(1 << 17)
	for _, z := range []int{16, 64} {
		for _, in := range oracleInputs {
			switch in.name {
			case "uniform", "nearly-sorted", "k-disordered":
			default:
				continue
			}
			src, dst := makeInput(in.gen, n, z), record.Make(n, z)
			b.Run(fmt.Sprintf("z=%d/%s", z, in.name), func(b *testing.B) {
				var sc sortalg.Scratch
				b.SetBytes(int64(n) * int64(z))
				for i := 0; i < b.N; i++ {
					SortChunk(&sc, dst, src)
				}
			})
		}
	}
}
