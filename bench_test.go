package colsort

// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index). Each benchmark runs the REAL
// algorithms on the simulated cluster at laptop scale and reports, besides
// wall-clock time, the calibrated Beowulf-2003 estimate ("est-s") whose
// paper-scale counterpart appears in EXPERIMENTS.md. Shapes — who wins, by
// what factor — are the reproduction targets, not absolute times. Below them
// sit the kernel micro-benchmarks. End-to-end throughput — file-backed,
// hierarchical, concurrent — is measured at size by bench/ (bench/README.md),
// not here.

import (
	"context"
	"fmt"
	"testing"

	"colsort/internal/bounds"
	"colsort/internal/cluster"
	"colsort/internal/figure2"
	"colsort/internal/incore"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// benchSort runs one full out-of-core sort per iteration and reports the
// modeled Beowulf seconds alongside the measured wall time.
func benchSort(b *testing.B, alg Algorithm, n int64, p, mem, z int) {
	b.Helper()
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Plan(alg, n); err != nil {
		b.Skipf("ineligible: %v", err)
	}
	var est float64
	b.SetBytes(n * int64(z))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: uint64(i)}, n), nil,
			WithAlgorithm(alg), WithPadding(PadNever))
		if err != nil {
			b.Fatal(err)
		}
		est = res.EstimateBeowulf().Total
		res.Close()
	}
	b.ReportMetric(est, "est-s")
}

// BenchmarkFigure2 is experiment E1: the three algorithms plus baselines
// at two buffer sizes. The per-processor data volume is fixed, mirroring
// the paper's GB-per-processor normalization.
func BenchmarkFigure2(b *testing.B) {
	const z = 64
	for _, alg := range []Algorithm{Threaded, Subblock, MColumn, BaselineIO3, BaselineIO4} {
		for _, mem := range []int{1 << 12, 1 << 13} { // the 2^24/2^25-byte knob, scaled
			// s = 16 columns for the column-owned algorithms (s = 4 for
			// M-columnsort, whose column height is mem·P).
			n := int64(mem) * 16
			b.Run(fmt.Sprintf("%v/buf=%d", alg, mem*z), func(b *testing.B) {
				benchSort(b, alg, n, 4, mem, z)
			})
		}
	}
}

// BenchmarkE5SubblockComm measures the subblock pass across the P/√s
// regimes of Section 3's properties 1–2.
func BenchmarkE5SubblockComm(b *testing.B) {
	for _, cfg := range []struct{ p, s int }{{2, 16}, {4, 16}, {8, 16}, {16, 16}} {
		r := 4096
		n := int64(r) * int64(cfg.s)
		b.Run(fmt.Sprintf("P=%d/s=%d", cfg.p, cfg.s), func(b *testing.B) {
			benchSort(b, Subblock, n, cfg.p, r, 16)
		})
	}
}

// BenchmarkE6InCore compares the three distributed in-core sorts at a
// sort-stage-representative size (experiment E6). Each rank keeps a buffer
// pool and sort scratch across iterations, as the M-columnsort pipeline
// does, so the numbers reflect the steady-state hot path.
func BenchmarkE6InCore(b *testing.B) {
	const p, n, z = 8, 1 << 14, 64
	mkSorters := func(pools []*record.Pool, scratches []sortalg.Scratch) map[string]func(rank int) incore.Sorter {
		return map[string]func(rank int) incore.Sorter{
			incore.Columnsort{}.Name(): func(rank int) incore.Sorter {
				return incore.Columnsort{Pool: pools[rank], Scratch: &scratches[rank]}
			},
			incore.Radix{}.Name(): func(rank int) incore.Sorter {
				return incore.Radix{Pool: pools[rank]}
			},
			incore.Bitonic{}.Name(): func(rank int) incore.Sorter {
				return incore.Bitonic{Pool: pools[rank], Scratch: &scratches[rank]}
			},
		}
	}
	for _, name := range []string{incore.Columnsort{}.Name(), incore.Radix{}.Name(), incore.Bitonic{}.Name()} {
		b.Run(name, func(b *testing.B) {
			pools := make([]*record.Pool, p)
			for i := range pools {
				pools[i] = record.NewPool()
			}
			scratches := make([]sortalg.Scratch, p)
			mk := mkSorters(pools, scratches)[name]
			b.SetBytes(int64(p) * int64(n) * int64(z))
			b.ResetTimer()
			var netBytes int64
			for i := 0; i < b.N; i++ {
				cnts := make([]sim.Counters, p)
				err := cluster.Run(p, func(pr *cluster.Proc) error {
					rank := pr.Rank()
					local := pools[rank].Get(n, z)
					record.Fill(local, record.Uniform{Seed: uint64(i)}, int64(rank)*int64(n))
					out, err := mk(rank).Sort(pr, &cnts[rank], 0, local)
					pools[rank].Put(out)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				netBytes = 0
				for _, c := range cnts {
					if c.NetBytes > netBytes {
						netBytes = c.NetBytes
					}
				}
			}
			b.ReportMetric(float64(netBytes), "net-B/proc")
		})
	}
}

// BenchmarkE7BufferSweep is the buffer-size effect: same problem, varying
// column buffer (experiment E7).
func BenchmarkE7BufferSweep(b *testing.B) {
	const n = 1 << 16
	for _, mem := range []int{1 << 11, 1 << 12, 1 << 13, 1 << 14} {
		b.Run(fmt.Sprintf("mem=%d", mem), func(b *testing.B) {
			benchSort(b, Threaded, n, 4, mem, 16)
		})
	}
}

// BenchmarkE10PassAblation compares the 3-pass threaded program against
// the original 4-pass structure (experiment E10).
func BenchmarkE10PassAblation(b *testing.B) {
	const n, p, mem = 1 << 16, 4, 1 << 12
	b.Run("threaded-3pass", func(b *testing.B) { benchSort(b, Threaded, n, p, mem, 16) })
	b.Run("threaded-4pass", func(b *testing.B) { benchSort(b, Threaded4, n, p, mem, 16) })
}

// BenchmarkE11Combined exercises the Section-6 future-work algorithm
// (experiment E11) next to plain M-columnsort.
func BenchmarkE11Combined(b *testing.B) {
	const p, mem = 4, 1 << 10
	r := int64(p * mem)
	b.Run("m-columnsort", func(b *testing.B) { benchSort(b, MColumn, r*16, p, mem, 16) })
	b.Run("combined", func(b *testing.B) { benchSort(b, Combined, r*16, p, mem, 16) })
}

// BenchmarkE11HybridGroupSweep runs hybrid group columnsort across group
// sizes on the same problem, exposing the Section-6 bound/communication
// trade-off at runtime. `colsort-paper bounds -hybrid` prints the same
// trade-off at paper scale from figure2's counter predictor, which
// TestPredictorMatchesMeasured holds to measured runs at g = 1, between and P.
func BenchmarkE11HybridGroupSweep(b *testing.B) {
	const n, p, mem, z = 4096, 8, 512, 16
	for _, g := range []int{2, 4} {
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
			if err != nil {
				b.Fatal(err)
			}
			var netBytes int64
			b.SetBytes(n * z)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: uint64(i)}, n), nil,
					WithHybridGroup(g))
				if err != nil {
					b.Fatal(err)
				}
				netBytes = res.TotalCounters().NetBytes
				res.Close()
			}
			b.ReportMetric(float64(netBytes), "net-B")
		})
	}
}

// BenchmarkE1PredictAtPaperScale times the full Figure-2 regeneration
// (closed-form counts + cost model at 4–32 GiB), which is how the numbers
// in EXPERIMENTS.md are produced.
func BenchmarkE1PredictAtPaperScale(b *testing.B) {
	cm := sim.Beowulf2003()
	for i := 0; i < b.N; i++ {
		pts := figure2.Grid()
		for k := range pts {
			if pts[k].Eligible {
				if err := figure2.Evaluate(&pts[k], cm); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkE3E4E9Bounds times the analytic bound computations behind the
// bounds tables and crossover analysis.
func BenchmarkE3E4E9Bounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bounds.Table([]int64{1 << 12, 1 << 16, 1 << 19, 1 << 22}, []int64{4, 8, 16})
		_ = bounds.CrossoverFormula(1<<35, 8)
		_ = bounds.MaxBytes(bounds.MColumnsort, 1<<23, 16, 64)
	}
}

// --- substrate micro-benchmarks -------------------------------------------

// BenchmarkLocalSort is the matrix the radix kernel is held to: every
// generator × column length × record size, introsort beside it in each cell
// (CI's nightly leg fails when the kernel's median falls below introsort's).
func BenchmarkLocalSort(b *testing.B) {
	for _, name := range record.Names() {
		g, _ := record.ByName(name, 1)
		for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
			for _, z := range []int{16, 64} {
				src := record.Make(n, z)
				dst := record.Make(n, z)
				record.Fill(src, g, 0)
				for _, alg := range []sortalg.Algorithm{sortalg.Intro, sortalg.Radix} {
					b.Run(fmt.Sprintf("%s/n=%d/z=%d/%v", name, n, z, alg), func(b *testing.B) {
						var sc sortalg.Scratch // the pipeline's steady-state path
						b.SetBytes(int64(n) * int64(z))
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							sc.SortIntoAlg(dst, src, alg)
						}
					})
				}
			}
		}
	}
}

// BenchmarkMergeRuns is the k-way merge kernel on the shapes the passes run:
// a column of n records of z bytes made of k sorted runs (step 1 of every
// pass after the first at g = 1 merges s runs; the in-core sort's steps 3 and
// 5 merge P).
func BenchmarkMergeRuns(b *testing.B) {
	for _, k := range []int{2, 4, 32, 64} {
		for _, n := range []int{1 << 12, 1 << 14} {
			for _, z := range []int{16, 64} {
				b.Run(fmt.Sprintf("k=%d/n=%d/z=%d", k, n, z), func(b *testing.B) {
					src := record.Make(n, z)
					record.Fill(src, record.Uniform{Seed: 1}, 0)
					for i := 0; i < k; i++ {
						sortalg.Sort(src.Sub(i*n/k, (i+1)*n/k))
					}
					dst := record.Make(n, z)
					runs := sortalg.ContiguousRuns(n, k)
					var sc sortalg.Scratch
					b.SetBytes(int64(n) * int64(z))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sc.MergeRunsInto(dst, src, runs)
					}
				})
			}
		}
	}
}

func BenchmarkAllToAll(b *testing.B) {
	const p, n, z = 8, 1 << 10, 64
	for i := 0; i < b.N; i++ {
		err := cluster.Run(p, func(pr *cluster.Proc) error {
			var cnt sim.Counters
			out := make([]record.Slice, p)
			for d := range out {
				out[d] = record.Make(n, z)
			}
			_, err := pr.AllToAll(&cnt, 0, out)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchmarkConfigsEligible guards the benchmark grid: every non-skipped
// configuration above must plan successfully so `go test -bench` exercises
// what it claims to.
func TestBenchmarkConfigsEligible(t *testing.T) {
	check := func(alg Algorithm, n int64, p, mem, z int) {
		t.Helper()
		s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Plan(alg, n); err != nil {
			t.Errorf("%v n=%d p=%d mem=%d: %v", alg, n, p, mem, err)
		}
	}
	for _, mem := range []int{1 << 12, 1 << 13} {
		check(Threaded, int64(mem)*16, 4, mem, 64)
		check(Subblock, int64(mem)*16, 4, mem, 64)
		check(MColumn, int64(mem)*16, 4, mem, 64)
	}
	check(Combined, int64(4*(1<<10))*16, 4, 1<<10, 16)
}
