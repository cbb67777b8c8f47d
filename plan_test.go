package colsort

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"colsort/internal/record"
)

// hybridResolves is how the rows a hybrid group used to refuse resolve now
// (true: hierarchical).
var hybridResolves = map[string]bool{"padded": false, "above-bound": true, "above-r²": true, "capped-over": true, "capped-over-plannable": true}

// planClasses are the error classes PlanSort and Sort must agree on.
var planClasses = []error{ErrTooLarge, ErrHeightRestriction, ErrSinkRequired, ErrMemoryTooSmall}

// TestPlanSortMatchesSort holds "PlanSort says what Sort does" for every
// way a call can resolve: each algorithm × record counts on both sides of
// every boundary × padding policy × hybrid group × sink, and caps that are
// no power-of-two plan's bytes. Where Sort runs, its path, its columnsort
// plan or its run capacity H, and its run count are the ones PlanSort
// reported; where either refuses, both refuse, with the same error.
func TestPlanSortMatchesSort(t *testing.T) {
	const p, mem, z, g = 4, 128, 16, 2
	s := newSorter(t, p, mem, z)
	ctx := context.Background()
	algs := []Algorithm{Threaded4, Threaded, Subblock, MColumn, Combined, Hybrid, BaselineIO3}
	seen := map[string]int{} // how each row resolved: the table must reach every way
	for _, alg := range algs {
		for _, group := range []int{0, g} {
			shape := []Option{WithAlgorithm(alg)}
			if group > 0 {
				shape = append(shape, WithHybridGroup(group))
			}
			// The smallest and largest single runs of this shape, to place
			// the record counts around; a shape nothing plans (Hybrid
			// without a group) still gets rows — its error must match too.
			var smallest, largest SortPlan
			for n := int64(1); n <= 1<<20; n *= 2 {
				if sp, err := s.PlanSort(n, append(shape, WithPadding(PadNever))...); err == nil {
					if smallest.N == 0 {
						smallest = sp
					}
					largest = sp
				}
			}
			type row struct {
				name string
				n    int64
				cap  int64
			}
			const mib = 1 << 20
			capped := []row{
				{"capped-1MiB", 4*mib/z + 1, mib},
				{"capped-12MiB", 12*mib/z + 1, 12 * mib},
			}
			rows := append([]row{{"unplannable-shape", 1000, 0}}, capped...)
			if largest.N > 0 {
				r := int64(largest.R)
				rows = []row{
					{"plannable", largest.N, 0},
					{"padded", largest.N - 3, 0},
					{"above-bound", largest.N + 1, 0},
					{"above-r²", r*r + 1, 0},
					{"capped-fits", smallest.N, smallest.N * z},
					{"capped-over", smallest.N + 1, smallest.N * z},
					{"capped-over-plannable", largest.N, smallest.N * z},
					{"cap-too-small", smallest.N, z},
				}
				rows = append(rows, capped...)
			}
			for _, rw := range rows {
				for _, pad := range []PaddingPolicy{PadAuto, PadNever} {
					for _, sink := range []Sink{nil, Discard()} {
						opts := append(append([]Option{}, shape...), WithPadding(pad))
						if rw.cap > 0 {
							opts = append(opts, WithMaxMemory(rw.cap))
						}
						name := fmt.Sprintf("%v/g%d/%s/pad%d/sink=%v", alg, group, rw.name, pad, sink != nil)
						sp, perr := s.PlanSort(rw.n, opts...)
						res, serr := s.Sort(ctx, Generate(record.Uniform{Seed: 5}, rw.n), sink, opts...)
						// A hybrid group is a g like any other: under PadAuto it
						// pads, and past the bound or the cap its plan sizes the run.
						if hier, ok := hybridResolves[rw.name]; ok && alg == Hybrid && group > 0 && pad == PadAuto {
							if perr != nil || (sp.MaxRuns > 0) != hier || !hier && (sp.Alg != Hybrid || sp.Group != g) {
								t.Errorf("%s: PlanSort = %v, %v; want a g = %d plan, hierarchical = %v", name, sp, perr, g, hier)
							}
						}
						switch {
						case perr != nil:
							seen["refused"]++
							if serr == nil || serr.Error() != perr.Error() {
								t.Errorf("%s: PlanSort refused with %q, Sort returned %v", name, perr, serr)
							}
							for _, class := range planClasses {
								if errors.Is(perr, class) != errors.Is(serr, class) {
									t.Errorf("%s: errors.Is(%v) differs: PlanSort %q, Sort %q", name, class, perr, serr)
								}
							}
						case sp.MaxRuns > 0 && sink == nil:
							// The one thing PlanSort cannot see.
							seen["sink-required"]++
							if !errors.Is(serr, ErrSinkRequired) || !errors.Is(serr, ErrTooLarge) {
								t.Errorf("%s: hierarchical without a Sink returned %v", name, serr)
							}
						case alg == BaselineIO3 && group == 0 && sink != nil:
							// Unsorted by design: Sort refuses the Sink before admission.
							seen["baseline-not-emitted"]++
							if serr == nil || !strings.Contains(serr.Error(), "a baseline moves records without sorting them") {
								t.Errorf("%s: a baseline emitted into a Sink: %v", name, serr)
							}
						case serr != nil:
							t.Errorf("%s: PlanSort planned %v, Sort failed: %v", name, sp, serr)
						default:
							if res.Merge != nil {
								seen["hierarchical"]++
							} else {
								seen["single-run"]++
							}
							if (res.Merge != nil) != (sp.MaxRuns > 0) {
								t.Errorf("%s: Sort hierarchical = %v, PlanSort said %v", name, res.Merge != nil, sp)
							}
							m := res.Merge
							if m == nil && res.Plan.String() != sp.Plan.String() {
								t.Errorf("%s: Sort ran [%s], PlanSort said [%s]", name, res.Plan, sp.Plan)
							} else if m != nil && (m.RunRecords != sp.RunRecords || m.Runs > sp.MaxRuns || res.Summary().Plan != sp.String()) {
								t.Errorf("%s: Sort formed %d runs over H = %d [%s], PlanSort said [%s]",
									name, m.Runs, m.RunRecords, res.Summary().Plan, sp)
							}
							if rw.cap > 0 && m != nil && m.RunRecords != min(rw.cap/z, rw.n) {
								t.Errorf("%s: H = %d under a %d-byte cap over %d records", name, m.RunRecords, rw.cap, rw.n)
							}
						}
						if res != nil {
							res.Close()
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{"single-run", "hierarchical", "refused", "sink-required", "baseline-not-emitted"} {
		if seen[kind] == 0 {
			t.Errorf("no row of the table resolved as %q: %v", kind, seen)
		}
	}
	t.Logf("rows by resolution: %v", seen)
}

// TestSortUnboundedBeyondRSquared pins "Sort is unbounded in n" past r²,
// where the covering power of two has more columns than rows: these counts
// sort hierarchically, to the bytes a cap-forced hierarchical sort emits.
func TestSortUnboundedBeyondRSquared(t *testing.T) {
	s, err := New(Config{Procs: 4, MemPerProc: 256, RecordSize: 64, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	digest := func(n int64, opts ...Option) (*Result, string) {
		t.Helper()
		h := sha256.New()
		res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 11}, n), ToWriter(h), opts...)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		res.Close()
		return res, fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, n := range []int64{65536, 65537, 1 << 20} { // r² = 65536
		res, got := digest(n)
		if res.Merge == nil || res.RealRecords() != n {
			t.Errorf("n=%d: sorted %d records, Merge = %+v; want hierarchical", n, res.RealRecords(), res.Merge)
		}
		if _, want := digest(n, WithMaxMemory(2048*64)); got != want {
			t.Errorf("n=%d: output differs from the cap-forced hierarchical sort", n)
		}
	}
}

// TestPlanSweepClassification: over every algorithm, machine shape and
// record count, a PadAuto plan resolves to a plan, to ErrTooLarge, or to an
// error that does not depend on n (a configuration nothing can sort) —
// never to a size-dependent failure that hides the bound.
func TestPlanSweepClassification(t *testing.T) {
	algs := []Algorithm{Threaded4, Threaded, Subblock, MColumn, Combined, BaselineIO3, BaselineIO4}
	counts := []int64{1, 1000, 65536, 65537, 1 << 20, 1<<28 + 1, 1 << 40, 1<<52 - 1}
	for _, alg := range algs {
		for p := 1; p <= 16; p *= 2 {
			for mem := 1; mem <= 1<<14; mem *= 2 {
				e := &Engine{cfg: Config{Procs: p, Disks: p, MemPerProc: mem, RecordSize: 64}}
				other := map[string]int{} // non-ErrTooLarge failures, by text
				for _, n := range counts {
					if _, err := e.PlanSort(n, WithAlgorithm(alg)); err != nil && !errors.Is(err, ErrTooLarge) {
						other[err.Error()]++
					}
				}
				for msg, k := range other {
					if len(other) > 1 || k != len(counts) {
						t.Errorf("%v P=%d M/P=%d: size-dependent planning failure (%d of %d counts): %s", alg, p, mem, k, len(counts), msg)
					}
				}
			}
		}
	}
}
