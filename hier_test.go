package colsort

// Tests of the hierarchical (above-bound) Sort path: replacement-selection
// run formation, spilled sorted runs, and the streaming k-way merge.
//
// The acceptance bar (ISSUE 4): a file-backed input at least 3× larger than
// the largest single-run bound sorts via Sorter.Sort with output
// byte-identical to a reference sort, under ascending AND descending
// KeySpecs, and a mid-merge cancel unwinds leak-free.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"colsort/internal/record"
	"colsort/internal/testutil"
)

// refSortBytes returns the byte-identical expected output of sorting raw
// under ks: the engine's total order is plain bytes.Compare over
// codec-normalized records (field order first, deterministic tie-break on
// the remaining bytes), decoded back to the caller's layout.
func refSortBytes(t testing.TB, raw []byte, z int, ks KeySpec) []byte {
	t.Helper()
	codec, err := ks.Compile(z)
	if err != nil {
		t.Fatal(err)
	}
	enc := record.NewSlice(append([]byte(nil), raw...), z)
	codec.Encode(enc)
	n := enc.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return bytes.Compare(enc.Record(idx[a]), enc.Record(idx[b])) < 0
	})
	out := record.Make(n, z)
	for i, j := range idx {
		out.CopyRecord(i, enc, j)
	}
	codec.Decode(out)
	return out.Data
}

// genRaw builds n records of z bytes from the given generator.
func genRaw(n, z int, g record.Generator) []byte {
	raw := make([]byte, n*z)
	for i := 0; i < n; i++ {
		g.Gen(raw[i*z:(i+1)*z], int64(i))
	}
	return raw
}

// TestHierarchicalFileBacked3x is the acceptance test: a file-backed input
// more than 3× the largest single-run bound, sorted through FromFile/ToFile
// under ascending and descending KeySpecs, byte-identical to the reference.
func TestHierarchicalFileBacked3x(t *testing.T) {
	const p, mem, z = 4, 256, 32
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := int(3*bound) + 123 // >3× the bound, non-power-of-two tail
	raw := genRaw(n, z, record.Uniform{Seed: 21})

	for _, order := range []Order{Ascending, Descending} {
		order := order
		// The name's second segment is the Formation every result reports.
		t.Run(fmt.Sprintf("%v/%s", order, formationName), func(t *testing.T) {
			dir := t.TempDir()
			testutil.CheckLeaks(t, filepath.Join(dir, "scratch"))
			in := filepath.Join(dir, "in.dat")
			out := filepath.Join(dir, "out.dat")
			if err := os.WriteFile(in, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			fs, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z,
				Dir: filepath.Join(dir, "scratch"), Async: true})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			ks := KeySpec{Offset: 8, Width: 8, Order: order}
			res, err := fs.Sort(context.Background(), FromFile(in), ToFile(out),
				WithAlgorithm(Threaded), WithKeySpec(ks))
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			if res.Merge == nil {
				t.Fatal("above-bound sort did not take the hierarchical path")
			}
			if res.Merge.Formation != formationName {
				t.Errorf("Merge.Formation = %q, want %q", res.Merge.Formation, formationName)
			}
			// Maximal runs are at least RunRecords long, so the batch
			// arithmetic is an upper bound on their count.
			maxRuns := (int64(n) + res.Merge.RunRecords - 1) / res.Merge.RunRecords
			if int64(res.Merge.Runs) > maxRuns {
				t.Errorf("formed %d runs, more than the bound %d (run size %d)", res.Merge.Runs, maxRuns, res.Merge.RunRecords)
			}
			if res.RealRecords() != int64(n) {
				t.Errorf("RealRecords = %d, want %d", res.RealRecords(), n)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refSortBytes(t, raw, z, ks)) {
				t.Error("hierarchical output is not byte-identical to the reference sort")
			}
		})
	}
}

// TestHierarchicalCancelMidMerge cancels during the k-way merge phase (a
// merge progress event proves the merge is live): the sort must unwind with
// context.Canceled, no goroutine leaks, and no scratch or spill files.
func TestHierarchicalCancelMidMerge(t *testing.T) {
	dir := t.TempDir()
	testutil.CheckLeaks(t, dir)
	const p, mem, z = 4, 256, 32
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z, Dir: dir, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bound := s.MaxRecords(Threaded)
	n := 4 * bound
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	sawMerge := false
	res, err := s.Sort(ctx, Generate(record.Uniform{Seed: 5}, n), Discard(),
		WithAlgorithm(Threaded),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 { // the k-way merge is running
				sawMerge = true
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled hierarchical sort returned no error")
	}
	if !sawMerge {
		t.Fatal("no merge progress event observed before the failure")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}

	// The sorter remains usable after the cancelled hierarchical run.
	var out bytes.Buffer
	ok, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 6}, 2*bound), ToWriter(&out))
	if err != nil {
		t.Fatalf("Sort after cancel: %v", err)
	}
	ok.Close()
}

// TestHierarchicalFanInLevels forces a multi-level merge tree (fan-in 2
// over the 8 runs this input forms) and checks the output still matches the
// reference exactly. The schedule's tree over these 8 Zipf runs is 4 high;
// a balanced tree of 3 levels would rewrite no fewer records.
func TestHierarchicalFanInLevels(t *testing.T) {
	testutil.CheckGoroutines(t)
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := int(12 * bound)
	raw := genRaw(n, z, record.Zipf{Seed: 8})
	var out bytes.Buffer
	res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
		WithAlgorithm(Threaded), WithMergeFanIn(2))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Merge.Runs != 8 { // formation is deterministic for a seeded input
		t.Errorf("formed %d runs, want 8", res.Merge.Runs)
	}
	if res.Merge.Levels != 4 {
		t.Errorf("merge tree has %d levels, want the schedule's 4 with fan-in 2 over these 8 runs", res.Merge.Levels)
	}
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
		t.Error("multi-level merge output differs from the reference sort")
	}
}

// TestHugeMergeFanIn: any fan-in ≥ 2 is legal, so the merge-chunk budget
// must not overflow on one that wraps (fanIn+4)·z. Such a fan-in covers every
// run, so the sort is one merge and its output the default fan-in's; and
// wherever the product fits, the budget is what it always was.
func TestHugeMergeFanIn(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	sortBytes := func(opts ...Option) []byte {
		t.Helper()
		var out bytes.Buffer
		opts = append(opts, WithMaxMemory(64<<10))
		res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 1}, 5000), ToWriter(&out), opts...)
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
		return out.Bytes()
	}
	want := sortBytes()
	for _, fanIn := range []int{1<<58 - 4, math.MaxInt - 3, math.MaxInt} {
		if got := sortBytes(WithMergeFanIn(fanIn)); !bytes.Equal(got, want) {
			t.Errorf("fan-in %d: output differs from the default fan-in's", fanIn)
		}
	}
	for _, fanIn := range []int{2, 16, 1000, 1 << 20} {
		for _, maxMem := range []int64{1, 64 << 10, 1 << 30} {
			o := sortOptions{maxMemory: maxMem}
			old := max(min(s.cfg.MemPerProc/2, int(maxMem/int64((fanIn+4)*64))), 64)
			if got := s.mergeChunkRecs(o, fanIn); got != min(old, 1<<16) {
				t.Errorf("fan-in %d, cap %d: chunk %d records, was %d", fanIn, maxMem, got, min(old, 1<<16))
			}
		}
	}
}

// TestWithMaxMemoryForcesRuns caps the run size below an otherwise
// plannable n: the sort must take the hierarchical path and still produce
// the reference output.
func TestWithMaxMemoryForcesRuns(t *testing.T) {
	testutil.CheckGoroutines(t)
	const p, mem, z = 2, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2048 // within the threaded bound for this config
	if _, err := s.Plan(Threaded, n); err != nil {
		t.Fatalf("n=%d should be single-run plannable: %v", n, err)
	}
	raw := genRaw(n, z, record.Dup{Seed: 4})
	want := refSortBytes(t, raw, z, KeySpec{})
	var out bytes.Buffer
	res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
		WithAlgorithm(Threaded), WithMaxMemory(int64(n/4)*z))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Merge == nil {
		t.Fatal("WithMaxMemory did not force run formation")
	}
	if res.Merge.RunRecords != n/4 || res.Merge.Runs < 1 || res.Merge.Runs > 4 {
		t.Fatalf("formed %d runs over a %d-record budget, want 1..4 over %d: %+v",
			res.Merge.Runs, res.Merge.RunRecords, n/4, res.Merge)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Error("memory-capped output differs from the reference sort")
	}
}

// TestHierarchicalRequiresSink pins the contract that an above-bound sort
// cannot run with a nil Sink — the merged output exists only as a stream.
func TestHierarchicalRequiresSink(t *testing.T) {
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * s.MaxRecords(Threaded)
	_, err = s.Sort(context.Background(), Generate(record.Uniform{Seed: 1}, n), nil)
	if err == nil {
		t.Fatal("above-bound sort with nil Sink succeeded")
	}
	if !errors.Is(err, ErrSinkRequired) {
		t.Errorf("err = %v, want errors.Is(err, ErrSinkRequired)", err)
	}
	// Legacy callers branch on the sentinel: the nil-Sink failure is still
	// fundamentally "n exceeds the bound" and must keep matching it.
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want errors.Is(err, ErrTooLarge)", err)
	}
}

// TestHierarchicalProgress pins the shape of an above-bound sort's progress
// stream: no engine pass event at all (the engine is not on this path),
// every formation event before the first merge event, and merge events
// that name the run count and climb monotonically to n.
func TestHierarchicalProgress(t *testing.T) {
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := 3 * bound
	var merged []int64
	var mergeBatches int
	formedAfterMerge := false
	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 2}, n), Discard(),
		WithProgress(func(ev Progress) {
			switch {
			case ev.Pass > 0:
				t.Errorf("engine pass event above the bound: %+v", ev)
			case ev.FormedRecords > 0:
				formedAfterMerge = formedAfterMerge || len(merged) > 0
			default:
				if ev.TotalRecords != n {
					t.Errorf("merge event TotalRecords = %d, want %d", ev.TotalRecords, n)
				}
				merged = append(merged, ev.MergedRecords)
				mergeBatches = ev.Batches
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if formedAfterMerge {
		t.Error("a formation event arrived after the merge had started")
	}
	if mergeBatches != res.Merge.Runs {
		t.Errorf("merge events carry Batches = %d, want the %d runs formed", mergeBatches, res.Merge.Runs)
	}
	if len(merged) == 0 || merged[len(merged)-1] != n {
		t.Errorf("merge progress %v does not end at %d", merged, n)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i] < merged[i-1] {
			t.Errorf("merge progress not monotone: %v", merged)
		}
	}
}

// TestHierarchicalOptionValidation covers the new options' error paths.
func TestHierarchicalOptionValidation(t *testing.T) {
	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	src := Generate(record.Uniform{Seed: 1}, 1024)
	if _, err := s.Sort(context.Background(), src, nil, WithMergeFanIn(1)); err == nil {
		t.Error("WithMergeFanIn(1) accepted")
	}
	if _, err := s.Sort(context.Background(), src, nil, WithMaxMemory(-5)); err == nil {
		t.Error("WithMaxMemory(-5) accepted")
	}
	// A cap too small for even one column must fail with the sentinel.
	if _, err := s.Sort(context.Background(), src, Discard(), WithMaxMemory(16)); !errors.Is(err, ErrMemoryTooSmall) {
		t.Errorf("tiny cap error = %v, want errors.Is(err, ErrMemoryTooSmall)", err)
	}
}

// TestReplacementSelectFewerRuns is the run-length acceptance test: on
// uniform random input well above the bound, replacement selection must form
// at most 0.6× the worst-case run count PlanSort reports (theory says
// ~0.5×: runs average twice the former's capacity).
func TestReplacementSelectFewerRuns(t *testing.T) {
	testutil.CheckGoroutines(t)
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := int(16*bound) + 123
	raw := genRaw(n, z, record.Uniform{Seed: 17})
	sp, err := s.PlanSort(int64(n), WithAlgorithm(Threaded))
	if err != nil {
		t.Fatal(err)
	}
	batches := sp.MaxRuns
	var out bytes.Buffer
	res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out), WithAlgorithm(Threaded))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
		t.Error("output differs from the reference sort")
	}
	rs := res.Merge
	if rs.Runs*10 > batches*6 {
		t.Errorf("replacement selection formed %d runs over %d batches; want ≤ 0.6×", rs.Runs, batches)
	}
	if rs.MaxRunRecords <= rs.RunRecords {
		t.Errorf("longest run is %d records, no longer than the %d-record working set", rs.MaxRunRecords, rs.RunRecords)
	}
	if rs.MinRunRecords < 1 || rs.MinRunRecords > rs.MaxRunRecords {
		t.Errorf("run-length stats inconsistent: min %d, max %d", rs.MinRunRecords, rs.MaxRunRecords)
	}
}

// TestReplacementSelectNearlySorted pins the production win: inputs that are
// already nearly sorted — ascending or descending — collapse to at most two
// runs regardless of how far above the bound they are.
func TestReplacementSelectNearlySorted(t *testing.T) {
	testutil.CheckGoroutines(t)
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := int(6 * bound)
	cases := []struct {
		name string
		gen  record.Generator
		down bool
	}{
		{"nearly-sorted-asc", record.NearlySorted{Seed: 9, Window: 64}, false},
		{"nearly-sorted-desc", record.NearlyReverse{Seed: 9, Window: 64}, true},
		{"k-disordered", record.Disordered{Seed: 9, K: 32}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := genRaw(n, z, tc.gen)
			var out bytes.Buffer
			res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
				WithAlgorithm(Threaded))
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			if res.Merge.Runs > 2 {
				t.Errorf("%s input formed %d runs, want ≤ 2", tc.name, res.Merge.Runs)
			}
			if tc.down && res.Merge.DownRuns < 1 {
				t.Errorf("descending input formed no descending runs: %+v", res.Merge)
			}
			if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
				t.Error("output differs from the reference sort")
			}
		})
	}
}

// TestReplacementSelectProgress pins the formation-phase progress family:
// events tagged with Batch (the run index) and FormedRecords climbing to n,
// followed by merge events with monotone MergedRecords.
func TestReplacementSelectProgress(t *testing.T) {
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := 3 * bound
	var formed []int64
	var runIdx []int
	var merged []int64
	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 2}, n), Discard(),
		WithProgress(func(ev Progress) {
			switch {
			case ev.FormedRecords > 0:
				if ev.TotalRecords != n {
					t.Errorf("formation event TotalRecords = %d, want %d", ev.TotalRecords, n)
				}
				formed = append(formed, ev.FormedRecords)
				if len(runIdx) == 0 || runIdx[len(runIdx)-1] != ev.Batch {
					runIdx = append(runIdx, ev.Batch)
				}
			case ev.MergedRecords > 0:
				merged = append(merged, ev.MergedRecords)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if len(formed) == 0 || formed[len(formed)-1] != n {
		t.Errorf("formation progress %v does not end at %d", formed, n)
	}
	for i := 1; i < len(formed); i++ {
		if formed[i] <= formed[i-1] {
			t.Errorf("formation progress not strictly increasing: %v", formed)
		}
	}
	for i, r := range runIdx {
		if r != i+1 {
			t.Errorf("run indices %v are not 1..%d", runIdx, len(runIdx))
			break
		}
	}
	if len(runIdx) != res.Merge.Runs {
		t.Errorf("saw %d distinct run indices, Merge.Runs = %d", len(runIdx), res.Merge.Runs)
	}
	if len(merged) == 0 || merged[len(merged)-1] != n {
		t.Errorf("merge progress %v does not end at %d", merged, n)
	}
}

// TestMergeProgressMonotoneMultiLevel pins the cumulative merge progress
// across a multi-level tree: one nondecreasing MergedRecords sequence with a
// constant TotalRecords covering every intermediate merge plus the final one.
func TestMergeProgressMonotoneMultiLevel(t *testing.T) {
	testutil.CheckGoroutines(t)
	const p, mem, z = 4, 256, 16
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := 8 * bound
	var merged []int64
	var total int64
	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 11}, n), Discard(),
		WithAlgorithm(Threaded), WithMergeFanIn(2),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				if total == 0 {
					total = ev.TotalRecords
				} else if ev.TotalRecords != total {
					t.Errorf("merge TotalRecords changed mid-stream: %d then %d", total, ev.TotalRecords)
				}
				merged = append(merged, ev.MergedRecords)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Merge.Runs != 5 || res.Merge.Levels != 3 { // formation is deterministic for a seeded input
		t.Fatalf("formed %d runs merged over %d levels, want 5 over 3 (the test needs intermediate merges)", res.Merge.Runs, res.Merge.Levels)
	}
	// The cumulative total covers intermediate merge output plus the final
	// merge's n records — strictly more than n with ≥ 2 levels.
	if total <= n {
		t.Errorf("cumulative merge total = %d, want > %d with intermediate levels", total, n)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i] < merged[i-1] {
			t.Fatalf("merge progress not monotone at %d: %d then %d", i, merged[i-1], merged[i])
		}
	}
	if len(merged) == 0 || merged[len(merged)-1] != total {
		t.Errorf("merge progress ends at %d, want the advertised total %d", merged[len(merged)-1], total)
	}
}

// TestFormerCapacityGuard: the former's slot ids are int32, so resolve
// clamps H below 2³¹−1, where PlanSort and Sort agree before admission,
// instead of a run refusing it after. On a machine whose largest run is
// past 2³¹ records, a terabyte cap and no cap both plan a 2⁴⁰-record sort,
// and planning allocates nothing of H's 128 GiB.
func TestFormerCapacityGuard(t *testing.T) {
	e := &Engine{cfg: Config{Procs: 16, Disks: 16, MemPerProc: 1 << 24, RecordSize: 64}}
	if largest := e.MaxRecords(Threaded); largest <= math.MaxInt32 {
		t.Fatalf("largest threaded run %d: the machine must plan past 2³¹−1", largest)
	}
	for _, opts := range [][]Option{{WithMaxMemory(1 << 40)}, nil} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp, err := e.PlanSort(1<<40, opts...)
		runtime.ReadMemStats(&after)
		if err != nil || sp.MaxRuns == 0 || sp.RunRecords > math.MaxInt32 || sp.RunRecords < math.MaxInt32-64 {
			t.Errorf("PlanSort(2⁴⁰, %d options) = %v, %v; want runs + merge over H just below 2³¹−1", len(opts), sp, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("PlanSort allocated %d bytes", got)
		}
	}
}
