package colsort

// Tests of the run-formation pipeline (DESIGN.md §12: ingest ‖ select ‖
// spill ‖ commit): what it promises a RecordReader, how it stops, what
// every fault does on its way through the stages, and that none of it —
// output, counters, progress, manifest — depends on how the scheduler
// interleaves the four goroutines.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"colsort/internal/merge"
	"colsort/internal/pdm"
	"colsort/internal/pipeline"
	"colsort/internal/record"
	"colsort/internal/runform"
	"colsort/internal/testutil"
)

// strictSource is a third party's Source (its reader has no bulk method)
// that holds Sort to the RecordReader contract: it reports overlapping
// ReadRecord calls, any call after Close, a Close during a call, and a
// missing or second Close.
type strictSource struct {
	t      *testing.T
	raw    []byte
	z      int
	failAt int           // record whose read fails with errSource; -1: none
	at     func(rec int) // called inside every ReadRecord; may be nil

	pos    int
	busy   atomic.Int32
	closes atomic.Int32
}

var errSource = errors.New("source went away")

func (s *strictSource) Open(recSize int) (int64, RecordReader, error) {
	return int64(len(s.raw) / recSize), s, nil
}

func (s *strictSource) ReadRecord(rec []byte) error {
	if s.busy.Add(1) != 1 {
		s.t.Error("overlapping ReadRecord calls")
	}
	defer s.busy.Add(-1)
	if s.closes.Load() != 0 {
		s.t.Error("ReadRecord after Close")
	}
	k := s.pos / s.z
	if s.at != nil {
		s.at(k)
	}
	runtime.Gosched() // widen the window an overlapping call or an early Close would need
	if k == s.failAt {
		return errSource
	}
	s.pos += copy(rec, s.raw[s.pos:])
	return nil
}

func (s *strictSource) Close() error {
	if s.busy.Load() != 0 {
		s.t.Error("Close while a ReadRecord call is in flight")
	}
	s.closes.Add(1)
	return nil
}

// TestRecordReaderContract: the reader is driven strictly sequentially —
// above the bound from the ingest goroutine, below it from Sort's own — and
// never after Sort has returned and closed it, whichever way Sort ends. A
// third party's reader (no bulk method) is read record by record on both
// sides of the bound, and a failed read names its record.
func TestRecordReaderContract(t *testing.T) {
	const z = 32
	s := newSorter(t, 4, 256, z)
	bound := int(s.MaxRecords(Threaded))
	for _, leg := range []struct {
		prefix, reading string
		n               int
	}{
		{"", "reading", 5*bound + 7},
		{"below-bound ", "input", bound - 7}, // pads to the bound: the last chunk is part real, part pad
	} {
		n := leg.n
		raw := genRaw(n, z, record.Uniform{Seed: 61})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for _, tc := range []struct {
			name   string
			failAt int
			at     func(int)
			check  func(t *testing.T, out []byte, err error)
		}{
			{"success", -1, nil, func(t *testing.T, out []byte, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, refSortBytes(t, raw, z, KeySpec{})) {
					t.Error("output differs from the reference sort")
				}
			}},
			{"source error", n / 2, nil, func(t *testing.T, _ []byte, err error) {
				if want := fmt.Sprintf("colsort: %s record %d: %v", leg.reading, n/2, errSource); !errors.Is(err, errSource) || err.Error() != want {
					t.Errorf("err = %v, want %q as is", err, want)
				}
			}},
			{"cancellation", -1, func(k int) {
				if k == n/2 {
					cancel()
				}
			}, func(t *testing.T, _ []byte, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			}},
		} {
			t.Run(leg.prefix+tc.name, func(t *testing.T) {
				testutil.CheckGoroutines(t)
				src := &strictSource{t: t, raw: raw, z: z, failAt: tc.failAt, at: tc.at}
				var out bytes.Buffer
				res, err := s.Sort(ctx, src, ToWriter(&out), WithAlgorithm(Threaded))
				if err == nil {
					defer res.Close()
					if (res.Merge != nil) != (n > bound) {
						t.Errorf("n = %d, bound %d: Merge = %v", n, bound, res.Merge)
					}
				}
				tc.check(t, out.Bytes(), err)
				if c := src.closes.Load(); c != 1 {
					t.Errorf("reader closed %d times, want once", c)
				}
			})
		}
	}
}

// TestHierarchicalCancelMidFormation cancels while all four formation
// stages are live (half the input has been selected, so runs are being
// spilled and committed behind it and chunks read ahead of it): the sort
// must unwind with context.Canceled, no stage parked on a channel, every
// spill disk closed and no job's file left under Dir.
func TestHierarchicalCancelMidFormation(t *testing.T) {
	dir := t.TempDir()
	testutil.CheckLeaks(t, dir)
	s, err := New(Config{Procs: 4, MemPerProc: 256, RecordSize: 32, Dir: dir, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bound := s.MaxRecords(Threaded)
	n := 6 * bound
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sawMerge := false
	res, err := s.Sort(ctx, Generate(record.Uniform{Seed: 5}, n), Discard(),
		WithAlgorithm(Threaded),
		WithProgress(func(ev Progress) {
			if ev.FormedRecords >= n/2 {
				cancel()
			}
			sawMerge = sawMerge || ev.MergedRecords > 0
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled hierarchical sort returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	if sawMerge {
		t.Error("the merge started: formation outran its own cancellation")
	}
	if open, _, _ := s.pool.Stats(); open != 0 {
		t.Errorf("the cancelled formation left %d disks open", open)
	}
	testutil.CheckNoStray(t, dir, "job")

	// The sorter remains usable after the cancelled formation.
	ok, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 6}, 2*bound), Discard())
	if err != nil {
		t.Fatalf("Sort after cancel: %v", err)
	}
	ok.Close()

	// Cancel while ingest is parked on its hand-off: the select stage stalls
	// in the first progress call until the reader has stopped moving — ingest
	// has read, sorted and offered its next chunk and waits for select to
	// take it — then cancels. The waiting chunk must not keep Sort from
	// returning.
	t.Run("ingest blocked on the hand-off", func(t *testing.T) {
		testutil.CheckGoroutines(t)
		const z = 32
		raw := genRaw(int(n), z, record.Uniform{Seed: 7})
		var at atomic.Int64
		src := &strictSource{t: t, raw: raw, z: z, failAt: -1, at: func(k int) { at.Store(int64(k)) }}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var parkedAt int64
		var cancelled time.Time
		res, err := s.Sort(ctx, src, Discard(), WithAlgorithm(Threaded), WithProgress(func(Progress) {
			if !cancelled.IsZero() {
				return
			}
			for parkedAt = -1; at.Load() != parkedAt; time.Sleep(20 * time.Millisecond) {
				parkedAt = at.Load()
			}
			cancel()
			cancelled = time.Now()
		}))
		if err == nil {
			res.Close()
			t.Fatal("cancelled hierarchical sort returned no error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
		}
		if parkedAt >= n-1 {
			t.Fatalf("the reader reached record %d of %d: ingest was not parked on its hand-off", parkedAt, n)
		}
		if d := time.Since(cancelled); d > 5*time.Second {
			t.Errorf("Sort returned %v after the cancel", d)
		}
	})
}

// TestFormationFaultPaths drives every failure formation knows through the
// stages it now crosses: the error text, what is retried and what is not,
// and the redo count are the sequential loop's; no row may leave a stage
// behind.
func TestFormationFaultPaths(t *testing.T) {
	const z = 32
	lost := errors.New("spill disk lost")
	full := fmt.Errorf("write spill: %w", pdm.ErrNoSpace)
	scrub := WithRetry(RetryPolicy{Scrub: true}) // arms retention: a failed spill can be redone
	first := map[int]bool{0: true}
	all := map[int]bool{0: true, 1: true, 2: true} // the first spill and both redos the default budget buys
	midRun := int64(3 * 256 * z)                   // inside the first run, a few frames in

	probe := newSorter(t, 4, 256, z)
	n := int(4*probe.MaxRecords(Threaded)) + 11
	raw := genRaw(n, z, record.Uniform{Seed: 47})
	cut := (n/2)*z + 5 // the stream dies inside record n/2
	// … or inside the third ingest chunk: the first two are sorted and
	// handed over, and the select stage owns them, when the read fails.
	chunk := runform.ChunkLen(int(probe.MaxRecords(Threaded)))
	late := 2*chunk + chunk/2

	for _, tc := range []struct {
		name    string
		backend pdm.Backend
		src     Source
		opt     Option
		wantErr string // the error's text up to the cause; "": the sort succeeds
		cause   error
		redos   int64
	}{
		{name: "source error mid-run is terminal and returned as is",
			src:     FromReader(io.MultiReader(bytes.NewReader(raw[:cut]), iotest.ErrReader(errSource)), int64(n)),
			opt:     scrub,
			wantErr: fmt.Sprintf("colsort: reading record %d: colsort: read input: ", n/2), cause: errSource},
		{name: "source error after sorted chunks were handed over is returned as is",
			src:     FromReader(io.MultiReader(bytes.NewReader(raw[:late*z+5]), iotest.ErrReader(errSource)), int64(n)),
			wantErr: fmt.Sprintf("colsort: reading record %d: colsort: read input: ", late), cause: errSource},
		{name: "spill disk dies mid-run, retained run is redone",
			backend: laneFaultBackend{ordinals: first, at: midRun, err: lost}, opt: scrub, redos: 1},
		{name: "spill failure without retention is terminal",
			backend: laneFaultBackend{ordinals: first, at: midRun, err: lost},
			wantErr: "colsort: run 1: merge: write run: ", cause: lost},
		{name: "redo budget exhausted",
			backend: laneFaultBackend{ordinals: all, at: midRun, err: lost}, opt: scrub,
			wantErr: "colsort: redo budget (2) exhausted: run 1: merge: write run: ", cause: lost, redos: 2},
		{name: "no space fails fast, budget untouched",
			backend: laneFaultBackend{ordinals: all, at: midRun, err: full}, opt: scrub,
			wantErr: "colsort: run 1: merge: write run: ", cause: pdm.ErrNoSpace},
		{name: "unallocatable spill disk is a first-write failure: redone",
			backend: laneFaultBackend{refuse: first, err: lost}, opt: scrub, redos: 1},
		{name: "unallocatable spill disk is a first-write failure: terminal without retention",
			backend: laneFaultBackend{refuse: first, err: lost},
			wantErr: "colsort: run 1: ", cause: lost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			s := newSorter(t, 4, 256, z)
			s.m.Backend = tc.backend // the hierarchical path allocates spill disks only
			if tc.src == nil {
				tc.src = FromBytes(raw)
			}
			opts := []Option{WithAlgorithm(Threaded)}
			if tc.opt != nil {
				opts = append(opts, tc.opt)
			}
			var out bytes.Buffer
			res, err := s.Sort(context.Background(), tc.src, ToWriter(&out), opts...)
			if err == nil {
				defer res.Close()
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("sort failed: %v", err)
			case tc.wantErr == "" && !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})):
				t.Error("output differs from the reference sort")
			case tc.wantErr != "" && (err == nil || !errors.Is(err, tc.cause) || !strings.HasPrefix(err.Error(), tc.wantErr)):
				t.Errorf("err = %v, want %q… wrapping %v", err, tc.wantErr, tc.cause)
			}
			if f := s.Stats().Faults; f.BatchRedos != tc.redos {
				t.Errorf("BatchRedos = %d, want %d (faults %+v)", f.BatchRedos, tc.redos, f)
			}
		})
	}
}

// failFlush is a run disk whose write-behind flush fails: the commit
// stage's fsync of it fails.
type failFlush struct{ pdm.Disk }

var errFlush = errors.New("flush failed")

func (failFlush) Flush() error { return errFlush }

// TestFormationCommitStage drives the commit stage over three verified runs
// on a file-backed engine: under a checkpoint it commits the first (fsync,
// manifest line, admission), fails on the second's fsync and closes it and
// the third, which it was handed but did not commit; once the group has
// ended by another stage's failure it commits nothing and closes every run
// it is handed. Either way no disk is left open but the committed run's, and
// no job's file is left under Dir.
func TestFormationCommitStage(t *testing.T) {
	const z = 32
	for _, checkpointed := range []bool{true, false} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpointed), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			dir := t.TempDir()
			scratch := filepath.Join(dir, "scratch")
			s, err := New(Config{Procs: 4, MemPerProc: 256, RecordSize: z, Dir: scratch})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var o sortOptions
			if checkpointed {
				o.checkpoint = filepath.Join(dir, "ckpt")
			}
			h := &hierJob{job: s.newJob(context.Background(), o), stats: &MergeStats{}}
			h.w = merge.NewWriter(nil, z, 64)
			raw := genRaw(3*100, z, record.Uniform{Seed: 3})
			runs := make([]*merge.Run, 3)
			for i := range runs {
				if _, err := h.newSpill(); err != nil {
					t.Fatal(err)
				}
				if err := h.w.Append(record.NewSlice(raw[i*100*z:(i+1)*100*z], z)); err != nil {
					t.Fatal(err)
				}
				if runs[i], err = h.w.Finish(); err != nil {
					t.Fatal(err)
				}
			}
			in := make(chan *merge.Run, len(runs))
			for _, r := range runs {
				in <- r
			}
			close(in)
			g := pipeline.NewGroup(context.Background())
			wantCommitted, wantErr := 0, error(nil)
			if checkpointed {
				if h.ckpt, err = openManifestLog(o.checkpoint, 0); err != nil {
					t.Fatal(err)
				}
				defer h.ckpt.close()
				if err := h.ckpt.append(manifestEntry{Type: "begin", Formation: formationName}); err != nil {
					t.Fatal(err)
				}
				runs[1].Disk = failFlush{runs[1].Disk}
				wantCommitted, wantErr = 1, errFlush
			} else {
				g.Fail(errSource) // another stage failed first
			}
			if err := h.commitRuns(g, in); !errors.Is(err, wantErr) {
				t.Errorf("commitRuns = %v, want %v", err, wantErr)
			}
			if err := g.Wait(); !errors.Is(err, errFlush) && !errors.Is(err, errSource) {
				t.Errorf("the group ended with %v", err)
			}
			if len(h.live) != wantCommitted {
				t.Fatalf("%d runs committed, want %d", len(h.live), wantCommitted)
			}
			for i, r := range runs[wantCommitted:] {
				if r.Disk != nil {
					t.Errorf("run %d was handed to commit but not committed, and is still open", wantCommitted+i+1)
				}
			}
			if checkpointed {
				h.ckpt.close()
				st, err := readManifest(o.checkpoint)
				if err != nil || len(st.live) != 1 || st.live[0].Records != 100 {
					t.Errorf("manifest after the failed commit: %+v, %v; want the first run only", st, err)
				}
			}
			h.closeRuns()
			if open, _, _ := s.pool.Stats(); open != 0 {
				t.Errorf("%d disks left open", open)
			}
			testutil.CheckNoStray(t, scratch, "job")
		})
	}
}

// formationOutcome is everything a hierarchical sort lets its caller see.
type formationOutcome struct {
	sha      [32]byte
	summary  ResultSummary
	progress []Progress
	wal      string // manifest.wal as formation left it; "" without WithCheckpoint
}

// TestFormationSchedulingNotObservable sorts one input under GOMAXPROCS 1, 2
// and 8, ten times each, with and without WithCheckpoint: the output, the
// result summary (counters and merge shape included), the progress stream
// and the manifest must be the same every time. The GOMAXPROCS = 1 leg is
// also the proof that no stage spins or waits on parallelism it does not
// have.
func TestFormationSchedulingNotObservable(t *testing.T) {
	testutil.CheckGoroutines(t)
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	raw := genRaw(int(6*s.MaxRecords(Threaded))+17, 32, record.Uniform{Seed: 83})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, ckptDir := range []string{"", filepath.Join(dir, "ckpt")} {
		sortOnce := func() formationOutcome {
			var o formationOutcome
			opts := []Option{WithAlgorithm(Threaded), WithMergeFanIn(2), WithProgress(func(ev Progress) {
				if ckptDir != "" && ev.MergedRecords > 0 && o.wal == "" { // formation is over, nothing merged yet
					wal, err := os.ReadFile(filepath.Join(ckptDir, manifestName))
					if err != nil {
						t.Error(err)
					}
					o.wal = generation.ReplaceAllString(string(wal), "-g#.dat")
				}
				o.progress = append(o.progress, ev)
			})}
			if ckptDir != "" {
				opts = append(opts, WithCheckpoint(ckptDir))
			}
			var out bytes.Buffer
			res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			o.sha, o.summary = sha256.Sum256(out.Bytes()), res.Summary()
			o.summary.JobID = 0
			return o
		}
		want := sortOnce()
		if want.summary.Merge.Runs < 3 || (ckptDir != "") != (strings.Count(want.wal, `{"type":"run"`) == want.summary.Merge.Runs) {
			t.Fatalf("reference sort formed %d runs, manifest:\n%s", want.summary.Merge.Runs, want.wal)
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for i := 0; i < 10; i++ {
				if got := sortOnce(); !reflect.DeepEqual(got, want) {
					t.Fatalf("GOMAXPROCS=%d, checkpoint %q, sort %d differs from the reference:\n got %+v\nwant %+v", procs, ckptDir, i, got, want)
				}
			}
		}
	}
}

// TestHierarchicalSortAllocBytes pins what a warm engine allocates for one
// above-bound sort: the former's page table and mini-run lists (≈ 40 KiB
// here) and the merge's per-run bookkeeping — not the former's arena,
// ingest's staging buffer and sorted chunks, the emit chunks, the run
// writer's frame buffer or the merge's read frames and emit chunks, which
// are the job's pooled buffers, nor the chunk sort's scratch, which
// sortalg's free list keeps. The shape is the benchmark's hier-uniform at
// one eighth (input 8× the memory cap), where a sort allocates 0.05 MiB
// (0.06–0.09 under the race detector); the writer's frame buffer, drawn
// from the heap, would add 0.05 MiB, and the merge's three emit chunks
// 0.16 MiB.
func TestHierarchicalSortAllocBytes(t *testing.T) {
	const z = 64
	const capBytes = 1 << 20
	s, err := New(Config{Procs: 4, MemPerProc: 2048, RecordSize: z, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "in.dat")
	if err := os.WriteFile(in, genRaw(8*capBytes/z, z, record.Uniform{Seed: 9}), 0o644); err != nil {
		t.Fatal(err)
	}
	sortOnce := func() {
		res, err := s.Sort(context.Background(), FromFile(in), Discard(), WithAlgorithm(Threaded), WithMaxMemory(capBytes))
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	sortOnce() // warm the pools
	const sorts = 4
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < sorts; i++ {
		sortOnce()
	}
	runtime.ReadMemStats(&m1)
	perSort := float64(m1.TotalAlloc-m0.TotalAlloc) / sorts
	t.Logf("%.2f MiB allocated per sort of %d MiB under a %d MiB cap", perSort/(1<<20), 8*capBytes>>20, capBytes>>20)
	if perSort > capBytes/8 {
		t.Errorf("a warm hierarchical sort allocates %.0f bytes, more than 1/8 of its %d-byte memory cap: a chunk buffer has left the pool", perSort, capBytes)
	}
}

// TestInOrderChunksKeepThePool sorts above the bound, on one engine, a
// uniform input, one whose keys all rise and one whose keys all fall, three
// times over: every sort must match the reference sort's sha256, and once
// each input has warmed the engine's pools, every sort must leave them
// holding the same number of free buffers. A chunk already in order goes to
// the former as ingest's own staging buffer, and ingest stages the next chunk
// in the buffer it would have sorted into: a buffer put back twice would
// raise that count, one never put back would lower it.
func TestInOrderChunksKeepThePool(t *testing.T) {
	const z, capBytes, n = 64, 1 << 20, 8 * (1 << 20) / 64
	e, err := New(Config{Procs: 4, MemPerProc: 2048, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	warm := -1
	for round := 0; round < 3; round++ {
		for _, g := range []record.Generator{record.Uniform{Seed: 4}, record.NearlySorted{Seed: 4}, record.NearlyReverse{Seed: 4}} {
			raw := genRaw(n, z, g)
			var out bytes.Buffer
			res, err := e.Sort(context.Background(), FromBytes(raw), ToWriter(&out), WithAlgorithm(Threaded), WithMaxMemory(capBytes))
			if err != nil {
				t.Fatal(err)
			}
			res.Close()
			if res.Merge == nil {
				t.Fatalf("%s: the sort did not go above the bound", g.Name())
			}
			if sha256.Sum256(out.Bytes()) != sha256.Sum256(refSortBytes(t, raw, z, KeySpec{})) {
				t.Fatalf("%s round %d: output differs from the reference sort", g.Name(), round)
			}
			free := e.Stats().PoolFreeBuffers
			if round == 0 {
				warm = free
			} else if free != warm {
				t.Fatalf("%s round %d: the pools hold %d free buffers, %d after the warm-up", g.Name(), round, free, warm)
			}
		}
	}
}

// TestSingleRunSortAllocBytes is the same pin below the bound: on a warm
// engine the ingest, verify and drain scans borrow their column buffer from
// the pool, the sort stages their (key, index) arrays from sortalg's free
// list and the scatter passes their tables from core's, so what a sort still
// allocates — stores, stage channels, goroutines — stays under one column
// buffer: 0.08, 0.10 and 0.07 MiB here (0.17 at most under the race
// detector), where the tables built per pass made it 0.43, 0.95 and 0.69.
func TestSingleRunSortAllocBytes(t *testing.T) {
	const r, z = 4096, 64
	raw := genRaw(16*r, z, record.Uniform{Seed: 9})
	for _, alg := range []Algorithm{Threaded, Subblock, MColumn} {
		s, err := New(Config{Procs: 4, MemPerProc: r, RecordSize: z})
		if err != nil {
			t.Fatal(err)
		}
		sortOnce := func() {
			res, err := s.Sort(context.Background(), FromBytes(raw), Discard(), WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			res.Close()
		}
		sortOnce() // warm the pools
		sortOnce()
		// The least of six sorts: TotalAlloc is the whole process's, and what
		// earlier tests left running can only add to it.
		perSort := math.Inf(1)
		for i := 0; i < 6; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sortOnce()
			runtime.ReadMemStats(&m1)
			perSort = min(perSort, float64(m1.TotalAlloc-m0.TotalAlloc))
		}
		t.Logf("%v: %.2f MiB allocated per warm sort of %d MiB", alg, perSort/(1<<20), len(raw)>>20)
		if perSort > r*z {
			t.Errorf("%v: a warm single-run sort allocates %.0f bytes, more than one %d-byte column buffer: a scan buffer, a sort scratch or a table set has left its free list", alg, perSort, r*z)
		}
	}
}
