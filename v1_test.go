package colsort

// Tests of the v1 API: Sorter.Sort(ctx, Source, Sink, ...Option).
//
// The acceptance bar: one Sort call reproduces byte-identical output and
// identical sim.Counters to the raw engine path each legacy entry point
// used; a cancelled context tears a running sort down with no goroutine or
// scratch-file leaks; a KeySpec with non-zero offset sorts on the real
// embedded field; and the new path's steady state stays allocation-lean.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"colsort/internal/core"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// rawEngineRun executes the pre-v1 generated-input path — plan, fill via
// the generator, core.Run — exactly as the legacy SortGenerated did before
// it became a wrapper, so equivalence is pinned against the engine rather
// than against another wrapper of the same code.
func rawEngineRun(t *testing.T, s *Sorter, alg Algorithm, n int64, g record.Generator) *Result {
	t.Helper()
	pl, err := s.Plan(alg, n)
	if err != nil {
		t.Fatal(err)
	}
	input, err := pl.NewInput(s.m, g)
	if err != nil {
		t.Fatal(err)
	}
	defer input.Close()
	res, err := core.Run(context.Background(), pl, s.m, input, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return &Result{Result: res, want: record.OfGenerated(g, n, s.cfg.RecordSize), realN: n}
}

func TestSortMatchesLegacyEngine(t *testing.T) {
	const n, p, mem, z = 1 << 14, 4, 1 << 10, 32
	gen := record.Uniform{Seed: 42}
	for _, alg := range []Algorithm{Threaded, Threaded4, Subblock, MColumn, Combined} {
		t.Run(alg.String(), func(t *testing.T) {
			legacy := rawEngineRun(t, newSorter(t, p, mem, z), alg, n, gen)
			defer legacy.Close()
			v1, err := newSorter(t, p, mem, z).Sort(context.Background(),
				Generate(gen, n), nil, WithAlgorithm(alg), WithPadding(PadNever))
			if err != nil {
				t.Fatal(err)
			}
			defer v1.Close()
			if err := v1.Verify(); err != nil {
				t.Fatal(err)
			}

			a, err := legacy.Output.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := v1.Output.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Data, b.Data) {
				t.Error("v1 Sort output differs from the legacy engine path")
			}
			if !reflect.DeepEqual(legacy.PassCounters, v1.PassCounters) {
				t.Errorf("v1 Sort counters differ:\nlegacy %+v\nv1     %+v",
					legacy.TotalCounters(), v1.TotalCounters())
			}
		})
	}
}

func TestSortHybridMatchesLegacyEngine(t *testing.T) {
	const n, p, mem, z, g = 1 << 12, 8, 1 << 9, 16, 2
	gen := record.Uniform{Seed: 9}

	s1 := newSorter(t, p, mem, z)
	sp, err := s1.PlanSort(n, WithHybridGroup(g))
	if err != nil {
		t.Fatal(err)
	}
	pl := sp.Plan
	input, err := pl.NewInput(s1.m, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer input.Close()
	res, err := core.Run(context.Background(), pl, s1.m, input, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	legacy := &Result{Result: res, want: record.OfGenerated(gen, n, z), realN: n}
	defer legacy.Close()

	v1, err := newSorter(t, p, mem, z).Sort(context.Background(),
		Generate(gen, n), nil, WithHybridGroup(g))
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	if err := v1.Verify(); err != nil {
		t.Fatal(err)
	}
	a, _ := legacy.Output.Snapshot()
	b, _ := v1.Output.Snapshot()
	if !bytes.Equal(a.Data, b.Data) {
		t.Error("hybrid v1 output differs from the legacy engine path")
	}
	if !reflect.DeepEqual(legacy.PassCounters, v1.PassCounters) {
		t.Error("hybrid v1 counters differ from the legacy engine path")
	}
}

func newSorter(t *testing.T, p, mem, z int) *Sorter {
	t.Helper()
	s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSortKeySpec is the acceptance check of the pluggable key schema: a
// non-power-of-two batch of records whose key lives at a non-zero offset,
// sorted descending on that field, emitted through a Sink in the original
// layout.
func TestSortKeySpec(t *testing.T) {
	const z, n = 32, 1000 // non-power-of-two: exercises padding under a KeySpec
	const off, width = 12, 4
	raw := make([]byte, n*z)
	rng := record.Uniform{Seed: 77}
	for i := 0; i < n; i++ {
		rng.Gen(raw[i*z:(i+1)*z], int64(i))
	}
	for _, order := range []Order{Ascending, Descending} {
		t.Run(order.String(), func(t *testing.T) {
			var out bytes.Buffer
			s := newSorter(t, 4, 1<<8, z)
			res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
				WithKeySpec(KeySpec{Offset: off, Width: width, Order: order}))
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			if res.RealRecords() != n {
				t.Fatalf("RealRecords = %d, want %d", res.RealRecords(), n)
			}
			got := out.Bytes()
			if len(got) != len(raw) {
				t.Fatalf("sink got %d bytes, want %d", len(got), len(raw))
			}
			field := func(b []byte, i int) uint32 {
				return binary.BigEndian.Uint32(b[i*z+off:])
			}
			for i := 1; i < n; i++ {
				prev, cur := field(got, i-1), field(got, i)
				if (order == Ascending && cur < prev) || (order == Descending && cur > prev) {
					t.Fatalf("record %d out of %v field order: %x after %x", i, order, cur, prev)
				}
			}
			// The emitted records are a permutation of the input.
			var a, b record.Checksum
			a.AddSlice(record.NewSlice(raw, z))
			b.AddSlice(record.NewSlice(got, z))
			if !a.Equal(b) {
				t.Error("sink output is not a permutation of the input")
			}
			// Cross-check against the straightforward reference sort.
			want := append([]byte(nil), raw...)
			recs := make([][]byte, n)
			for i := range recs {
				recs[i] = want[i*z : (i+1)*z]
			}
			sort.SliceStable(recs, func(i, j int) bool {
				a, b := binary.BigEndian.Uint32(recs[i][off:]), binary.BigEndian.Uint32(recs[j][off:])
				if order == Descending {
					return a > b
				}
				return a < b
			})
			for i := 1; i < n; i++ {
				if field(got, i) != binary.BigEndian.Uint32(recs[i][off:]) {
					t.Fatalf("record %d field %x, reference says %x", i,
						field(got, i), binary.BigEndian.Uint32(recs[i][off:]))
				}
			}
		})
	}
}

// TestSortFromReader streams input from an io.Reader and back out through
// an io.Writer: the full v1 streaming loop on a plain byte pipe.
func TestSortFromReader(t *testing.T) {
	const z, n = 16, 1 << 12
	raw := make([]byte, n*z)
	gen := record.Reverse{Seed: 5}
	for i := 0; i < n; i++ {
		gen.Gen(raw[i*z:(i+1)*z], int64(i))
	}
	var out bytes.Buffer
	s := newSorter(t, 4, 1<<10, z)
	res, err := s.Sort(context.Background(), FromReader(bytes.NewReader(raw), n), ToWriter(&out))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	sorted := record.NewSlice(out.Bytes(), z)
	if !sorted.IsSorted() {
		t.Error("FromReader output not sorted")
	}
	if sorted.Len() != n {
		t.Errorf("FromReader output has %d records, want %d", sorted.Len(), n)
	}
	// A short stream must fail cleanly, not hang or fabricate records.
	if _, err := s.Sort(context.Background(), FromReader(bytes.NewReader(raw[:z*10]), n), nil); err == nil {
		t.Error("short stream accepted")
	}
}

// TestSortCancelTearsDown is the cancellation acceptance test: a mid-pass
// cancel of a file-backed async run returns promptly with context.Canceled,
// leaves no goroutines behind, and removes every scratch file under
// Config.Dir (both pinned by the shared testutil leak checker).
func TestSortCancelTearsDown(t *testing.T) {
	dir := t.TempDir()
	testutil.CheckLeaks(t, dir)
	s, err := New(Config{Procs: 4, MemPerProc: 1 << 12, RecordSize: 32, Dir: dir, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	start := time.Now()
	res, err := s.Sort(ctx, Generate(record.Uniform{Seed: 1}, 1<<16), nil,
		WithAlgorithm(Threaded),
		WithProgress(func(ev Progress) {
			// Cancel in the middle of pass 2: the fabric, the pipelines and
			// the async disk workers are all live at this point.
			if ev.Pass == 2 && ev.Round == 1 {
				once.Do(cancel)
			}
		}))
	elapsed := time.Since(start)
	if err == nil {
		res.Close()
		t.Fatal("cancelled Sort returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	if elapsed > 30*time.Second {
		t.Errorf("cancel took %v to return", elapsed)
	}

	// The sorter remains usable after a cancelled run.
	ok, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 1}, 1<<12), nil)
	if err != nil {
		t.Fatalf("Sort after cancel: %v", err)
	}
	if err := ok.Verify(); err != nil {
		t.Error(err)
	}
	ok.Close()
}

// TestSortCancelDuringIngest covers the other cancellation window: a
// context that dies while records are still streaming onto the disks.
func TestSortCancelDuringIngest(t *testing.T) {
	dir := t.TempDir()
	testutil.CheckLeaks(t, dir)
	s, err := New(Config{Procs: 4, MemPerProc: 1 << 12, RecordSize: 32, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: ingest must notice before the engine starts
	if _, err := s.Sort(ctx, Generate(record.Uniform{Seed: 1}, 1<<15), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSortProgressEvents pins the progress contract: for every pass,
// a starting event (Round 0) plus one event per completed round, ending at
// Round == Rounds, in order.
func TestSortProgressEvents(t *testing.T) {
	const n, p, mem, z = 1 << 14, 4, 1 << 10, 16 // r=1024, s=16: 4 rounds/pass
	var events []Progress
	s := newSorter(t, p, mem, z)
	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 2}, n), nil,
		WithAlgorithm(Subblock),
		WithProgress(func(ev Progress) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	rounds := res.Plan.Rounds()
	passes := res.Plan.Alg.Passes()
	if want := passes * (rounds + 1); len(events) != want {
		t.Fatalf("got %d progress events, want %d (%d passes × %d rounds)", len(events), want, passes, rounds)
	}
	i := 0
	for pass := 1; pass <= passes; pass++ {
		for round := 0; round <= rounds; round++ {
			ev := events[i]
			if ev.Pass != pass || ev.Round != round || ev.Passes != passes || ev.Rounds != rounds {
				t.Fatalf("event %d = %+v, want pass %d/%d round %d/%d", i, ev, pass, passes, round, rounds)
			}
			i++
		}
	}
}

// TestTinyMemorySortIsHierarchical: a count far beyond r² of a tiny
// configuration used to exhaust the padding search (the covering power of
// two has s > r, which the planner reported as a divisibility failure). It
// is above the bound like any other: it needs a Sink, and with one it sorts.
func TestTinyMemorySortIsHierarchical(t *testing.T) {
	s := newSorter(t, 2, 8, 16) // tiny memory: nothing big is plannable
	src := Generate(record.Uniform{Seed: 1}, 1<<20)
	_, err := s.Sort(context.Background(), src, nil, WithAlgorithm(Threaded))
	if !errors.Is(err, ErrSinkRequired) || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("nil-sink error = %v, want ErrSinkRequired and ErrTooLarge", err)
	}
	res, err := s.Sort(context.Background(), src, Discard(), WithAlgorithm(Threaded))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Merge == nil || res.RealRecords() != 1<<20 {
		t.Errorf("sorted %d records, Merge = %+v; want a hierarchical sort of %d", res.RealRecords(), res.Merge, 1<<20)
	}
}

// TestSortSteadyStateAllocs pins the allocation discipline of the v1 path:
// repeated Sorts on one warm Sorter must not allocate per record — the
// whole call stays within a per-call budget two orders of magnitude below
// the record count, and within the raw engine path's own footprint plus a
// small constant for the Source/Option plumbing.
func TestSortSteadyStateAllocs(t *testing.T) {
	const n, p, mem, z = 1 << 14, 4, 1 << 10, 32
	gen := record.Uniform{Seed: 4}

	v1 := newSorter(t, p, mem, z)
	runV1 := func() {
		res, err := v1.Sort(context.Background(), Generate(gen, n), nil,
			WithAlgorithm(Threaded), WithPadding(PadNever))
		if err != nil {
			t.Fatal(err)
		}
		res.Close()
	}
	runV1() // warm pools, header free lists, scratch
	v1Allocs := testing.AllocsPerRun(3, runV1)

	legacy := newSorter(t, p, mem, z)
	runLegacy := func() {
		pl, err := legacy.Plan(Threaded, n)
		if err != nil {
			t.Fatal(err)
		}
		input, err := pl.NewInput(legacy.m, gen)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(context.Background(), pl, legacy.m, input, core.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		input.Close()
		res.Output.Close()
	}
	runLegacy()
	legacyAllocs := testing.AllocsPerRun(3, runLegacy)

	// Both paths pay a constant per-sort setup (stores, fabric, pipeline
	// goroutines) of around a thousand allocations; what must NOT appear
	// is a per-record term.
	if v1Allocs > float64(n)/8 {
		t.Errorf("v1 Sort allocates %.0f times for %d records — a per-record term crept in", v1Allocs, n)
	}
	// The checksum-during-fill replaces legacy's OfGenerated scan, and the
	// Source/Option plumbing is a handful of headers: allow a small
	// constant, never a per-record factor.
	if v1Allocs > legacyAllocs+100 {
		t.Errorf("v1 Sort allocates %.0f/run vs legacy engine %.0f/run", v1Allocs, legacyAllocs)
	}
}

// TestIngestReaderAllocs pins that the ingest inner loop both sides of the
// bound run — one bulk read into the chunk, codec encode, checksum —
// performs no per-record allocation.
func TestIngestReaderAllocs(t *testing.T) {
	const z = 64
	raw := make([]byte, 512*z)
	codec, err := KeySpec{Offset: 16, Width: 8}.Compile(z)
	if err != nil {
		t.Fatal(err)
	}
	chunk := record.Make(512, z)
	var want record.Checksum
	src := bytes.NewReader(raw)
	rd := newChunkedReader(src, nil)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := src.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if got, err := readRecords(rd, chunk); err != nil || got != 512 {
			t.Fatalf("read %d records: %v", got, err)
		}
		for i := 0; i < 512; i++ {
			rec := chunk.Record(i)
			codec.EncodeRecord(rec)
			want.Add(rec)
		}
	})
	if allocs != 0 {
		t.Errorf("ingest loop allocates %.1f per 512 records, want 0", allocs)
	}
}

// TestOptionOrderLastAlgorithmWins: a later WithAlgorithm must override an
// earlier WithHybridGroup (options assembled conditionally must not leave
// sticky hybrid state behind).
func TestOptionOrderLastAlgorithmWins(t *testing.T) {
	s := newSorter(t, 4, 1<<10, 16)
	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 8}, 1<<13), nil,
		WithHybridGroup(2), WithAlgorithm(MColumn))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Plan.Alg != MColumn {
		t.Fatalf("ran %v, want m-columnsort (the later WithAlgorithm)", res.Plan.Alg)
	}
}

// TestSortFileStillWorks pins the end-to-end "sort a file" path — FromFile
// through ToFile — that the removed SortFile wrapper used to package.
func TestSortFileStillWorks(t *testing.T) {
	const z, n = 32, 3000
	dir := t.TempDir()
	in := filepath.Join(dir, "in.dat")
	out := filepath.Join(dir, "out.dat")
	raw := make([]byte, n*z)
	gen := record.Zipf{Seed: 11}
	for i := 0; i < n; i++ {
		gen.Gen(raw[i*z:(i+1)*z], int64(i))
	}
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Procs: 4, MemPerProc: 1 << 10, RecordSize: z, Dir: filepath.Join(dir, "scratch"), Async: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Sort(context.Background(), FromFile(in), ToFile(out), WithAlgorithm(Threaded))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sorted := record.NewSlice(got, z)
	if sorted.Len() != n {
		t.Fatalf("output has %d records, want %d", sorted.Len(), n)
	}
	if !sorted.IsSorted() {
		t.Error("SortFile output not sorted")
	}
	var a, b record.Checksum
	a.AddSlice(record.NewSlice(raw, z))
	b.AddSlice(sorted)
	if !a.Equal(b) {
		t.Error("SortFile output is not a permutation of the input")
	}
}
