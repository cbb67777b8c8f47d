package runform

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"colsort/internal/record"
	"colsort/internal/sortalg"
)

// sliceReader feeds the records of s to New's adapter one at a time; *read
// counts the records handed out.
func sliceReader(s record.Slice, read *int) func(rec []byte) (bool, error) {
	return func(rec []byte) (bool, error) {
		if *read >= s.Len() {
			return false, nil
		}
		copy(rec, s.Record(*read))
		*read++
		return true, nil
	}
}

// chunkFeed feeds the records of s to NewChunked as a pipeline's ingest
// stage does: ChunkLen(capacity) arrivals at a time, tallied and sorted by
// SortChunk into a buffer from pool (which may be nil); *read counts the
// records handed out. Arrivals already in order are copied into that buffer,
// since the Former puts a chunk's buffer into its pool and this one is s.
func chunkFeed(s record.Slice, capacity int, pool *record.Pool, read *int) func() (Chunk, error) {
	sc := new(sortalg.Scratch)
	return func() (Chunk, error) {
		n := min(ChunkLen(capacity), s.Len()-*read)
		src, dst := s.Sub(*read, *read+n), pool.Get(n, s.Size)
		*read += n
		c, inPlace := SortChunk(sc, dst, src)
		if inPlace {
			dst.Copy(src)
			c.Recs = dst
		}
		return c, nil
	}
}

// feeds are the two ways a Former is fed — record by record through New's
// adapter, and sorted chunks through NewChunked — which must form the same
// runs; pool may be nil, and *read counts the records handed out.
var feeds = []struct {
	name string
	new  func(capacity int, in record.Slice, pool *record.Pool, read *int) *Former
}{
	{"records", func(capacity int, in record.Slice, pool *record.Pool, read *int) *Former {
		return New(capacity, in.Size, pool, sliceReader(in, read))
	}},
	{"chunks", func(capacity int, in record.Slice, pool *record.Pool, read *int) *Former {
		return NewChunked(capacity, in.Size, pool, chunkFeed(in, capacity, pool, read))
	}},
}

type formedRun struct {
	desc bool
	recs record.Slice
}

// former is the surface the drivers below need, so one driver runs the Former
// and each former it is checked against.
type former interface {
	NextRun() (desc, ok bool, err error)
	Fill(out record.Slice) (int, error)
	BreakRun()
	Close()
}

// drive runs f to exhaustion through a chunk-record buffer and returns every
// run it emits. breakAt, when non-nil, is asked after each Fill (with the
// records emitted so far, and those of the current run) whether to BreakRun
// there.
func drive(t testing.TB, f former, z, chunk int, breakAt func(emitted, run int) bool) []formedRun {
	t.Helper()
	defer f.Close()
	buf := record.Make(chunk, z)
	var runs []formedRun
	emitted := 0
	for {
		desc, ok, err := f.NextRun()
		if err != nil {
			t.Fatalf("NextRun: %v", err)
		}
		if !ok {
			return runs
		}
		var out bytes.Buffer
		for {
			n, err := f.Fill(buf)
			if err != nil {
				t.Fatalf("Fill: %v", err)
			}
			if n == 0 {
				break
			}
			out.Write(buf.Sub(0, n).Data)
			emitted += n
			if breakAt != nil && breakAt(emitted, out.Len()/z) {
				f.BreakRun()
			}
		}
		runs = append(runs, formedRun{desc: desc, recs: record.NewSlice(out.Bytes(), z)})
	}
}

// formAll drives a Former over in through each feed and returns every run it
// emits, the same through both.
func formAll(t *testing.T, capacity int, in record.Slice) []formedRun {
	t.Helper()
	var first []formedRun
	for _, feed := range feeds {
		read := 0
		runs := drive(t, feed.new(capacity, in, nil, &read), in.Size, 64, nil)
		if read != in.Len() {
			t.Fatalf("fed by %s, the former read %d records of %d", feed.name, read, in.Len())
		}
		if first == nil {
			first = runs
		} else {
			sameRuns(t, runs, first)
		}
	}
	return first
}

// checkRuns verifies every run is monotone in its declared direction and
// that the emitted multiset is exactly the input.
func checkRuns(t testing.TB, in record.Slice, runs []formedRun) {
	t.Helper()
	total := 0
	var all bytes.Buffer
	for i, r := range runs {
		if r.recs.Len() == 0 {
			t.Fatalf("run %d is empty", i)
		}
		for j := 1; j < r.recs.Len(); j++ {
			c := bytes.Compare(r.recs.Record(j-1), r.recs.Record(j))
			if r.desc && c < 0 {
				t.Fatalf("run %d (descending) ascends at record %d", i, j)
			}
			if !r.desc && c > 0 {
				t.Fatalf("run %d (ascending) descends at record %d", i, j)
			}
		}
		total += r.recs.Len()
		all.Write(r.recs.Data)
	}
	if total != in.Len() {
		t.Fatalf("runs hold %d records, input had %d", total, in.Len())
	}
	got := record.NewSlice(all.Bytes(), in.Size)
	ref := record.Make(in.Len(), in.Size)
	ref.Copy(in)
	sortSlice(got)
	sortSlice(ref)
	if !bytes.Equal(got.Data, ref.Data) {
		t.Fatalf("emitted records are not a permutation of the input")
	}
}

func sortSlice(s record.Slice) {
	n := s.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return bytes.Compare(s.Record(idx[a]), s.Record(idx[b])) < 0
	})
	out := record.Make(n, s.Size)
	for i, j := range idx {
		out.CopyRecord(i, s, j)
	}
	copy(s.Data, out.Data)
}

// TestRandomRunsNearTwiceCapacity pins the headline property: on random
// input, replacement selection forms runs averaging ~2× the capacity,
// so clearly fewer runs than the n/capacity fixed batches.
func TestRandomRunsNearTwiceCapacity(t *testing.T) {
	const n, capacity, z = 10000, 500, 16
	in := record.Make(n, z)
	record.Fill(in, record.Uniform{Seed: 42}, 0)
	runs := formAll(t, capacity, in)
	checkRuns(t, in, runs)
	fixed := n / capacity // 20
	if len(runs) > fixed*65/100 {
		t.Fatalf("random input formed %d runs; want ≤ 0.65× the %d fixed batches", len(runs), fixed)
	}
}

// TestSortedInputSingleAscendingRun: already-sorted input must collapse to
// one ascending run regardless of capacity.
func TestSortedInputSingleAscendingRun(t *testing.T) {
	const n, z = 5000, 16
	in := record.Make(n, z)
	record.Fill(in, record.Sorted{}, 0)
	runs := formAll(t, 64, in)
	checkRuns(t, in, runs)
	if len(runs) != 1 || runs[0].desc {
		t.Fatalf("sorted input formed %d runs (desc=%v), want 1 ascending", len(runs), runs[0].desc)
	}
}

// TestReverseInputSingleDescendingRun: strictly descending input must be
// detected by the direction heuristic and collapse to one descending run.
func TestReverseInputSingleDescendingRun(t *testing.T) {
	const n, z = 5000, 16
	in := record.Make(n, z)
	for i := 0; i < n; i++ {
		in.SetKey(i, uint64(n-i))
	}
	runs := formAll(t, 64, in)
	checkRuns(t, in, runs)
	if len(runs) != 1 || !runs[0].desc {
		t.Fatalf("descending input formed %d runs, want 1 descending", len(runs))
	}
}

// TestNearlySortedStaysFewRuns: bounded-displacement disorder smaller than
// the capacity is absorbed entirely (the emitted frontier trails the arrival
// frontier by ~capacity positions).
func TestNearlySortedStaysFewRuns(t *testing.T) {
	const n, z = 8000, 16
	in := record.Make(n, z)
	record.Fill(in, record.Disordered{Seed: 7, K: 32}, 0)
	runs := formAll(t, 256, in)
	checkRuns(t, in, runs)
	if len(runs) > 2 {
		t.Fatalf("k-disordered input (k≪capacity) formed %d runs, want ≤ 2", len(runs))
	}
}

// TestHeavyDuplicates: a tiny key universe must not break runs — equal
// records always extend (ties are ≥ / ≤, not strict).
func TestHeavyDuplicates(t *testing.T) {
	const n, z = 4000, 16
	in := record.Make(n, z)
	record.Fill(in, record.Dup{Seed: 3, K: 2}, 0)
	runs := formAll(t, 128, in)
	checkRuns(t, in, runs)
	if len(runs) > n/128 {
		t.Fatalf("duplicate-heavy input formed %d runs, want fewer than the %d fixed batches", len(runs), n/128)
	}
}

// TestEdgeSizes covers capacity ≥ n (one run), capacity 1 (degenerate),
// and an empty input (no runs).
func TestEdgeSizes(t *testing.T) {
	const z = 16
	in := record.Make(100, z)
	record.Fill(in, record.Uniform{Seed: 9}, 0)

	runs := formAll(t, 1000, in)
	checkRuns(t, in, runs)
	if len(runs) != 1 {
		t.Fatalf("capacity ≥ n formed %d runs, want 1", len(runs))
	}

	runs = formAll(t, 1, in)
	checkRuns(t, in, runs)

	empty := record.Make(0, z)
	for _, feed := range feeds {
		f := feed.new(8, empty, nil, new(int))
		defer f.Close()
		if _, ok, err := f.NextRun(); err != nil || ok {
			t.Fatalf("empty input fed by %s: NextRun = (ok=%v, err=%v), want no run", feed.name, ok, err)
		}
	}
}

// TestRunLengthTable pins the runs formed over 8 capacities of input — the
// shape of the bench/ hier-* workloads, whose runform.runs and
// runform.run_len_over_cap are these two columns — at four capacities,
// three of them with pages of one record and hier-uniform's own (2¹⁷, pages
// of 64). Random and duplicate-heavy input must keep the 5 runs of mean
// length 1.6× capacity that classic replacement selection forms here;
// nearly-sorted and reversed input must each stay ONE run.
func TestRunLengthTable(t *testing.T) {
	const z = 16
	for _, tc := range []struct {
		input string
		runs  int
		desc  bool
	}{
		{"uniform", 5, false},
		{"nearly-sorted", 1, false},
		{"reverse", 1, true},
		{"dup", 5, false},
	} {
		var gen func(rec []byte, i, n int)
		for _, in := range oracleInputs {
			if in.name == tc.input {
				gen = in.gen
			}
		}
		for _, capacity := range []int{1 << 9, 1 << 11, 1 << 13, 1 << 17} {
			n := 8 * capacity
			src := makeInput(gen, n, z)
			runs := drive(t, New(capacity, z, nil, sliceReader(src, new(int))), z, 1<<13, nil)
			if capacity < 1<<17 { // checkRuns' reference sort of 2²⁰ records would take seconds
				checkRuns(t, src, runs)
			}
			ratio := float64(n) / float64(len(runs)) / float64(capacity)
			if len(runs) != tc.runs || ratio < 8/float64(tc.runs) {
				t.Errorf("%s at capacity %d: %d runs, %.2f× capacity; want %d runs, %.2f×", tc.input, capacity, len(runs), ratio, tc.runs, 8/float64(tc.runs))
			}
			if tc.runs == 1 && runs[0].desc != tc.desc {
				t.Errorf("%s at capacity %d: the one run has desc=%v", tc.input, capacity, runs[0].desc)
			}
		}
	}
}

// TestReadErrorPropagates: input failures surface from NextRun (initial
// fill) and Fill (steady state) without corrupting internal state.
func TestReadErrorPropagates(t *testing.T) {
	boom := errors.New("input exploded")
	const z = 16
	fail := func(rec []byte) (bool, error) { return false, boom }
	f := New(8, z, nil, fail)
	defer f.Close()
	if _, _, err := f.NextRun(); !errors.Is(err, boom) {
		t.Fatalf("NextRun err = %v, want the input's error", err)
	}

	in := record.Make(50, z)
	record.Fill(in, record.Uniform{Seed: 1}, 0)
	next := sliceReader(in, new(int))
	n := 0
	flaky := func(rec []byte) (bool, error) {
		if n == 20 {
			return false, boom
		}
		n++
		return next(rec)
	}
	f2 := New(8, z, nil, flaky)
	defer f2.Close()
	checkFailsInFill(t, f2, boom)
}

// TestChunkErrorPropagates is TestReadErrorPropagates fed by sorted chunks:
// a failing source fails NextRun, and one that fails after handing over some
// chunks fails a later Fill with its error, never another Chunk requested.
func TestChunkErrorPropagates(t *testing.T) {
	boom := errors.New("input exploded")
	const capacity, z = 64, 16 // chunks of 8
	f := NewChunked(capacity, z, nil, func() (Chunk, error) { return Chunk{}, boom })
	defer f.Close()
	if _, _, err := f.NextRun(); !errors.Is(err, boom) {
		t.Fatalf("NextRun err = %v, want the source's error", err)
	}

	in := record.Make(500, z)
	record.Fill(in, record.Uniform{Seed: 1}, 0)
	next := chunkFeed(in, capacity, nil, new(int))
	handed, failed := 0, false
	flaky := func() (Chunk, error) {
		if failed {
			t.Fatal("the former asked for a chunk after the source failed")
		}
		if handed == 12 { // past the initial fill's eight
			failed = true
			return Chunk{}, boom
		}
		handed++
		return next()
	}
	f2 := NewChunked(capacity, z, nil, flaky)
	defer f2.Close()
	checkFailsInFill(t, f2, boom)
}

// checkFailsInFill drives f, whose input fails with boom after its initial
// fill, until a Fill returns boom.
func checkFailsInFill(t *testing.T, f *Former, boom error) {
	t.Helper()
	if _, ok, err := f.NextRun(); err != nil || !ok {
		t.Fatalf("NextRun = (ok=%v, err=%v), want a run", ok, err)
	}
	buf := record.Make(64, f.arena.Size)
	for {
		m, err := f.Fill(buf)
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("Fill err = %v, want the input's error", err)
			}
			return
		}
		if m == 0 { // run boundary before the error point: start the next run
			if _, ok, err := f.NextRun(); err != nil || !ok {
				t.Fatalf("NextRun = (ok=%v, err=%v) before the input's error surfaced", ok, err)
			}
		}
	}
}

// oracleInputs are the distributions the differential table and the
// benchmarks draw from. The "dup" inputs have only four distinct key
// prefixes — 0, 1, MaxKey−1, MaxKey — so nearly every match is a prefix tie
// and live records carry the very prefix an exhausted mini-run plays (MaxKey
// ascending, 0 descending); the "-down" ones step down through them once,
// which tips later runs descending. The "twins" inputs are those records
// with the payload zeroed — four distinct records in all — so the mini-runs
// tie on whole records (which one emits decides which page frees first) and
// arrivals equal to a run's last record must join it in both directions.
// The "k-disordered" input is in order but for inversions within 64
// positions; the "outliers" ones are in order (descending: "-down") but for
// one record in 16 with a random key, so the mini-run that holds a key range
// wins long streaks broken at random and pages free out of step with them:
// chunks are admitted in the middle of a streak.
var oracleInputs = []struct {
	name string
	gen  func(rec []byte, i, n int)
}{
	{"uniform", func(rec []byte, i, n int) { record.Uniform{Seed: 5}.Gen(rec, int64(i)) }},
	{"sorted", func(rec []byte, i, n int) { record.Sorted{Seed: 5}.Gen(rec, int64(i)) }},
	{"reverse", func(rec []byte, i, n int) { record.Reverse{Seed: 5}.Gen(rec, int64(i)) }},
	{"nearly-sorted", func(rec []byte, i, n int) { record.NearlySorted{Seed: 5, Window: 64}.Gen(rec, int64(i)) }},
	{"nearly-reverse", func(rec []byte, i, n int) { record.NearlyReverse{Seed: 5, Window: 64}.Gen(rec, int64(i)) }},
	{"k-disordered", func(rec []byte, i, n int) { record.Disordered{Seed: 5, K: 64}.Gen(rec, int64(i)) }},
	{"outliers", func(rec []byte, i, n int) {
		record.Uniform{Seed: 5}.Gen(rec, int64(i))
		if rec[record.KeyBytes]%16 != 0 {
			record.PutKey(rec, uint64(i)<<40)
		}
	}},
	{"outliers-down", func(rec []byte, i, n int) {
		record.Uniform{Seed: 5}.Gen(rec, int64(i))
		if rec[record.KeyBytes]%16 != 0 {
			record.PutKey(rec, uint64(n-i)<<40)
		}
	}},
	{"dup", func(rec []byte, i, n int) {
		record.Uniform{Seed: 5}.Gen(rec, int64(i))
		record.PutKey(rec, dupPrefixes[rec[0]&3])
	}},
	{"dup-down", func(rec []byte, i, n int) {
		record.Uniform{Seed: 5}.Gen(rec, int64(i))
		record.PutKey(rec, dupPrefixes[3-4*i/n])
	}},
	{"twins", func(rec []byte, i, n int) {
		record.Uniform{Seed: 5}.Gen(rec, int64(i))
		k := dupPrefixes[rec[0]&3]
		clear(rec)
		record.PutKey(rec, k)
	}},
	{"twins-down", func(rec []byte, i, n int) {
		clear(rec)
		record.PutKey(rec, dupPrefixes[3-4*i/n])
	}},
}

var dupPrefixes = [4]uint64{0, 1, record.MaxKey - 1, record.MaxKey}

func makeInput(gen func(rec []byte, i, n int), n, z int) record.Slice {
	in := record.Make(n, z)
	for i := 0; i < n; i++ {
		gen(in.Record(i), i, n)
	}
	return in
}

// sameRuns requires got to equal the reference runs (the batched oracle's,
// or the other feed's) in direction, length and bytes.
func sameRuns(t testing.TB, got, want []formedRun) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("formed %d runs, the reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].desc != want[i].desc || got[i].recs.Len() != want[i].recs.Len() {
			t.Fatalf("run %d: desc=%v len=%d, the reference desc=%v len=%d",
				i, got[i].desc, got[i].recs.Len(), want[i].desc, want[i].recs.Len())
		}
		if !bytes.Equal(got[i].recs.Data, want[i].recs.Data) {
			t.Fatalf("run %d: bytes differ from the reference's", i)
		}
	}
}

// withinHeapYardstick requires got to form no more than ¼ more runs (plus
// one) than classic replacement selection — heapFormer — over the same
// input and break points: the run lengths batching may give up.
func withinHeapYardstick(t testing.TB, got, heap []formedRun) {
	t.Helper()
	if h := len(heap); len(got) > h+(h+3)/4+1 {
		t.Fatalf("formed %d runs, classic replacement selection %d: more than %d + ⌈%d/4⌉ + 1", len(got), h, h, h)
	}
}

// TestOracleDifferential: the Former, fed record by record and by sorted
// chunks, and the naive spelling of its definition (batchOracle) emit the
// same runs — same direction, same length, same bytes — on every
// distribution, at degenerate and odd capacities, at the input lengths
// around a capacity boundary and a chunk boundary (k·C, k·C − 1, under C,
// none), with and without BreakRun injected at seeded points; and it forms
// at most ¼ more runs (plus one) than the classic heap former on each. The
// inputs must take the Former's tree through every case of its skipped
// replays (as the oracle counts them): skips, a chunk admitted while the
// winner skips, skips in a descending run, and keys tied with the bound.
func TestOracleDifferential(t *testing.T) {
	var skips, skipAdmits, descSkips, bounds int
	defer func() {
		t.Logf("skipped replays: %d, %d of them admitting a chunk, %d descending; %d keys tied with the bound", skips, skipAdmits, descSkips, bounds)
		if skipAdmits == 0 || descSkips == 0 || bounds == 0 {
			t.Error("a case of the skipped replays went untested")
		}
	}()
	for _, in := range oracleInputs {
		t.Run(in.name, func(t *testing.T) {
			sawDesc := false
			for _, capacity := range []int{1, 2, 3, 5, 1000, 4096} {
				c := ChunkLen(capacity)
				for _, z := range []int{16, 64} {
					for _, n := range []int{0, 1, c - 1, 3 * c, 3*c - 1, capacity - 1, capacity, capacity + 1, 7*capacity + 321} {
						src := makeInput(in.gen, n, z)
						for _, breaks := range []bool{false, true} {
							// Break points are a function of (seed, records
							// emitted), so every former is cut at the same ones.
							breakAt := func() func(int, int) bool {
								if !breaks {
									return nil
								}
								rng := rand.New(rand.NewSource(int64(capacity*131 + n)))
								next := rng.Intn(2*capacity + 1)
								return func(emitted, _ int) bool {
									if emitted < next {
										return false
									}
									next = emitted + 1 + rng.Intn(3*capacity)
									return true
								}
							}
							tc := inCase{t, fmt.Sprintf("cap=%d z=%d n=%d breaks=%v", capacity, z, n, breaks)}
							o := newBatchOracle(capacity, z, sliceReader(src, new(int)))
							want := drive(tc, o, z, 37, breakAt())
							skips, skipAdmits, descSkips, bounds = skips+o.skips, skipAdmits+o.skipAdmits, descSkips+o.descSkips, bounds+o.bounds
							heap := drive(tc, newHeapFormer(capacity, z, nil, sliceReader(src, new(int))), z, 37, breakAt())
							for _, feed := range feeds {
								tc := inCase{t, tc.name + " feed=" + feed.name}
								read := 0
								got := drive(tc, feed.new(capacity, src, nil, &read), z, 37, breakAt())
								if read != n {
									tc.Fatalf("the former read %d records", read)
								}
								checkRuns(tc, src, got)
								sameRuns(tc, got, want)
								withinHeapYardstick(tc, got, heap)
								for _, r := range got {
									sawDesc = sawDesc || r.desc
								}
							}
						}
					}
				}
			}
			if strings.HasSuffix(in.name, "-down") && !sawDesc {
				t.Error("no descending run formed: the descending tie path went untested")
			}
		})
	}
}

// TestDirectionAcrossChunkBoundary pins which key steps the direction
// heuristic counts, at a capacity of 8 (one-record chunks, so every step is
// a chunk boundary): not the step into the first chunk admitted after
// NextRun resets the tally, which reaches back to an arrival of the previous
// tally, and every step after it. Run 1 ascends over 100..107 and admits
// 50, then seven x; with x = 50 run 2 has no counted step and ascends,
// with x = 40 it has one downward step and descends — where counting the
// reset's boundary step (107 → 50) would make both descend.
func TestDirectionAcrossChunkBoundary(t *testing.T) {
	const capacity, z = 8, 16
	for _, tc := range []struct {
		x    uint64
		desc bool
	}{{50, false}, {40, true}} {
		in := record.Make(16, z)
		for i := 0; i < in.Len(); i++ {
			key := tc.x
			switch {
			case i < 8:
				key = 100 + uint64(i)
			case i == 8:
				key = 50
			}
			in.SetKey(i, key)
			in.Record(i)[record.KeyBytes] = byte(i) // equal keys still order their records
		}
		want := drive(t, newBatchOracle(capacity, z, sliceReader(in, new(int))), z, 5, nil)
		if len(want) != 2 || want[0].desc || want[1].desc != tc.desc {
			t.Fatalf("x = %d: the batched oracle formed %d runs, want run 1 ascending and run 2 desc=%v", tc.x, len(want), tc.desc)
		}
		for _, feed := range feeds {
			sameRuns(inCase{t, fmt.Sprintf("x=%d feed=%s", tc.x, feed.name)}, drive(t, feed.new(capacity, in, nil, new(int)), z, 5, nil), want)
		}
	}
}

// chunkShapes are the arrivals whose keys decide how SortChunk sorts them:
// strictly rising (the chunk is the arrivals themselves), strictly falling
// (a reversal), and rising but for one flat step, whose two records only
// their payloads order — here against their arrival order.
var chunkShapes = []struct {
	name string
	gen  func(rec []byte, i, n int)
}{
	{"rising", func(rec []byte, i, n int) {
		record.Uniform{Seed: 6}.Gen(rec, int64(i))
		record.PutKey(rec, uint64(3*i))
	}},
	{"falling", func(rec []byte, i, n int) {
		record.Uniform{Seed: 6}.Gen(rec, int64(i))
		record.PutKey(rec, uint64(3*(n-i)))
	}},
	{"one-flat-step", func(rec []byte, i, n int) {
		k := 3 * i
		if i > 0 && i >= n/2 {
			k -= 3 // record n/2 ties record n/2 − 1, and its payload is below that one's
		}
		clear(rec)
		rec[record.KeyBytes] = byte(^i)
		record.PutKey(rec, uint64(k))
	}},
}

// TestSortChunkTally holds SortChunk's tally — first and last key, up- and
// down-steps in arrival order — to the definition, and its chunk to
// introsort's sort of the arrivals, on every input shape and at the lengths
// where a chunk has no step or one; it must hand back the arrivals
// themselves exactly when their keys all rise.
func TestSortChunkTally(t *testing.T) {
	var sc sortalg.Scratch
	for _, in := range append(oracleInputs[:len(oracleInputs):len(oracleInputs)], chunkShapes...) {
		for _, n := range []int{0, 1, 2, 3, 1000} {
			src := makeInput(in.gen, n, 16)
			var want Chunk
			if n > 0 {
				want.First, want.Last = src.Key(0), src.Key(n-1)
			}
			for i := 1; i < n; i++ {
				if a, b := src.Key(i-1), src.Key(i); b > a {
					want.Ups++
				} else if b < a {
					want.Downs++
				}
			}
			sorted := record.Make(n, 16)
			sortalg.SortIntoAlg(sorted, src, sortalg.Intro)
			got, inPlace := SortChunk(&sc, record.Make(n, 16), src)
			if got.First != want.First || got.Last != want.Last || got.Ups != want.Ups || got.Downs != want.Downs {
				t.Fatalf("%s n=%d: tally %d/%d ups/downs, keys %x..%x; want %d/%d, %x..%x", in.name, n,
					got.Ups, got.Downs, got.First, got.Last, want.Ups, want.Downs, want.First, want.Last)
			}
			if !bytes.Equal(got.Recs.Data, sorted.Data) {
				t.Fatalf("%s n=%d: chunk differs from introsort's", in.name, n)
			}
			if rising := n > 0 && want.Ups == int64(n-1); inPlace != rising || inPlace && &got.Recs.Data[0] != &src.Data[0] {
				t.Fatalf("%s n=%d: inPlace=%v, want %v and the chunk to be the arrivals' own buffer", in.name, n, inPlace, rising)
			}
		}
	}
}

// inCase prefixes a table case's failures with its parameters.
type inCase struct {
	testing.TB
	name string
}

func (c inCase) Fatalf(format string, args ...any) {
	c.Helper()
	c.TB.Fatalf(c.name+": "+format, args...)
}

// FuzzFormer: arbitrary records (drawn from few prefixes, so ties and the
// maximal-prefix cases are common), capacity and break cadence, checked by
// checkFormer; nothing panics.
func FuzzFormer(f *testing.F) {
	f.Add([]byte{}, uint16(4), uint8(0))
	f.Add([]byte("\x07a\x07b\x00c\x07a\x06z\x00c\x07a"), uint16(3), uint8(2))
	f.Add([]byte("9876543210zyxwvutsrqponmlkjihgfedcba"), uint16(5), uint8(0))
	f.Add([]byte("abcabcabcabcabcabc"), uint16(1), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, width uint16, breakEvery uint8) {
		checkFormer(t, data, int(width%300), int(breakEvery)) // wider arenas are the table's job; keep execs fast
	})
}

// TestFormerFillCadence runs checkFormer on the shapes where a cut every k-th
// Fill makes the Former form more runs than the heap former's yardstick
// allows (570 records at capacity 97 cut every 25 fills: 7 runs against 4),
// though it forms the oracle's runs: sawtooth inputs, ramps of the given
// step that alternate direction every block bytes.
func TestFormerFillCadence(t *testing.T) {
	for _, tc := range []struct{ n, width, every, block, step int }{
		{570, 97, 25, 2, 3},
		{563, 30, 9, 2, 1},
		{300, 50, 13, 11, 7},
	} {
		t.Run(fmt.Sprintf("n=%d/width=%d/every=%d", tc.n, tc.width, tc.every), func(t *testing.T) {
			data := make([]byte, 2*tc.n)
			for i := range data {
				data[i] = byte(i * tc.step)
				if (i/tc.block)%2 == 1 {
					data[i] = 255 - data[i]
				}
			}
			checkFormer(t, data, tc.width, tc.every)
		})
	}
}

// checkFormer decodes data into records (two bytes each: one of eight key
// prefixes, then a tie-breaking byte) and forms them at the given capacity,
// fed either way. With a BreakRun every breakEvery-th Fill (0: none), every
// run is monotone in its declared direction, the multiset is preserved and
// the runs equal the batched oracle's. The run count is held to the heap
// former's yardstick only where the formers are cut alike: a cut at a Fill
// count lands at a different point of each former's runs and can add a short
// run per cut, so the yardstick drives are uncut, or cut where production
// cuts, once a run reaches twice the capacity (hier.go).
func checkFormer(t *testing.T, data []byte, capacity, breakEvery int) {
	const z = 16
	prefixes := [8]uint64{0, 1, 2, 1 << 32, 1 << 63, record.MaxKey - 2, record.MaxKey - 1, record.MaxKey}
	in := record.Make(len(data)/2, z)
	for i := 0; i < in.Len(); i++ {
		in.SetKey(i, prefixes[data[2*i]&7])
		in.Record(i)[record.KeyBytes] = data[2*i+1]
	}
	cadence := func() func(int, int) bool {
		fills := 0
		return func(int, int) bool {
			fills++
			return breakEvery > 0 && fills%breakEvery == 0
		}
	}
	want := drive(t, newBatchOracle(capacity, z, sliceReader(in, new(int))), z, 7, cadence())
	got := make([][]formedRun, len(feeds))
	for i, feed := range feeds {
		got[i] = drive(t, feed.new(capacity, in, nil, new(int)), z, 7, cadence())
		checkRuns(t, in, got[i])
		sameRuns(t, got[i], want)
	}
	var byLength func(int, int) bool
	if breakEvery > 0 {
		byLength = func(_, run int) bool { return run >= 2*max(capacity, 1) }
		for i, feed := range feeds {
			got[i] = drive(t, feed.new(capacity, in, nil, new(int)), z, 7, byLength)
		}
	}
	heap := drive(t, newHeapFormer(capacity, z, nil, sliceReader(in, new(int))), z, 7, byLength)
	for i := range feeds {
		withinHeapYardstick(t, got[i], heap)
	}
}

// TestFillAllocsPerRun: a steady-state Fill touches the allocator not at all,
// fed either way: an admitted chunk's buffer goes back to the pool the next
// chunk comes from.
func TestFillAllocsPerRun(t *testing.T) {
	const capacity, z = 1 << 10, 64
	src := makeInput(oracleInputs[0].gen, 64*capacity, z)
	pool := record.NewPool()
	for _, feed := range feeds {
		f := feed.new(capacity, src, pool, new(int))
		defer f.Close()
		buf := record.Make(ChunkLen(capacity), z) // every Fill admits a chunk
		fill := func() {
			n, err := f.Fill(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				if _, ok, err := f.NextRun(); err != nil || !ok {
					t.Fatalf("NextRun = (ok=%v, err=%v) with input left", ok, err)
				}
			}
		}
		fill() // first run started
		if allocs := testing.AllocsPerRun(200, fill); allocs != 0 {
			t.Errorf("fed by %s: %v allocs per steady-state Fill, want 0", feed.name, allocs)
		}
	}
}

// heapFormer is the binary-heap replacement-selection former this package
// shipped first, kept verbatim (minus its unused Consumed counter) as classic
// replacement selection: the run-count yardstick the batched Former is held
// to (withinHeapYardstick).
type heapFormer struct {
	z        int
	capacity int
	pool     *record.Pool
	read     func(rec []byte) (bool, error)

	arena record.Slice // the capacity resident records, indexed by slot
	keys  []uint64     // cached 8-byte big-endian prefix per slot

	heap    []int32 // slots of the current run, ordered by (prefix, full bytes)
	pending []int32 // arrivals deferred to the next run (they would break this one)

	desc     bool   // current run emits in descending order
	last     []byte // copy of the record most recently emitted into the current run
	haveLast bool

	// Direction heuristic state: up/down key steps between consecutive
	// arrivals since the previous run started (the initial fill, for run 1).
	// The next run goes descending only on a decisive supermajority of
	// downward steps; anything noisier defaults to ascending.
	ups, downs int64
	prevKey    uint64
	haveSeen   bool

	eof     bool
	started bool
}

func newHeapFormer(capacity, z int, pool *record.Pool, read func(rec []byte) (bool, error)) *heapFormer {
	if capacity < 1 {
		capacity = 1
	}
	f := &heapFormer{
		z:        z,
		capacity: capacity,
		pool:     pool,
		read:     read,
		keys:     make([]uint64, capacity),
		heap:     make([]int32, 0, capacity),
		pending:  make([]int32, 0, capacity),
		last:     make([]byte, z),
	}
	f.arena = pool.Get(capacity, z)
	return f
}

// Close returns the arena to the pool. The Former must not be used after.
func (f *heapFormer) Close() {
	if f.arena.Data != nil {
		f.pool.Put(f.arena)
		f.arena = record.Slice{}
	}
}

// readInto refills slot from the input, caching its key prefix and feeding
// the direction heuristic. Returns false (and latches eof) at end of stream.
func (f *heapFormer) readInto(slot int32) (bool, error) {
	rec := f.arena.Record(int(slot))
	ok, err := f.read(rec)
	if err != nil {
		return false, err
	}
	if !ok {
		f.eof = true
		return false, nil
	}
	k := binary.BigEndian.Uint64(rec)
	f.keys[slot] = k
	if f.haveSeen {
		if k > f.prevKey {
			f.ups++
		} else if k < f.prevKey {
			f.downs++
		}
	}
	f.prevKey = k
	f.haveSeen = true
	return true, nil
}

// NextRun starts the next run, choosing its direction from the arrival
// drift, and returns that direction. ok is false when the input is
// exhausted and every resident record has been emitted.
func (f *heapFormer) NextRun() (desc, ok bool, err error) {
	if !f.started {
		f.started = true
		for i := 0; i < f.capacity && !f.eof; i++ {
			ok, err := f.readInto(int32(i))
			if err != nil {
				return false, false, err
			}
			if !ok {
				break
			}
			f.pending = append(f.pending, int32(i))
		}
	}
	if len(f.pending) == 0 {
		return false, false, nil
	}
	f.desc = f.downs > 4*f.ups
	f.ups, f.downs, f.haveSeen = 0, 0, false
	f.heap, f.pending = f.pending, f.heap[:0]
	f.heapify()
	f.haveLast = false
	return f.desc, true, nil
}

// Fill emits up to out.Len() records of the current run, in the run's
// direction, replacing each emitted record from the input. It returns 0
// when the run is complete (call NextRun for the next one).
func (f *heapFormer) Fill(out record.Slice) (int, error) {
	n := 0
	for n < out.Len() && len(f.heap) > 0 {
		slot := f.heap[0]
		rec := f.arena.Record(int(slot))
		copy(out.Record(n), rec)
		copy(f.last, rec)
		f.haveLast = true
		n++
		if !f.eof {
			ok, err := f.readInto(slot)
			if err != nil {
				return n, err
			}
			if ok {
				if f.extends(f.arena.Record(int(slot))) {
					// The arrival replaces the emitted root in place.
					f.siftDown(0)
					continue
				}
				f.pending = append(f.pending, slot)
			}
		}
		// Pop the root: the slot now belongs to pending (or is dead at EOF).
		top := len(f.heap) - 1
		f.heap[0] = f.heap[top]
		f.heap = f.heap[:top]
		if len(f.heap) > 1 {
			f.siftDown(0)
		}
	}
	return n, nil
}

// BreakRun force-ends the current run: every resident record is deferred
// to the next run, so the next Fill returns 0. Callers use it to bound run
// length when each spilled run must also be retained in memory for redo.
func (f *heapFormer) BreakRun() {
	f.pending = append(f.pending, f.heap...)
	f.heap = f.heap[:0]
}

// extends reports whether rec can join the current run after the last
// emitted record without violating the run's direction.
func (f *heapFormer) extends(rec []byte) bool {
	if !f.haveLast {
		return true
	}
	k := binary.BigEndian.Uint64(rec)
	lk := binary.BigEndian.Uint64(f.last)
	if k != lk {
		if f.desc {
			return k < lk
		}
		return k > lk
	}
	c := bytes.Compare(rec, f.last)
	if f.desc {
		return c <= 0
	}
	return c >= 0
}

// less orders two slots by the current run's direction: cached prefixes
// first, full normalized bytes only on prefix ties.
func (f *heapFormer) less(a, b int32) bool {
	ka, kb := f.keys[a], f.keys[b]
	if ka != kb {
		if f.desc {
			return ka > kb
		}
		return ka < kb
	}
	c := bytes.Compare(f.arena.Record(int(a)), f.arena.Record(int(b)))
	if f.desc {
		return c > 0
	}
	return c < 0
}

func (f *heapFormer) heapify() {
	for i := len(f.heap)/2 - 1; i >= 0; i-- {
		f.siftDown(i)
	}
}

func (f *heapFormer) siftDown(i int) {
	h := f.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && f.less(h[r], h[l]) {
			m = r
		}
		if !f.less(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
