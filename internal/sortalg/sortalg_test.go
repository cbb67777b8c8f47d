package sortalg

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"colsort/internal/record"
)

func fillRandom(s record.Slice, seed uint64) {
	record.Fill(s, record.Uniform{Seed: seed}, 0)
}

func checksum(s record.Slice) record.Checksum {
	var c record.Checksum
	c.AddSlice(s)
	return c
}

func TestSortIntoAllAlgorithms(t *testing.T) {
	algs := []Algorithm{Intro, Radix}
	sizes := []int{0, 1, 2, 3, 15, 64, 257, 1000}
	gens := []record.Generator{
		record.Uniform{Seed: 1},
		record.Dup{Seed: 2, K: 3},
		record.Sorted{Seed: 3},
		record.Reverse{Seed: 4},
		record.NearlySorted{Seed: 5, Window: 16},
	}
	for _, alg := range algs {
		for _, n := range sizes {
			for _, g := range gens {
				src := record.Make(n, 16)
				record.Fill(src, g, 0)
				want := checksum(src)
				dst := record.Make(n, 16)
				SortIntoAlg(dst, src, alg)
				if !dst.IsSorted() {
					t.Fatalf("%v n=%d gen=%s: not sorted", alg, n, g.Name())
				}
				if !checksum(dst).Equal(want) {
					t.Fatalf("%v n=%d gen=%s: multiset changed", alg, n, g.Name())
				}
			}
		}
	}
}

func TestAlgorithmsAgreeExactly(t *testing.T) {
	// With the payload tie-break total order, all algorithms must produce
	// byte-identical outputs, even with heavy duplication.
	src := record.Make(512, 32)
	record.Fill(src, record.Dup{Seed: 7, K: 5}, 0)
	ref := record.Make(512, 32)
	SortIntoAlg(ref, src, Intro)
	dst := record.Make(512, 32)
	SortIntoAlg(dst, src, Radix)
	if !bytes.Equal(dst.Data, ref.Data) {
		t.Fatal("radix output differs from intro")
	}
	if !bytes.Equal(heapSortInto(src).Data, ref.Data) {
		t.Fatal("heapsort output differs from intro")
	}
}

func TestSortInPlace(t *testing.T) {
	s := record.Make(100, 16)
	fillRandom(s, 9)
	want := checksum(s)
	Sort(s)
	if !s.IsSorted() || !checksum(s).Equal(want) {
		t.Fatal("in-place Sort failed")
	}
}

func TestSortWideRecords(t *testing.T) {
	src := record.Make(300, 128)
	fillRandom(src, 11)
	dst := record.Make(300, 128)
	SortInto(dst, src)
	if !dst.IsSorted() {
		t.Fatal("wide-record sort not sorted")
	}
	if !checksum(dst).Equal(checksum(src)) {
		t.Fatal("wide-record sort changed multiset")
	}
}

func TestIntroQuicksortKiller(t *testing.T) {
	// Organ-pipe / many-equal patterns that degrade naive quicksort.
	n := 4096
	src := record.Make(n, 16)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			src.SetKey(i, uint64(i))
		} else {
			src.SetKey(i, uint64(n-i))
		}
	}
	dst := record.Make(n, 16)
	SortIntoAlg(dst, src, Intro)
	if !dst.IsSorted() {
		t.Fatal("introsort failed on organ-pipe input")
	}
	// All-equal keys.
	src.FillKey(42)
	SortIntoAlg(dst, src, Intro)
	if !dst.IsSorted() {
		t.Fatal("introsort failed on constant input")
	}
}

// kernelCases are the hand-built inputs that each steer radixKV down one of
// its paths; FuzzSortInto seeds its corpus from them too.
func kernelCases() map[string]record.Slice {
	const z = 16
	rng := rand.New(rand.NewSource(4))
	build := func(n int, key func(i int) uint64) record.Slice {
		s := record.Make(n, z)
		for i := 0; i < n; i++ {
			s.SetKey(i, key(i))
			binary.BigEndian.PutUint64(s.Record(i)[8:], uint64(rng.Int63n(5)))
		}
		return s
	}
	organ := func(i int) uint64 { // the quicksort killer of TestIntroQuicksortKiller
		if i%2 == 0 {
			return uint64(i)
		}
		return uint64(4096 - i)
	}
	ascending := func(swaps int) record.Slice {
		keys := make([]uint64, 4096)
		for i := range keys {
			keys[i] = uint64(i)<<20 | uint64(rng.Intn(1<<20))
		}
		for _, p := range rng.Perm(len(keys) / 2)[:swaps] {
			keys[2*p], keys[2*p+1] = keys[2*p+1], keys[2*p]
		}
		return build(len(keys), func(i int) uint64 { return keys[i] })
	}
	return map[string]record.Slice{
		// No key bit differs: the payload refinement alone orders them.
		"all-equal": build(1000, func(int) uint64 { return 42 }),
		// A digit narrower than lg n − 2: eight buckets, ties inside each.
		"low-3-bits": build(1000, func(int) uint64 { return 0xabcd0000 | uint64(rng.Intn(8)) }),
		// One bucket holds n−1 pairs: it must recurse on its own low bits.
		"two-clusters": build(5000, func(i int) uint64 {
			if i == 77 {
				return 3
			}
			return 1<<63 | uint64(rng.Intn(1<<20))
		}),
		// 48 shared prefix bits: the digit starts at bit 15, not bit 63.
		"common-prefix": build(1000, func(int) uint64 { return 0xfeedfacecafe0000 | uint64(rng.Intn(65536)) }),
		"organ-pipe":    build(4096, organ),
		// The two-digit level (d = 9 at n = 4096, on bits 46..63): every
		// eighth key shares its top 32 bits, a group of 512 equal on all 2d
		// bits that must recurse — on two digits of its own.
		"equal-digit-group": build(4096, func(i int) uint64 {
			if i%8 == 0 {
				return 0x12345678<<32 | uint64(rng.Uint32())
			}
			return rng.Uint64()
		}),
		// Keys of exactly 2d = 18 bits whose high digit is 0 or 511: each
		// high bucket holds ~2048 keys that differ only in the low digit, so
		// a second scatter that is not stable leaves them out of order.
		"high-equal-low-differs": build(4096, func(i int) uint64 {
			return uint64(i%2)*511<<9 | uint64(rng.Intn(512))
		}),
		// Keys of 14 bits: fewer than 2d = 18, so the level falls back to
		// one digit of lg n − 2 = 10 bits over buckets of four.
		"narrow-keys": build(4096, func(int) uint64 { return uint64(rng.Intn(1 << 14)) }),
		// Wide keys that come in ascending order: the one-digit level, whose
		// scatter streams, though the keys differ in 2d bits — and with
		// n/16 − 1 and n/16 neighbour pairs swapped, one fall each, the last
		// key count below and at the nearly-ordered cutoff.
		"ascending-wide":     ascending(0),
		"falls-under-cutoff": ascending(4096/16 - 1),
		"falls-at-cutoff":    ascending(4096 / 16),
		// n at the histograms' edge: at 128 pairs the two 2^6-counter
		// histograms take exactly n counters; at 127 they do not fit.
		"histogram-fits": build(128, func(int) uint64 { return rng.Uint64() }),
		"histogram-over": build(127, func(int) uint64 { return rng.Uint64() }),
	}
}

// TestKernelCasesSteer holds each case of kernelCases that was built for one
// first level to it, through the selection sortSlices and radixKV make: the
// digit width of the two-digit level, or 0 for the one-digit level.
func TestKernelCasesSteer(t *testing.T) {
	cases := kernelCases()
	for name, want := range map[string]int{
		"equal-digit-group":      9,
		"high-equal-low-differs": 9,
		"narrow-keys":            0,
		"ascending-wide":         0,
		"falls-under-cutoff":     0,
		"falls-at-cutoff":        9,
		"histogram-fits":         6,
		"histogram-over":         0,
	} {
		src := cases[name]
		diff, falls := extract(make([]kv, src.Len()), src)
		if got := lsdBits(src.Len(), bits.Len64(diff), nearlyOrdered(falls, src.Len())); got != want {
			t.Errorf("%s: first level takes digits of %d bits, want %d (0: one digit)", name, got, want)
		}
	}
}

func TestRadixSkipsUniformDigits(t *testing.T) {
	// Keys sharing their high 48 bits: the kernel's first (and only) digit
	// comes from the 16 bits that differ.
	src := kernelCases()["common-prefix"]
	and, or := ^uint64(0), uint64(0)
	for i := 0; i < src.Len(); i++ {
		and &= src.Key(i)
		or |= src.Key(i)
	}
	if top := bits.Len64(and ^ or); top != 16 {
		t.Fatalf("keys differ up to bit %d, want 16", top)
	}
	dst := record.Make(src.Len(), src.Size)
	SortIntoAlg(dst, src, Radix)
	if !bytes.Equal(dst.Data, referenceSort(src).Data) {
		t.Fatal("radix failed with identical high digits")
	}
}

// TestRadixKernelPaths runs the hand-built cases through the kernel and
// holds each against introsort and the stdlib reference, byte for byte.
func TestRadixKernelPaths(t *testing.T) {
	for name, src := range kernelCases() {
		want := referenceSort(src)
		for _, alg := range []Algorithm{Radix, Intro} {
			dst := record.Make(src.Len(), src.Size)
			SortIntoAlg(dst, src, alg)
			if !bytes.Equal(dst.Data, want.Data) {
				t.Errorf("%s: %v differs from the stdlib reference", name, alg)
			}
		}
	}
}

// TestRadixMatrix is the kernel's acceptance table: every generator at the
// lengths around its thresholds and at the column lengths the passes use.
func TestRadixMatrix(t *testing.T) {
	lens := []int{0, 1, 2, radixSmall, radixSmall + 1, 63, 64, 65, 4096, 16384, 65536}
	if testing.Short() {
		lens = lens[:len(lens)-2]
	}
	for _, name := range record.Names() {
		g, _ := record.ByName(name, 9)
		for _, n := range lens {
			for _, z := range []int{16, 64, 128} {
				src := record.Make(n, z)
				record.Fill(src, g, 0)
				intro, radix := record.Make(n, z), record.Make(n, z)
				SortIntoAlg(intro, src, Intro)
				SortIntoAlg(radix, src, Radix)
				if !bytes.Equal(radix.Data, intro.Data) {
					t.Fatalf("%s n=%d z=%d: radix differs from intro", name, n, z)
				}
				if !bytes.Equal(radix.Data, referenceSort(src).Data) {
					t.Fatalf("%s n=%d z=%d: radix differs from the stdlib reference", name, n, z)
				}
			}
		}
	}
}

// TestRadixLargeBucketRecurses: with all but one key in a far cluster, the
// first pass leaves one bucket of n−1 pairs. Finishing it by insertion would
// be quadratic (about 10⁹ comparisons here, a thousand times the uniform
// sort); the bound below only has to tell those apart.
func TestRadixLargeBucketRecurses(t *testing.T) {
	const n, z = 1 << 16, 16
	rng := rand.New(rand.NewSource(8))
	skew, flat := record.Make(n, z), record.Make(n, z)
	for i := 0; i < n; i++ {
		skew.SetKey(i, 1<<63|uint64(rng.Intn(1<<30)))
		flat.SetKey(i, rng.Uint64())
	}
	skew.SetKey(n/2, 1)
	dst := record.Make(n, z)
	var sc Scratch
	timeOf := func(src record.Slice) time.Duration {
		sc.SortInto(dst, src) // warm
		start := time.Now()
		sc.SortInto(dst, src)
		return time.Since(start)
	}
	base, got := timeOf(flat), timeOf(skew)
	if !dst.IsSorted() {
		t.Fatal("two-cluster input not sorted")
	}
	if got > 50*base+50*time.Millisecond {
		t.Fatalf("two-cluster sort took %v against %v uniform: the large bucket was not recursed on", got, base)
	}
}

func TestSortQuick(t *testing.T) {
	f := func(keys []uint64, algPick uint8) bool {
		alg := []Algorithm{Intro, Radix}[int(algPick)%2]
		src := record.Make(len(keys), 16)
		for i, k := range keys {
			src.SetKey(i, k)
		}
		want := checksum(src)
		dst := record.Make(len(keys), 16)
		SortIntoAlg(dst, src, alg)
		return dst.IsSorted() && checksum(dst).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSortIntoMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched buffers")
		}
	}()
	SortInto(record.Make(3, 16), record.Make(4, 16))
}

// TestMergeInto: a full-width MergeLow is the whole two-way merge.
func TestMergeInto(t *testing.T) {
	a := record.Make(10, 16)
	b := record.Make(15, 16)
	fillRandom(a, 1)
	fillRandom(b, 2)
	Sort(a)
	Sort(b)
	dst := record.Make(25, 16)
	MergeLow(dst, a, b)
	if !dst.IsSorted() {
		t.Fatal("MergeInto not sorted")
	}
	want := checksum(a)
	want.Merge(checksum(b))
	if !checksum(dst).Equal(want) {
		t.Fatal("MergeInto changed multiset")
	}
}

func TestMergeIntoEmptyHalves(t *testing.T) {
	a := record.Make(0, 16)
	b := record.Make(5, 16)
	fillRandom(b, 3)
	Sort(b)
	dst := record.Make(5, 16)
	MergeLow(dst, a, b)
	if !dst.IsSorted() {
		t.Fatal("MergeInto with empty a failed")
	}
	MergeLow(dst, b, a)
	if !dst.IsSorted() {
		t.Fatal("MergeInto with empty b failed")
	}
}

func TestMergeRunsContiguous(t *testing.T) {
	// Build a buffer of k sorted contiguous runs and merge.
	for _, k := range []int{1, 2, 3, 8, 16} {
		n := k * 32
		src := record.Make(n, 16)
		fillRandom(src, uint64(k))
		for i := 0; i < k; i++ {
			Sort(src.Sub(i*32, (i+1)*32))
		}
		want := checksum(src)
		dst := record.Make(n, 16)
		new(Scratch).MergeRunsInto(dst, src, ContiguousRuns(n, k))
		if !dst.IsSorted() {
			t.Fatalf("k=%d: merge of contiguous runs not sorted", k)
		}
		if !checksum(dst).Equal(want) {
			t.Fatalf("k=%d: merge changed multiset", k)
		}
	}
}

// TestMergeRunsStrided: the strided runs a round-robin deal leaves — lane d
// holds ranks d, d+k, d+2k, … — merge back into the sort, and a merge dealt
// over k lanes deals exactly as the sort does.
func TestMergeRunsStrided(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, 8 * 64, 8*64 + 5} {
			src := record.Make(n, 16)
			fillRandom(src, uint64(n+k))
			want := record.Make(n, 16)
			SortInto(want, src)
			var sc Scratch
			lanes := dealLanes(n, k, 16)
			sc.SortSlices(lanes, true, src)
			for d, l := range lanes {
				for i := 0; i < l.Len(); i++ {
					if !bytes.Equal(l.Record(i), want.Record(d+i*k)) {
						t.Fatalf("k=%d n=%d: lane %d position %d is not rank %d", k, n, d, i, d+i*k)
					}
				}
			}
			got := record.Make(n, 16)
			sc.MergeSlices([]record.Slice{got}, false, lanes)
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("k=%d n=%d: merge of the dealt lanes is not the sort", k, n)
			}
			again := dealLanes(n, k, 16)
			sc.MergeSlices(again, true, lanes)
			for d := range lanes {
				if !bytes.Equal(again[d].Data, lanes[d].Data) {
					t.Fatalf("k=%d n=%d: a dealt merge differs from the dealt sort in lane %d", k, n, d)
				}
			}
		}
	}
}

// dealLanes makes the k lanes a deal of n records of size z fills.
// TestSortSlicesFilled: sorted into lanes filled one after another — of any
// lengths, empty ones included, the layout a caller gets when the free
// space it sorts into lies in pieces — the records are the sort, cut at the
// lanes' boundaries.
func TestSortSlicesFilled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(3000)
		src := record.Make(n, 32)
		fillRandom(src, uint64(trial))
		want := record.Make(n, 32)
		SortInto(want, src)
		var lanes []record.Slice
		for left := n; left > 0 || len(lanes) == 0; {
			l := min(left, rng.Intn(300))
			lanes = append(lanes, record.Make(l, 32))
			left -= l
		}
		var sc Scratch
		sc.SortSlices(lanes, false, src)
		var got []byte
		for _, l := range lanes {
			got = append(got, l.Data...)
		}
		if !bytes.Equal(got, want.Data) {
			t.Fatalf("n=%d over %d lanes: the filled lanes are not the sort", n, len(lanes))
		}
	}
}

func dealLanes(n, k, z int) []record.Slice {
	lanes := make([]record.Slice, k)
	for d := range lanes {
		lanes[d] = record.Make((n-d+k-1)/k, z)
	}
	return lanes
}

func TestLoserTreeMatchesHeapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		k := 3 + rng.Intn(14)
		per := 1 + rng.Intn(40)
		n := k * per
		src := record.Make(n, 16)
		fillRandom(src, uint64(trial))
		runs := ContiguousRuns(n, k)
		for i := 0; i < k; i++ {
			Sort(src.Sub(i*per, (i+1)*per))
		}
		a := record.Make(n, 16)
		b := record.Make(n, 16)
		new(Scratch).MergeRunsInto(a, src, runs)
		heapMerge(b, cut(src, runs))
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("trial %d: loser tree and heap merge disagree at byte %d", trial, i)
			}
		}
	}
}

func TestMergeRunsWithEmptyRuns(t *testing.T) {
	src := record.Make(10, 16)
	fillRandom(src, 8)
	Sort(src)
	runs := []Run{{0, 4}, {Start: 4, Count: 0}, {4, 6}, {Start: 0, Count: 0}}
	dst := record.Make(10, 16)
	new(Scratch).MergeRunsInto(dst, src, runs)
	if !dst.IsSorted() {
		t.Fatal("merge with empty runs failed")
	}
}

func TestMergeRunsCoverageMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad run coverage")
		}
	}()
	src := record.Make(10, 16)
	dst := record.Make(10, 16)
	new(Scratch).MergeRunsInto(dst, src, []Run{{0, 4}})
}

func TestRunValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range run")
		}
	}()
	src := record.Make(4, 16)
	dst := record.Make(4, 16)
	new(Scratch).MergeRunsInto(dst, src, []Run{{Start: 2, Count: 4}})
}

func TestDetectRuns(t *testing.T) {
	s := record.Make(9, 16)
	keys := []uint64{1, 3, 5, 2, 4, 0, 9, 9, 9}
	for i, k := range keys {
		s.SetKey(i, k)
	}
	runs := detectRuns(s)
	want := []Run{{0, 3}, {3, 2}, {5, 4}}
	if len(runs) != len(want) {
		t.Fatalf("got %d runs %v, want %v", len(runs), runs, want)
	}
	for i := range runs {
		if runs[i] != want[i] {
			t.Fatalf("run %d = %+v, want %+v", i, runs[i], want[i])
		}
	}
	if got := detectRuns(record.Make(0, 16)); got != nil {
		t.Fatal("detectRuns on empty should be nil")
	}
}

func TestDetectRunsThenMergeEqualsSort(t *testing.T) {
	f := func(keys []uint64) bool {
		src := record.Make(len(keys), 16)
		for i, k := range keys {
			src.SetKey(i, k)
		}
		dst := record.Make(len(keys), 16)
		if len(keys) == 0 {
			return true
		}
		new(Scratch).MergeRunsInto(dst, src, detectRuns(src))
		return dst.IsSorted()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmString(t *testing.T) {
	if Intro.String() != "intro" || Radix.String() != "radix" {
		t.Fatal("Algorithm.String wrong")
	}
	if Algorithm(99).String() != "Algorithm(99)" {
		t.Fatal("unknown Algorithm.String wrong")
	}
}
