package sortalg

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"colsort/internal/record"
)

// The record populations the merge is fuzzed on, as internal/incore's run-hint
// tests sort them: each stresses a different tie path (prefix ties resolved on
// payload, exact duplicates resolved on run order, live all-ones keys against
// the exhausted-run sentinel).
const (
	popUniform = iota
	popFewKeys
	popAllEqual
	popExtremeKeys
	nPops
)

// population returns n sorted 16-byte records of the given population.
func population(n, pop int, rng *rand.Rand) record.Slice {
	s := record.Make(n, 16)
	for i := 0; i < n; i++ {
		payload := s.Record(i)[record.KeyBytes:]
		switch pop {
		case popUniform:
			s.SetKey(i, rng.Uint64())
			binary.BigEndian.PutUint64(payload, rng.Uint64())
		case popFewKeys:
			s.SetKey(i, uint64(rng.Intn(3)))
			binary.BigEndian.PutUint64(payload, uint64(rng.Intn(3)))
		case popAllEqual:
			// zero records: every comparison ties down to the last byte
		case popExtremeKeys:
			s.SetKey(i, record.MaxKey*uint64(rng.Intn(2)))
			binary.BigEndian.PutUint64(payload, uint64(rng.Intn(2)))
		}
	}
	Sort(s)
	return s
}

// FuzzMergeSlices holds the k-way merge to the heap oracle on 1 ≤ k ≤ 64
// sorted slices, empty ones included, with its output filled over lanes of
// arbitrary lengths and dealt round-robin; and both half merges to the halves
// of the full merge of two of the slices, MergeHigh also in place.
func FuzzMergeSlices(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(popUniform), uint8(0), uint8(7), uint16(0))
	f.Add(uint64(2), uint8(15), uint8(popFewKeys), uint8(3), uint8(40), uint16(9))
	f.Add(uint64(3), uint8(63), uint8(popAllEqual), uint8(7), uint8(3), uint16(100))
	f.Add(uint64(4), uint8(31), uint8(popExtremeKeys), uint8(2), uint8(20), uint16(5))
	f.Fuzz(func(t *testing.T, seed uint64, kSel, pop, laneSel, lenSel uint8, hSel uint16) {
		rng := rand.New(rand.NewSource(int64(seed)))
		k, L, maxLen := 1+int(kSel)%64, 1+int(laneSel)%8, int(lenSel)%64
		runs := make([]record.Slice, k)
		total := 0
		for i := range runs {
			n := 0
			if rng.Intn(4) != 0 { // a quarter of the runs stay empty
				n = rng.Intn(maxLen + 1)
			}
			runs[i] = population(n, int(pop)%nPops, rng)
			total += n
		}
		want := record.Make(total, 16)
		heapMerge(want, runs)
		var sc Scratch

		// Filled one after another, over lanes cut at random points.
		lanes, off := make([]record.Slice, L), 0
		for d := range lanes {
			n := total - off
			if d < L-1 {
				n = rng.Intn(n + 1)
			}
			lanes[d] = record.Make(n, 16)
			off += n
		}
		sc.MergeSlices(lanes, false, runs)
		var got []byte
		for _, l := range lanes {
			got = append(got, l.Data...)
		}
		if !bytes.Equal(got, want.Data) {
			t.Fatalf("k=%d over %d filled lanes: differs from the heap merge", k, L)
		}

		// Dealt: lane d holds ranks d, d+L, d+2L, ….
		dealt := dealLanes(total, L, 16)
		sc.MergeSlices(dealt, true, runs)
		for i := 0; i < total; i++ {
			if !bytes.Equal(dealt[i%L].Record(i/L), want.Record(i)) {
				t.Fatalf("k=%d dealt over %d lanes: rank %d misplaced", k, L, i)
			}
		}

		// Half merges of the first and last slice against the full merge.
		a, b := runs[0], runs[k-1]
		if k == 1 {
			b = record.Make(0, 16)
		}
		full := record.Make(a.Len()+b.Len(), 16)
		heapMerge(full, []record.Slice{a, b})
		h := int(hSel) % (full.Len() + 1)
		low, high := record.Make(h, 16), record.Make(full.Len()-h, 16)
		MergeLow(low, a, b)
		MergeHigh(high, a, b)
		if !bytes.Equal(low.Data, full.Sub(0, h).Data) || !bytes.Equal(high.Data, full.Sub(h, full.Len()).Data) {
			t.Fatalf("|a|=%d |b|=%d h=%d: half merges are not the halves of the merge", a.Len(), b.Len(), h)
		}
		inPlace := record.Make(b.Len(), 16)
		inPlace.Copy(b)
		MergeHigh(inPlace, a, inPlace)
		if !bytes.Equal(inPlace.Data, full.Sub(a.Len(), full.Len()).Data) {
			t.Fatalf("|a|=%d |b|=%d: in-place MergeHigh is not the high half", a.Len(), b.Len())
		}
	})
}
