package incore

import (
	"bytes"
	"fmt"
	"testing"

	"colsort/internal/cluster"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// The record populations the run-hint tests sort: each stresses a different
// tie path of the merges (prefix ties resolved on payload, exact duplicates
// resolved on run order, live all-ones keys against the exhausted-run
// sentinel).
const (
	kindUniform = iota
	kindFewKeys
	kindAllEqual
	kindExtremeKeys
	nKinds
)

// hintBlocks builds p local blocks of n records of the given population and,
// when runLen is a run length the blocks can honour (it divides n), sorts
// every runLen-record piece of every block, so RunLen = runLen describes them
// truthfully. Any other runLen leaves the blocks unsorted.
func hintBlocks(p, n, z, runLen, kind int, seed uint64) []record.Slice {
	blocks := make([]record.Slice, p)
	for q := range blocks {
		b := record.Make(n, z)
		switch kind {
		case kindUniform:
			record.Fill(b, record.Uniform{Seed: seed}, int64(q*n))
		case kindFewKeys:
			record.Fill(b, record.Dup{Seed: seed, K: 3}, int64(q*n))
		case kindAllEqual:
			// zero records: every comparison ties down to the last byte
		case kindExtremeKeys:
			record.Fill(b, record.Uniform{Seed: seed}, int64(q*n))
			for i := 0; i < n; i++ {
				if record.Hash64(seed+uint64(q*n+i))%2 == 0 {
					b.SetKey(i, 0)
				} else {
					b.SetKey(i, record.MaxKey)
				}
			}
		}
		if runLen > 0 && n%runLen == 0 {
			for lo := 0; lo < n; lo += runLen {
				sortalg.Sort(b.Sub(lo, lo+runLen))
			}
		}
		blocks[q] = b
	}
	return blocks
}

// sortBlocks runs s on copies of the blocks, one processor each, and returns
// the concatenated result and the per-processor counters.
func sortBlocks(t testing.TB, s Sorter, blocks []record.Slice) (record.Slice, []sim.Counters) {
	t.Helper()
	p, n, z := len(blocks), blocks[0].Len(), blocks[0].Size
	global := record.Make(p*n, z)
	cnts := make([]sim.Counters, p)
	err := cluster.Run(p, func(pr *cluster.Proc) error {
		q := pr.Rank()
		local := record.Make(n, z)
		local.Copy(blocks[q])
		out, err := s.Sort(pr, &cnts[q], 0, local)
		if err != nil {
			return err
		}
		if out.Len() != n {
			return fmt.Errorf("rank %d: got %d records, want %d", q, out.Len(), n)
		}
		global.Sub(q*n, (q+1)*n).Copy(out)
		return nil
	})
	if err != nil {
		t.Fatalf("%+v P=%d n=%d: %v", s, p, n, err)
	}
	return global, cnts
}

// checkRunHint sorts blocks that honour hint (or, when no block can, plain
// unsorted ones) with and without the declaration and requires the same bytes.
// A usable hint must be charged as the merge it ran; an unusable one — it
// does not divide n, or exceeds it — must cost exactly the full sort.
func checkRunHint(t testing.TB, p, n, z, hint, kind int, seed uint64) {
	t.Helper()
	blocks := hintBlocks(p, n, z, hint, kind, seed)
	want, plain := sortBlocks(t, Columnsort{}, blocks)
	got, hinted := sortBlocks(t, Columnsort{RunLen: hint}, blocks)
	if !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("P=%d n=%d z=%d RunLen=%d kind=%d seed=%d: output differs from the hint-free sort", p, n, z, hint, kind, seed)
	}
	if !want.IsSorted() {
		t.Fatalf("P=%d n=%d kind=%d seed=%d: hint-free sort is not sorted", p, n, kind, seed)
	}
	saved := int64(0)
	if hint > 0 && n%hint == 0 {
		saved = sim.SortWork(n) - sim.MergeWork(n, n/hint)
	}
	for q := range plain {
		if d := plain[q].CompareUnits - hinted[q].CompareUnits; d != saved {
			t.Fatalf("P=%d n=%d RunLen=%d: rank %d saved %d compare units, want %d", p, n, hint, q, d, saved)
		}
	}
}

// hintsFor lists the declarations worth trying on blocks of n records: none,
// every run length the blocks can honour (n itself: one run), and three they
// cannot.
func hintsFor(n int) []int {
	hints := []int{0}
	for h := 1; h <= n; h++ {
		if n%h == 0 {
			hints = append(hints, h)
		}
	}
	if n > 3 && n%3 != 0 {
		hints = append(hints, 3)
	}
	return append(hints, n+1, 2*n)
}

// hintShape maps a selector to (P, n): P ∈ {1,2,4,8} and n from the height
// restriction's floor 2P² up to 8P².
func hintShape(sel uint8) (p, n int) {
	p = 1 << (sel & 3)
	return p, 2 * p * p * (1 + int(sel>>2&3))
}

func TestColumnsortRunHints(t *testing.T) {
	for sel := uint8(0); sel < 16; sel++ {
		p, n := hintShape(sel)
		for _, hint := range hintsFor(n) {
			for kind := 0; kind < nKinds; kind++ {
				checkRunHint(t, p, n, 16, hint, kind, uint64(sel)+1)
			}
		}
	}
	// Wide records, and a block large enough for the loser tree to run deep.
	checkRunHint(t, 4, 512, 64, 16, kindUniform, 7)
	checkRunHint(t, 4, 512, 64, 512, kindFewKeys, 7)
}

func FuzzColumnsortRuns(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(0), uint8(kindUniform))
	f.Add(uint64(2), uint8(0b0110), uint16(5), uint8(kindFewKeys))
	f.Add(uint64(3), uint8(0b1011), uint16(9), uint8(kindAllEqual))
	f.Add(uint64(4), uint8(0b1111), uint16(200), uint8(kindExtremeKeys))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, hintSel uint16, kind uint8) {
		p, n := hintShape(shape)
		hints := hintsFor(n)
		checkRunHint(t, p, n, 16, hints[int(hintSel)%len(hints)], int(kind)%nKinds, seed)
	})
}

// TestColumnsortSteadyStateAllocs pins the run-aware sort's hot path: with a
// pool, a scratch and a run hint whose fan-in differs from P (so the
// scratch's chunk descriptors change shape twice a call), the warm sort —
// step-1 merge, two transposes, two P-way merges, boundary merges — performs
// no allocator work on any processor.
func TestColumnsortSteadyStateAllocs(t *testing.T) {
	const p, n, z, runLen = 4, 256, 32, 16
	blocks := hintBlocks(p, n, z, runLen, kindUniform, 11)
	pools := record.NewPools(p)
	scratch := make([]sortalg.Scratch, p)
	start := make([]chan struct{}, p)
	for q := range start {
		start[q] = make(chan struct{})
	}
	done := make(chan error, p)
	finished := make(chan error, 1)
	go func() {
		finished <- cluster.Run(p, func(pr *cluster.Proc) error {
			q := pr.Rank()
			cs := Columnsort{Pool: pools[q], Scratch: &scratch[q], RunLen: runLen}
			var cnt sim.Counters
			for range start[q] {
				local := pools[q].Get(n, z)
				local.Copy(blocks[q])
				out, err := cs.Sort(pr, &cnt, 0, local)
				pools[q].Put(out)
				done <- err
			}
			return nil
		})
	}()
	round := func() {
		for q := range start {
			start[q] <- struct{}{}
		}
		for range start {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	round() // warm the pools, header free lists, scratch and mailboxes
	if allocs := testing.AllocsPerRun(20, round); allocs > 0 {
		t.Errorf("%v allocs per warm run-aware sort, want 0", allocs)
	}
	for q := range start {
		close(start[q])
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
}
