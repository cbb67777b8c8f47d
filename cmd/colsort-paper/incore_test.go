package main

import (
	"testing"

	"colsort/internal/incore"
	"colsort/internal/record"
	"colsort/internal/sortalg"
)

// TestCheckDistributed: E6's check accepts a block-distributed sort and
// refuses the results a broken transpose produces — blocks each sorted but
// globally misordered, and a lost record.
func TestCheckDistributed(t *testing.T) {
	const p, n, z = 4, 64, 16
	gen := record.Uniform{Seed: 3}
	all := record.Make(p*n, z)
	record.Fill(all, gen, 0)
	want := record.OfGenerated(gen, p*n, z)
	sortalg.Sort(all)
	blocks := func() []record.Slice {
		b := make([]record.Slice, p)
		for q := range b {
			b[q] = record.Make(n, z)
			b[q].Copy(all.Sub(q*n, (q+1)*n))
		}
		return b
	}

	if err := checkDistributed(blocks(), want); err != nil {
		t.Fatalf("a correct result was refused: %v", err)
	}
	swapped := blocks()
	swapped[1], swapped[2] = swapped[2], swapped[1] // each block still sorted
	if err := checkDistributed(swapped, want); err == nil {
		t.Fatal("globally misordered blocks accepted")
	}
	lost := blocks()
	lost[3].CopyRecord(n-1, lost[3], n-2) // a duplicate where a record was
	if err := checkDistributed(lost, want); err == nil {
		t.Fatal("a lost record accepted")
	}
	unsorted := blocks()
	first := record.Make(1, z)
	first.CopyRecord(0, unsorted[0], 0)
	unsorted[0].CopyRecord(0, unsorted[0], n-1) // the block's first and last exchanged
	unsorted[0].CopyRecord(n-1, first, 0)
	if err := checkDistributed(unsorted, want); err == nil {
		t.Fatal("an unsorted block accepted")
	}
}

// TestCheckTraffic: E6 concludes only what its traffic column shows, and
// refuses a table in which in-core columnsort does not move the fewest bytes.
func TestCheckTraffic(t *testing.T) {
	sorters := []incore.Sorter{incore.Columnsort{}, incore.Radix{}, incore.Bitonic{}}
	if err := checkTraffic(sorters, []int64{2_880_000, 7_800_000, 6_290_000}); err != nil {
		t.Fatalf("a table that supports the conclusion was refused: %v", err)
	}
	for _, net := range [][]int64{
		{7_000_000, 7_800_000, 6_290_000}, // bitonic moves fewer
		{6_290_000, 7_800_000, 6_290_000}, // bitonic ties
	} {
		if err := checkTraffic(sorters, net); err == nil {
			t.Errorf("net bytes %v accepted: in-core columnsort does not move the fewest", net)
		}
	}
}
