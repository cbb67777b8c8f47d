package main

import (
	"testing"

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
