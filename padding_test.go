package colsort

import (
	"context"
	"testing"
	"testing/quick"

	"colsort/internal/record"
)

// sortAny sorts n generated records under PadAuto — the padding path the
// removed SortGeneratedAny wrapper used to expose.
func sortAny(s *Sorter, alg Algorithm, n int64, g record.Generator) (*Result, error) {
	return s.Sort(context.Background(), Generate(g, n), nil, WithAlgorithm(alg))
}

// TestSortAnyArbitrarySizes removes the power-of-two requirement: arbitrary
// record counts must sort via padding (Section-6 future-work item).
func TestSortAnyArbitrarySizes(t *testing.T) {
	s := newTestSorter(t, 4, 512)
	for _, n := range []int64{1, 2, 3, 100, 511, 513, 1000, 1025, 3000, 4095} {
		res, err := sortAny(s, Threaded, n, record.Uniform{Seed: uint64(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.RealRecords() != n {
			t.Fatalf("n=%d: RealRecords = %d", n, res.RealRecords())
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		res.Close()
	}
}

func TestSortAnyExactPowerOfTwo(t *testing.T) {
	// A power-of-two n must behave like the plain path (no pads).
	s := newTestSorter(t, 4, 512)
	res, err := sortAny(s, Threaded, 2048, record.Uniform{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Plan.N != 2048 {
		t.Fatalf("padded to %d, expected exact fit", res.Plan.N)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSortAnyWithMaxKeyRecords(t *testing.T) {
	// Real records whose bytes equal the pad pattern must not break the
	// prefix check (they are byte-identical to pads, so interchangeable).
	s := newTestSorter(t, 2, 512)
	g := allOnes{}
	res, err := sortAny(s, Threaded, 700, g)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// allOnes generates records that look exactly like pads.
type allOnes struct{}

func (allOnes) Name() string { return "all-ones" }
func (allOnes) Gen(rec []byte, idx int64) {
	for i := range rec {
		rec[i] = 0xff
	}
}

func TestSortAnyAllAlgorithms(t *testing.T) {
	cases := []struct {
		alg Algorithm
		p   int
		mem int
		n   int64
	}{
		{Subblock, 4, 256, 3000},
		{MColumn, 4, 64, 700},
		{Combined, 4, 64, 3333},
	}
	for _, c := range cases {
		s, err := New(Config{Procs: c.p, MemPerProc: c.mem, RecordSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sortAny(s, c.alg, c.n, record.Dup{Seed: 3, K: 5})
		if err != nil {
			t.Fatalf("%v n=%d: %v", c.alg, c.n, err)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("%v n=%d: %v", c.alg, c.n, err)
		}
		res.Close()
	}
}

func TestSortAnyRejectsNonPositive(t *testing.T) {
	s := newTestSorter(t, 2, 512)
	if _, err := sortAny(s, Threaded, 0, record.Uniform{Seed: 1}); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestSortAnyQuick(t *testing.T) {
	s := newTestSorter(t, 2, 512)
	f := func(nRaw uint16, seed uint64) bool {
		n := int64(nRaw%2000) + 1
		res, err := sortAny(s, Threaded, n, record.Uniform{Seed: seed})
		if err != nil {
			return false
		}
		defer res.Close()
		return res.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridThroughFacade(t *testing.T) {
	s, err := New(Config{Procs: 8, MemPerProc: 256, RecordSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlanSort(1024, WithHybridGroup(1)); err == nil {
		t.Fatal("g=1 accepted")
	}
	res, err := s.Sort(context.Background(), Generate(record.Zipf{Seed: 8}, 512*4), nil,
		WithHybridGroup(2))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Plan.Group != 2 || res.Plan.R != 512 {
		t.Fatalf("plan %+v", res.Plan)
	}
}
