package colsort

import (
	"context"
	"errors"
	"testing"

	"colsort/internal/bounds"
	"colsort/internal/record"
)

func newTestSorter(t *testing.T, procs, mem int) *Sorter {
	t.Helper()
	s, err := New(Config{Procs: procs, MemPerProc: mem, RecordSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSortGeneratedAllAlgorithms(t *testing.T) {
	cases := []struct {
		alg Algorithm
		n   int64
		p   int
		mem int
	}{
		{Threaded, 512 * 8, 4, 512},
		{Threaded4, 512 * 8, 4, 512},
		{Subblock, 256 * 16, 4, 256},
		{MColumn, 256 * 8, 4, 64},
		{Combined, 256 * 16, 4, 64},
	}
	for _, c := range cases {
		s := newTestSorter(t, c.p, c.mem)
		res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 1}, c.n), nil,
			WithAlgorithm(c.alg), WithPadding(PadNever))
		if err != nil {
			t.Fatalf("%v: %v", c.alg, err)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("%v: %v", c.alg, err)
		}
		est := res.EstimateBeowulf()
		if est.Total <= 0 {
			t.Fatalf("%v: nonpositive estimate", c.alg)
		}
		if err := res.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSortStoreRoundTrip(t *testing.T) {
	s := newTestSorter(t, 2, 512)
	res, err := s.Sort(context.Background(), Generate(record.Zipf{Seed: 4}, 512*4), nil,
		WithAlgorithm(Threaded), WithPadding(PadNever))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Procs: 2, MemPerProc: 64, RecordSize: 10}); err == nil {
		t.Fatal("bad record size accepted")
	}
	if _, err := New(Config{Procs: 3, Disks: 4, MemPerProc: 64, RecordSize: 16}); err == nil {
		t.Fatal("P∤D accepted")
	}
	// Disks defaults to Procs.
	s, err := New(Config{Procs: 2, MemPerProc: 64, RecordSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Disks != 2 {
		t.Fatalf("Disks defaulted to %d", s.cfg.Disks)
	}
}

func TestPlanErrorsExplainRestrictions(t *testing.T) {
	s := newTestSorter(t, 2, 512)
	_, err := s.Plan(Threaded, 512*64) // s=64: 2s² = 8192 > 512
	if !errors.Is(err, ErrHeightRestriction) {
		t.Fatalf("err = %v, want errors.Is(err, ErrHeightRestriction)", err)
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want errors.Is(err, ErrTooLarge) to keep matching", err)
	}
}

func TestMaxRecords(t *testing.T) {
	// Large enough memory that the subblock gain survives the power-of-4
	// quantization of s (the real-valued gain is (M/P)^{1/6}·2^{-5/6}).
	s := newTestSorter(t, 4, 1<<15)
	maxTh := s.MaxRecords(Threaded)
	maxSb := s.MaxRecords(Subblock)
	maxMc := s.MaxRecords(MColumn)
	if maxTh <= 0 || maxSb <= 0 || maxMc <= 0 {
		t.Fatalf("nonpositive max records: %d %d %d", maxTh, maxSb, maxMc)
	}
	// The paper's orderings: subblock and M-columnsort both exceed
	// threaded; the threaded max is actually plannable, and doubling it
	// is not.
	if maxSb <= maxTh {
		t.Fatalf("subblock max %d not above threaded %d", maxSb, maxTh)
	}
	if maxMc <= maxTh {
		t.Fatalf("m-columnsort max %d not above threaded %d", maxMc, maxTh)
	}
	if _, err := s.Plan(Threaded, maxTh); err != nil {
		t.Fatalf("threaded max %d not plannable: %v", maxTh, err)
	}
	if _, err := s.Plan(Threaded, 2*maxTh); err == nil {
		t.Fatalf("threaded accepted 2×max = %d", 2*maxTh)
	}
}

// TestBound: the practical maxima MaxRecords finds respect the paper's
// real-valued bounds, which keep their ordering.
func TestBound(t *testing.T) {
	s := newTestSorter(t, 4, 512)
	const m, p = 4 * 512, 4
	b1 := bounds.MaxN(bounds.Threaded, m, p)
	b2 := bounds.MaxN(bounds.Subblock, m, p)
	b3 := bounds.MaxN(bounds.MColumnsort, m, p)
	b4 := bounds.MaxN(bounds.Combined, m, p)
	if !(b1 < b2 && b2 < b4 && b1 < b3) {
		t.Fatalf("bound ordering wrong: %g %g %g %g", b1, b2, b3, b4)
	}
	// The integer maximum can sit exactly on the bound, so allow float
	// rounding.
	for alg, b := range map[Algorithm]float64{Threaded: b1, Threaded4: b1, Subblock: b2, MColumn: b3, Combined: b4} {
		if got := float64(s.MaxRecords(alg)); got <= 0 || got > b*(1+1e-9) {
			t.Errorf("%v: max records %g outside (0, bound %g]", alg, got, b)
		}
	}
}

func TestFileBackedSorter(t *testing.T) {
	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: 64, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 9}, 256*4), nil,
		WithAlgorithm(Threaded), WithPadding(PadNever))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineThroughFacade(t *testing.T) {
	s := newTestSorter(t, 2, 512)
	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 2}, 512*4), nil,
		WithAlgorithm(BaselineIO3), WithPadding(PadNever))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	// Baseline output is not sorted; Verify must fail on ordering but the
	// multiset must hold, so check the counters instead.
	tot := res.TotalCounters()
	if tot.CompareUnits != 0 {
		t.Fatal("baseline did comparison work")
	}
}
