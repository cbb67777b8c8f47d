package verify

import (
	"strings"
	"testing"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
)

func sortedStore(t *testing.T, layout pdm.Layout) *pdm.Store {
	t.Helper()
	m := pdm.Machine{P: 4, D: 4}
	st, err := m.NewStore(32, 4, 16, layout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	// Sorted{} keys equal the global column-major index, so the store is
	// sorted by construction.
	if err := st.Fill(record.Sorted{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreSortedAccepts(t *testing.T) {
	for _, layout := range []pdm.Layout{pdm.ColumnOwned, pdm.RowBlocked} {
		if err := StoreSorted(sortedStore(t, layout)); err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
	}
}

func TestStoreSortedDetectsIntraColumnViolation(t *testing.T) {
	st := sortedStore(t, pdm.ColumnOwned)
	var cnt sim.Counters
	bad := record.Make(1, 16)
	bad.SetKey(0, 0) // far smaller than its neighbours
	if err := st.WriteRows(&cnt, st.Owner(0, 2), 2, 10, bad); err != nil {
		t.Fatal(err)
	}
	err := StoreSorted(st)
	if err == nil {
		t.Fatal("missorted store accepted")
	}
	ve, ok := err.(*Error)
	if !ok {
		t.Fatalf("want *Error, got %T", err)
	}
	if ve.Column != 2 || ve.Row != 10 {
		t.Fatalf("violation located at column %d row %d, want column 2 row 10", ve.Column, ve.Row)
	}
}

func TestStoreSortedDetectsBoundaryViolation(t *testing.T) {
	st := sortedStore(t, pdm.ColumnOwned)
	var cnt sim.Counters
	// Make the first record of column 1 smaller than the last of column 0.
	bad := record.Make(1, 16)
	bad.SetKey(0, 5)
	if err := st.WriteRows(&cnt, st.Owner(0, 1), 1, 0, bad); err != nil {
		t.Fatal(err)
	}
	err := StoreSorted(st)
	if err == nil {
		t.Fatal("boundary violation accepted")
	}
	if ve := err.(*Error); ve.Column != 1 || ve.Row != 0 {
		t.Fatalf("violation at column %d row %d, want column 1 row 0", ve.Column, ve.Row)
	}
}

func TestMultiset(t *testing.T) {
	st := sortedStore(t, pdm.ColumnOwned)
	want := record.OfGenerated(record.Sorted{Seed: 1}, 32*4, 16)
	if err := Multiset(st, want); err != nil {
		t.Fatal(err)
	}
	var wrong record.Checksum
	if err := Multiset(st, wrong); err == nil {
		t.Fatal("wrong checksum accepted")
	}
}

func TestOutput(t *testing.T) {
	st := sortedStore(t, pdm.RowBlocked)
	want := record.OfGenerated(record.Sorted{Seed: 1}, 32*4, 16)
	if err := Output(st, want); err != nil {
		t.Fatal(err)
	}
}

// TestOutputOneScan: Output is one scan doing both checks. Swaps keep the
// multiset, so only the order check can object — inside a segment, across
// the segment boundary inside a row-blocked column, across a column boundary
// — and a flipped payload byte keeps the order, so only the checksum can.
func TestOutputOneScan(t *testing.T) {
	want := record.OfGenerated(record.Sorted{Seed: 1}, 32*4, 16)
	swap := func(st *pdm.Store, ja, ia, jb, ib int) {
		t.Helper()
		var cnt sim.Counters
		a, b := record.Make(1, 16), record.Make(1, 16)
		for _, e := range []error{
			st.ReadRows(&cnt, st.Owner(ia, ja), ja, ia, a), st.ReadRows(&cnt, st.Owner(ib, jb), jb, ib, b),
			st.WriteRows(&cnt, st.Owner(ia, ja), ja, ia, b), st.WriteRows(&cnt, st.Owner(ib, jb), jb, ib, a),
		} {
			if e != nil {
				t.Fatal(e)
			}
		}
	}
	for _, c := range []struct {
		name           string
		layout         pdm.Layout
		ja, ia, jb, ib int // the two positions swapped
		col, row       int // where the violation is reported
	}{
		{"inside a segment", pdm.ColumnOwned, 2, 10, 2, 11, 2, 11},
		{"segment boundary", pdm.RowBlocked, 1, 7, 1, 8, 1, 8}, // P=4, r=32: segments of 8 rows
		{"column boundary", pdm.ColumnOwned, 0, 31, 1, 0, 1, 0},
	} {
		st := sortedStore(t, c.layout)
		swap(st, c.ja, c.ia, c.jb, c.ib)
		ve, ok := Output(st, want).(*Error)
		if !ok || ve.Kind != "order violation" || ve.Column != c.col || ve.Row != c.row {
			t.Errorf("%s: Output returned %v, want an order violation at column %d row %d", c.name, ve, c.col, c.row)
		}
	}

	st := sortedStore(t, pdm.RowBlocked)
	var cnt sim.Counters
	rec := record.Make(1, 16)
	if err := st.ReadRows(&cnt, st.Owner(20, 3), 3, 20, rec); err != nil {
		t.Fatal(err)
	}
	rec.Data[15] ^= 1
	if err := st.WriteRows(&cnt, st.Owner(20, 3), 3, 20, rec); err != nil {
		t.Fatal(err)
	}
	if err := StoreSorted(st); err != nil {
		t.Fatalf("a payload flip under distinct keys must keep the order: %v", err)
	}
	if ve, ok := Output(st, want).(*Error); !ok || ve.Kind != "multiset violation" {
		t.Fatalf("Output returned %v, want a multiset violation", ve)
	}
}

func TestSliceSorted(t *testing.T) {
	s := record.Make(10, 16)
	record.Fill(s, record.Sorted{Seed: 2}, 0)
	if err := SliceSorted(s); err != nil {
		t.Fatal(err)
	}
	s.SetKey(5, 0)
	err := SliceSorted(s)
	if err == nil {
		t.Fatal("missorted slice accepted")
	}
	if !strings.Contains(err.Error(), "order violation") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestOutputPrefix(t *testing.T) {
	m := pdm.Machine{P: 2, D: 2}
	st, err := m.NewStore(16, 2, 16, pdm.ColumnOwned)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// First 20 records sorted real data, last 12 all-0xFF pads.
	const realN = 20
	var want record.Checksum
	var cnt sim.Counters
	buf := record.Make(1, 16)
	for g := 0; g < 32; g++ {
		j, i := g/16, g%16
		rec := buf.Record(0)
		if g < realN {
			for k := range rec {
				rec[k] = 0
			}
			record.PutKey(rec, uint64(g))
			want.Add(rec)
		} else {
			for k := range rec {
				rec[k] = 0xff
			}
		}
		if err := st.WriteRows(&cnt, st.Owner(0, j), j, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := OutputPrefix(st, realN, want); err != nil {
		t.Fatal(err)
	}
	// Full-length prefix behaves like plain sortedness+multiset... the
	// pads beyond realN are themselves sorted, so n=32 needs their
	// checksum too.
	padWant := want
	for k := realN; k < 32; k++ {
		rec := buf.Record(0)
		for i := range rec {
			rec[i] = 0xff
		}
		padWant.Add(rec)
	}
	if err := OutputPrefix(st, 32, padWant); err != nil {
		t.Fatal(err)
	}
	// A corrupted pad must be caught.
	bad := record.Make(1, 16)
	bad.FillKey(record.MaxKey)
	bad.Record(0)[15] = 0xfe
	if err := st.WriteRows(&cnt, st.Owner(0, 1), 1, 15, bad); err != nil {
		t.Fatal(err)
	}
	if err := OutputPrefix(st, realN, want); err == nil {
		t.Fatal("corrupted pad accepted")
	}
	// A missorted prefix must be caught.
	st2, err := m.NewStore(16, 2, 16, pdm.ColumnOwned)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.Fill(record.Reverse{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var anyWant record.Checksum
	if err := OutputPrefix(st2, 8, anyWant); err == nil {
		t.Fatal("missorted prefix accepted")
	}
}

func TestErrorMessage(t *testing.T) {
	e := &Error{Kind: "k", Column: 3, Row: 4, Detail: "d"}
	msg := e.Error()
	for _, want := range []string{"k", "3", "4", "d"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}
