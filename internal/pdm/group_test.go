package pdm

import (
	"bytes"
	"testing"

	"colsort/internal/record"
	"colsort/internal/sim"
)

func TestGroupBlockedLayout(t *testing.T) {
	m := Machine{P: 8, D: 8, StripeBytes: 256}
	// 2 groups of 4: columns alternate between groups; members hold r/4 rows.
	st, err := m.NewGroupStore(64, 6, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Layout != GroupBlocked || st.G != 4 {
		t.Fatalf("layout %v G=%d", st.Layout, st.G)
	}
	// Column 3 belongs to group 1 (procs 4..7); member 2 (proc 6) holds
	// rows [32, 48).
	if lo, hi := st.OwnedRows(6, 3); lo != 32 || hi != 48 {
		t.Fatalf("proc 6 owns [%d,%d) of column 3", lo, hi)
	}
	if lo, hi := st.OwnedRows(1, 3); lo != 0 || hi != 0 {
		t.Fatal("group 0 should own nothing of column 3")
	}
	if st.Owner(33, 3) != 6 {
		t.Fatalf("Owner(33,3) = %d", st.Owner(33, 3))
	}
	// Round-trip a member block.
	var cnt sim.Counters
	part := record.Make(16, 16)
	record.Fill(part, record.Uniform{Seed: 9}, 0)
	if err := st.WriteRows(&cnt, 6, 3, 32, part); err != nil {
		t.Fatal(err)
	}
	back := record.Make(16, 16)
	if err := st.ReadRows(&cnt, 6, 3, 32, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Data, part.Data) {
		t.Fatal("group-blocked round trip corrupted data")
	}
	// Foreign access rejected.
	if err := st.WriteRows(&cnt, 5, 3, 32, part); err == nil {
		t.Fatal("member 1 wrote member 2 rows")
	}
}

// TestGroupBlockedDegenerateEquivalence pins the one ownership formula, at
// the two ends of G, to the closed forms the column-owned and row-blocked
// layouts were written as: owner, owned rows and byte offset of every cell.
func TestGroupBlockedDegenerateEquivalence(t *testing.T) {
	const z = 16
	for _, c := range []struct{ r, s, p int }{
		{32, 8, 4}, {32, 4, 4}, {64, 6, 2}, {16, 3, 1}, {128, 16, 8}, {48, 8, 8},
	} {
		m := Machine{P: c.p, D: c.p}
		co, err := m.NewStore(c.r, c.s, z, ColumnOwned)
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()
		rb, err := m.NewStore(c.r, c.s, z, RowBlocked)
		if err != nil {
			t.Fatal(err)
		}
		defer rb.Close()
		if co.G != 1 || rb.G != c.p {
			t.Fatalf("%+v: column-owned G=%d, row-blocked G=%d", c, co.G, rb.G)
		}
		blk := c.r / c.p
		for j := 0; j < c.s; j++ {
			for p := 0; p < c.p; p++ {
				wantHi := 0
				if j%c.p == p {
					wantHi = c.r
				}
				if lo, hi := co.OwnedRows(p, j); lo != 0 || hi != wantHi {
					t.Fatalf("%+v: G=1 proc %d owns [%d,%d) of column %d, want [0,%d)", c, p, lo, hi, j, wantHi)
				}
				if lo, hi := rb.OwnedRows(p, j); lo != p*blk || hi != (p+1)*blk {
					t.Fatalf("%+v: G=P proc %d owns [%d,%d) of column %d", c, p, lo, hi, j)
				}
			}
			for i := 0; i < c.r; i++ {
				if p := co.Owner(i, j); p != j%c.p {
					t.Fatalf("%+v: G=1 owner of (%d,%d) = %d", c, i, j, p)
				} else if got, want := co.offset(p, i, j), int64(j/c.p*c.r+i)*z; got != want {
					t.Fatalf("%+v: G=1 offset of (%d,%d) = %d, want %d", c, i, j, got, want)
				}
				if p := rb.Owner(i, j); p != i/blk {
					t.Fatalf("%+v: G=P owner of (%d,%d) = %d", c, i, j, p)
				} else if got, want := rb.offset(p, i, j), int64(j*blk+i-p*blk)*z; got != want {
					t.Fatalf("%+v: G=P offset of (%d,%d) = %d, want %d", c, i, j, got, want)
				}
			}
		}
	}
}

func TestGroupBlockedFillSnapshot(t *testing.T) {
	m := Machine{P: 4, D: 4}
	st, err := m.NewGroupStore(32, 4, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := record.Uniform{Seed: 13}
	if err := st.Fill(g); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := record.Make(32*4, 16)
	record.Fill(want, g, 0)
	if !bytes.Equal(snap.Data, want.Data) {
		t.Fatal("group-blocked snapshot differs from generated data")
	}
}

func TestNewGroupStoreValidation(t *testing.T) {
	m := Machine{P: 4, D: 4}
	if _, err := m.NewGroupStore(32, 4, 16, 3); err == nil {
		t.Fatal("G not dividing P accepted")
	}
	if _, err := m.NewGroupStore(33, 4, 16, 2); err == nil {
		t.Fatal("G not dividing r accepted")
	}
	if _, err := m.NewGroupStore(32, 3, 16, 2); err == nil {
		t.Fatal("groups not sharing s evenly accepted")
	}
	if _, err := m.NewStore(32, 4, 16, GroupBlocked); err == nil {
		t.Fatal("NewStore accepted GroupBlocked")
	}
}
