package pdm

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"colsort/internal/record"
	"colsort/internal/sim"
)

func TestMemDiskSparse(t *testing.T) {
	d := NewMemDisk()
	if err := d.WriteAt([]byte{1, 2, 3}, 100); err != nil {
		t.Fatal(err)
	}
	if len(d.data) != 103 {
		t.Fatalf("extent = %d, want 103", len(d.data))
	}
	buf := make([]byte, 5)
	if err := d.ReadAt(buf, 99); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 1, 2, 3, 0}) {
		t.Fatalf("sparse read wrong: %v", buf)
	}
	// Read entirely beyond extent: zeros.
	if err := d.ReadAt(buf, 1000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 5)) {
		t.Fatal("beyond-extent read not zero")
	}
	if err := d.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := d.WriteAt(buf, -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := NewFileDisk(filepath.Join(dir, "d0.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt([]byte("hello"), 64); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := d.ReadAt(buf, 64); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("got %q", buf)
	}
	// Sparse read past EOF should zero-fill.
	big := make([]byte, 16)
	if err := d.ReadAt(big, 60); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(big[4:9], []byte("hello")) {
		t.Fatalf("offset read wrong: %q", big)
	}
	path := filepath.Join(dir, "d0.dat")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Close did not remove backing file")
	}
}

func TestDiskArrayStripingRoundTrip(t *testing.T) {
	// Write a pattern through the striped array and read it back with
	// various offsets and lengths crossing stripe and disk boundaries.
	disks := []Disk{NewMemDisk(), NewMemDisk(), NewMemDisk()}
	a := NewDiskArray(disks, 16)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	var cnt sim.Counters
	if err := a.WriteAt(&cnt, data, 13); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1000)
	if err := a.ReadAt(&cnt, got, 13); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped round trip corrupted data")
	}
	// Partial re-read in the middle.
	mid := make([]byte, 100)
	if err := a.ReadAt(&cnt, mid, 13+500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mid, data[500:600]) {
		t.Fatal("partial striped read wrong")
	}
}

func TestDiskArrayDistributesAcrossDisks(t *testing.T) {
	d0, d1 := NewMemDisk(), NewMemDisk()
	a := NewDiskArray([]Disk{d0, d1}, 8)
	var cnt sim.Counters
	if err := a.WriteAt(&cnt, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	if len(d0.data) != 32 || len(d1.data) != 32 {
		t.Fatalf("stripe imbalance: %d vs %d", len(d0.data), len(d1.data))
	}
}

func TestDiskArraySeekAccounting(t *testing.T) {
	a := NewDiskArray([]Disk{NewMemDisk()}, 1024)
	var cnt sim.Counters
	// Sequential writes: 1 seek, then continuation.
	buf := make([]byte, 512)
	if err := a.WriteAt(&cnt, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteAt(&cnt, buf, 512); err != nil {
		t.Fatal(err)
	}
	if cnt.DiskWriteOps != 1 {
		t.Fatalf("sequential writes counted %d ops, want 1", cnt.DiskWriteOps)
	}
	// A jump costs one more.
	if err := a.WriteAt(&cnt, buf, 8192); err != nil {
		t.Fatal(err)
	}
	if cnt.DiskWriteOps != 2 {
		t.Fatalf("jump write counted %d ops, want 2", cnt.DiskWriteOps)
	}
	if cnt.DiskWriteBytes != 512*3 {
		t.Fatalf("write bytes %d, want %d", cnt.DiskWriteBytes, 512*3)
	}
	// Reads tracked independently.
	if err := a.ReadAt(&cnt, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadAt(&cnt, buf, 512); err != nil {
		t.Fatal(err)
	}
	if cnt.DiskReadOps != 1 {
		t.Fatalf("sequential reads counted %d ops, want 1", cnt.DiskReadOps)
	}
}

func TestDiskArrayNilCounters(t *testing.T) {
	a := NewDiskArray([]Disk{NewMemDisk()}, 64)
	if err := a.WriteAt(nil, []byte{1}, 0); err != nil {
		t.Fatal("nil counters should be allowed")
	}
}

func TestDiskArrayQuick(t *testing.T) {
	f := func(off uint16, data []byte, stripePow uint8) bool {
		if len(data) == 0 {
			return true
		}
		stripe := 1 << (3 + stripePow%8) // 8..1024
		a := NewDiskArray([]Disk{NewMemDisk(), NewMemDisk(), NewMemDisk(), NewMemDisk()}, stripe)
		var cnt sim.Counters
		if err := a.WriteAt(&cnt, data, int64(off)); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := a.ReadAt(&cnt, got, int64(off)); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func newTestStore(t *testing.T, r, s, recSize, p int, layout Layout) *Store {
	t.Helper()
	m := Machine{P: p, D: 2 * p, StripeBytes: 256}
	st, err := m.NewStore(r, s, recSize, layout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestStoreColumnOwnedRoundTrip(t *testing.T) {
	st := newTestStore(t, 64, 8, 16, 4, ColumnOwned)
	var cnt sim.Counters
	for j := 0; j < 8; j++ {
		p := st.Owner(0, j)
		if p != j%4 {
			t.Fatalf("owner of column %d = %d", j, p)
		}
		col := record.Make(64, 16)
		record.Fill(col, record.Uniform{Seed: uint64(j)}, 0)
		if err := st.WriteColumn(&cnt, p, j, col); err != nil {
			t.Fatal(err)
		}
		back := record.Make(64, 16)
		if err := st.ReadColumn(&cnt, p, j, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Data, col.Data) {
			t.Fatalf("column %d corrupted", j)
		}
	}
}

func TestStoreColumnOwnedRejectsForeignAccess(t *testing.T) {
	st := newTestStore(t, 64, 8, 16, 4, ColumnOwned)
	var cnt sim.Counters
	col := record.Make(64, 16)
	if err := st.WriteColumn(&cnt, 1, 0, col); err == nil {
		t.Fatal("processor 1 wrote processor 0's column")
	}
	if err := st.ReadColumn(&cnt, 0, 99, col); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if err := st.ReadRows(&cnt, 9, 0, 0, col); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
}

func TestStoreRowBlocked(t *testing.T) {
	st := newTestStore(t, 64, 4, 16, 4, RowBlocked)
	var cnt sim.Counters
	// Each proc owns 16 rows of every column.
	for p := 0; p < 4; p++ {
		lo, hi := st.OwnedRows(p, 2)
		if lo != p*16 || hi != (p+1)*16 {
			t.Fatalf("proc %d owns [%d,%d)", p, lo, hi)
		}
		if st.Owner(p*16+3, 2) != p {
			t.Fatal("Owner inconsistent with OwnedRows")
		}
	}
	// Write each proc's portion, read back a sub-range.
	for p := 0; p < 4; p++ {
		part := record.Make(16, 16)
		record.Fill(part, record.Uniform{Seed: uint64(p)}, 0)
		if err := st.WriteRows(&cnt, p, 2, p*16, part); err != nil {
			t.Fatal(err)
		}
		back := record.Make(4, 16)
		if err := st.ReadRows(&cnt, p, 2, p*16+8, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Data, part.Sub(8, 12).Data) {
			t.Fatalf("proc %d sub-range read wrong", p)
		}
	}
	// Foreign row range rejected.
	if err := st.WriteRows(&cnt, 0, 2, 20, record.Make(4, 16)); err == nil {
		t.Fatal("proc 0 wrote proc 1's rows")
	}
}

func TestNewStoreValidation(t *testing.T) {
	m := Machine{P: 4, D: 4}
	if _, err := m.NewStore(64, 6, 16, ColumnOwned); err == nil {
		t.Fatal("s not divisible by P accepted for column-owned")
	}
	if _, err := m.NewStore(66, 4, 16, RowBlocked); err == nil {
		t.Fatal("r not divisible by P accepted for row-blocked")
	}
	if _, err := m.NewStore(64, 4, 7, ColumnOwned); err == nil {
		t.Fatal("bad record size accepted")
	}
	bad := Machine{P: 4, D: 6}
	if _, err := bad.NewArrays(); err == nil {
		t.Fatal("P∤D accepted")
	}
	if _, err := (Machine{P: 0, D: 0}).NewArrays(); err == nil {
		t.Fatal("P=0 accepted")
	}
}

func TestMachineDiskOwnership(t *testing.T) {
	m := Machine{P: 4, D: 8}
	arrays, err := m.NewArrays()
	if err != nil {
		t.Fatal(err)
	}
	for p, a := range arrays {
		if len(a.Disks) != 2 {
			t.Fatalf("proc %d owns %d disks, want D/P=2", p, len(a.Disks))
		}
	}
}

func TestStoreFillSnapshotChecksum(t *testing.T) {
	for _, layout := range []Layout{ColumnOwned, RowBlocked} {
		st := newTestStore(t, 32, 4, 16, 4, layout)
		g := record.Uniform{Seed: 11}
		if err := st.Fill(g); err != nil {
			t.Fatal(err)
		}
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// Snapshot must equal direct generation in column-major order.
		want := record.Make(32*4, 16)
		record.Fill(want, g, 0)
		if !bytes.Equal(snap.Data, want.Data) {
			t.Fatalf("%v: snapshot differs from generated data", layout)
		}
		cs, err := st.Checksum()
		if err != nil {
			t.Fatal(err)
		}
		if !cs.Equal(record.OfGenerated(g, 32*4, 16)) {
			t.Fatalf("%v: checksum mismatch", layout)
		}
	}
}

// TestFillOverwritesPooledBuffer: FillRows hands its callback a pooled
// buffer it does not zero. Through pools whose free buffers are all 0xAA,
// Fill must leave the store exactly as through fresh pools — a generator
// writes all z bytes of every record, so no stale byte may survive.
func TestFillOverwritesPooledBuffer(t *testing.T) {
	g := record.Uniform{Seed: 12}
	for _, layout := range []Layout{ColumnOwned, RowBlocked} {
		fill := func(dirty bool) []byte {
			pools := record.NewPools(4)
			if dirty {
				dirtyPools(pools)
			}
			m := Machine{P: 4, D: 8, StripeBytes: 256, Pools: pools}
			st, err := m.NewStore(32, 4, 16, layout)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.Fill(g); err != nil {
				t.Fatal(err)
			}
			snap, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			return snap.Data
		}
		if !bytes.Equal(fill(true), fill(false)) {
			t.Errorf("%v: a fill through dirty pools differs from one through fresh pools", layout)
		}
	}
}

// dirtyPools stocks every pool with 0xAA-filled free buffers of each class a
// test store asks for.
func dirtyPools(pools []*record.Pool) {
	for _, p := range pools {
		for k := 4; k <= 16; k++ {
			for range 4 {
				p.PutBytes(bytes.Repeat([]byte{0xAA}, 1<<k))
			}
		}
	}
}

func TestStoreFileBackend(t *testing.T) {
	m := Machine{P: 2, D: 2, Backend: FileBackend{Dir: t.TempDir()}}
	st, err := m.NewStore(16, 2, 16, ColumnOwned)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Fill(record.Uniform{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := record.Make(32, 16)
	record.Fill(want, record.Uniform{Seed: 3}, 0)
	if !bytes.Equal(snap.Data, want.Data) {
		t.Fatal("file-backed store corrupted data")
	}
}

func TestLayoutString(t *testing.T) {
	if ColumnOwned.String() != "column-owned" || RowBlocked.String() != "row-blocked" {
		t.Fatal("Layout.String wrong")
	}
	if Layout(9).String() == "" {
		t.Fatal("unknown layout String empty")
	}
}

func TestStoreBufferSizeMismatch(t *testing.T) {
	st := newTestStore(t, 16, 2, 16, 2, ColumnOwned)
	var cnt sim.Counters
	wrongSize := record.Make(16, 32)
	if err := st.WriteRows(&cnt, 0, 0, 0, wrongSize); err == nil {
		t.Fatal("record size mismatch accepted")
	}
	short := record.Make(8, 16)
	if err := st.WriteColumn(&cnt, 0, 0, short); err == nil {
		t.Fatal("short column buffer accepted")
	}
	if err := st.ReadColumn(&cnt, 0, 0, short); err == nil {
		t.Fatal("short read buffer accepted")
	}
}

func TestFileDiskErrorPaths(t *testing.T) {
	dir := t.TempDir()
	d, err := NewFileDisk(filepath.Join(dir, "err.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt([]byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	// Short read straddling EOF zero-fills; a read entirely beyond EOF is
	// all zeros.
	buf := make([]byte, 8)
	if err := d.ReadAt(buf, 6); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{'6', '7', '8', '9', 0, 0, 0, 0}) {
		t.Fatalf("short read wrong: %q", buf)
	}
	if err := d.ReadAt(buf, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 8)) {
		t.Fatal("beyond-EOF read not zero")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Operations on a closed disk fail loudly rather than zero-filling.
	if err := d.ReadAt(buf, 0); err == nil {
		t.Fatal("read after Close accepted")
	}
	if err := d.WriteAt(buf, 0); err == nil {
		t.Fatal("write after Close accepted")
	}
	if err := d.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
	// A fresh disk at the same path starts empty (reopen-after-close is a
	// new generation, never a resurrection of removed state).
	d2, err := NewFileDisk(filepath.Join(dir, "err.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if d2.size != 0 {
		t.Fatalf("reopened disk has extent %d, want 0", d2.size)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	// The extent is the written one, not fstat: a reopened file starts at
	// its size on disk.
	if err := os.WriteFile(filepath.Join(dir, "kept.dat"), []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenFileDisk(filepath.Join(dir, "kept.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if d3.size != 10 {
		t.Fatalf("reopened file has extent %d, want 10", d3.size)
	}
}
