package pdm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"colsort/internal/record"
	"colsort/internal/sim"
)

// names lists the base names of the files under dir.
func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// TestRecycledFileDisk: a disk on a pooled file starts empty whatever the
// file held — extent 0, zeros past its extent and in every hole below it,
// before and after a read — names its own path, and is removed rather than
// pooled once an operation failed. Writes that fill the stale prefix out of
// order leave nothing to zero at the first read.
func TestRecycledFileDisk(t *testing.T) {
	dir := t.TempDir()
	pool := NewFilePool(dir)
	b := FileBackend{Dir: dir, Prefix: "job00001-", Pool: pool}
	poison := bytes.Repeat([]byte{0xA5}, 8192)

	d1, err := b.NewDisk(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.WriteAt(poison, 0); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	got := names(t, dir)
	if len(got) != 1 || strings.HasPrefix(got[0], b.Prefix) {
		t.Fatalf("after Close the directory holds %v, want one pool file without the job prefix", got)
	}
	pooled, err := os.Stat(filepath.Join(dir, got[0]))
	if err != nil {
		t.Fatal(err)
	}

	b.Prefix = "job00002-"
	disk, err := b.NewDisk(1)
	if err != nil {
		t.Fatal(err)
	}
	d2 := disk.(*FileDisk)
	if got := names(t, dir); len(got) != 1 || got[0] != filepath.Base(d2.Path()) || !strings.HasPrefix(got[0], b.Prefix) {
		t.Fatalf("recycled disk's file is %v, Path %q", got, d2.Path())
	}
	if fi, err := os.Stat(d2.Path()); err != nil || !os.SameFile(fi, pooled) {
		t.Fatalf("second disk is not on the first one's file")
	}
	if d2.size != 0 {
		t.Fatalf("recycled disk has extent %d, want 0", d2.size)
	}
	buf := make([]byte, 16)
	if err := d2.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("read of an empty recycled disk = %x, %v; want zeros", buf, err)
	}
	// A short extent, then a write past a gap: both the tail past the
	// extent and the gap read as zeros, as in a fresh sparse file.
	if err := d2.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d2.ReadAt(buf[:8], 0); err != nil || !bytes.Equal(buf[:8], []byte{'a', 'b', 'c', 0, 0, 0, 0, 0}) {
		t.Fatalf("read across the extent = %q, %v", buf[:8], err)
	}
	if err := d2.WriteAt([]byte("xyz"), 4096); err != nil {
		t.Fatal(err)
	}
	if d2.size != 4099 {
		t.Fatalf("extent = %d, want 4099", d2.size)
	}
	gap := make([]byte, 4096)
	if err := d2.ReadAt(gap, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gap[:4093], make([]byte, 4093)) || string(gap[4093:]) != "xyz" {
		t.Fatalf("gap below the extent holds the previous user's bytes")
	}
	// Holes made after that read, one of them written before the next read,
	// one after it: each reads back as written, the rest as zeros.
	for _, w := range []struct {
		off int64
		s   string
	}{{6000, "q"}, {7000, "r"}, {6500, "s"}} {
		if err := d2.WriteAt([]byte(w.s), w.off); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]byte, 7001-4099)
	want[6000-4099], want[6500-4099], want[7000-4099] = 'q', 's', 'r'
	holes := make([]byte, len(want))
	if err := d2.ReadAt(holes, 4099); err != nil || !bytes.Equal(holes, want) {
		t.Fatalf("holes written after a read: %v, or the previous user's bytes show", err)
	}
	if err := d2.WriteAt([]byte("t"), 5000); err != nil {
		t.Fatal(err)
	}
	want[5000-4099] = 't'
	if err := d2.ReadAt(holes, 4099); err != nil || !bytes.Equal(holes, want) {
		t.Fatalf("a write into a zeroed hole: %v, or it does not read back", err)
	}

	// The file closed underneath the disk: the write fails, names the
	// disk's current path, and Close removes the file instead of pooling it.
	d2.f.Close()
	err = d2.WriteAt([]byte("late"), 0)
	if err == nil || !strings.Contains(err.Error(), d2.Path()) {
		t.Fatalf("write to a closed file: %v, want an error naming %s", err, d2.Path())
	}
	d2.Close()
	if got := names(t, dir); len(got) != 0 {
		t.Fatalf("failed disk left %v behind", got)
	}
	if _, _, free := pool.Stats(); free != 0 {
		t.Fatalf("failed disk's file pooled")
	}
	d3, err := b.NewDisk(2)
	if err != nil {
		t.Fatal(err)
	}
	if open, peak, _ := pool.Stats(); d3.(*FileDisk).stale != 0 || open != 1 || peak != 1 {
		t.Fatalf("after a failed disk: stale %d, %d open, peak %d; want a fresh file", d3.(*FileDisk).stale, open, peak)
	}
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	if got := names(t, dir); len(got) != 0 {
		t.Fatalf("closed pool left %v behind", got)
	}
	// A disk closed after its pool removes its own file.
	d4, err := b.NewDisk(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d4.Close(); err != nil {
		t.Fatal(err)
	}
	if got := names(t, dir); len(got) != 0 {
		t.Fatalf("disk closed after its pool left %v behind", got)
	}

	// An out-of-order fill of a whole poisoned file: the spans coalesce as
	// the blocks land, and nothing of the previous user is left to zero.
	dir = t.TempDir()
	b = FileBackend{Dir: dir, Pool: NewFilePool(dir)}
	defer b.Pool.Close()
	const block = 4096
	d5, err := b.NewDisk(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d5.WriteAt(bytes.Repeat(poison[:1], 4*block), 0); err != nil {
		t.Fatal(err)
	}
	d5.Close()
	disk, err = b.NewDisk(5)
	if err != nil {
		t.Fatal(err)
	}
	d6 := disk.(*FileDisk)
	defer d6.Close()
	data := make([]byte, 4*block)
	for i := range data {
		data[i] = byte(i / block)
	}
	for k, blk := range []int64{2, 0, 3, 1} {
		if err := d6.WriteAt(data[blk*block:(blk+1)*block], blk*block); err != nil {
			t.Fatal(err)
		}
		wantSpans := [][]span{{{2 * block, 3 * block}}, {{0, block}, {2 * block, 3 * block}}, {{0, block}, {2 * block, 4 * block}}, nil}[k]
		if !slices.Equal(d6.spans, wantSpans) {
			t.Fatalf("after block %d the written spans are %v, want %v", blk, d6.spans, wantSpans)
		}
	}
	if d6.stale != 0 || len(d6.spans) != 0 {
		t.Fatalf("a filled file keeps a stale prefix of %d bytes and spans %v", d6.stale, d6.spans)
	}
	back := make([]byte, len(data))
	if err := d6.ReadAt(back, 0); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("read back of the out-of-order fill: %v, or it differs", err)
	}
}

// TestKeepDiskFromPool: a keep backend (a checkpointed job's runs) takes a
// pooled file and renames it into its own directory — or creates one when the
// rename fails — and Sync leaves the file exactly the disk's bytes. Close
// leaves a keep disk's file where it is; a retired one goes back to the
// pool's home, unless an operation failed, and then it is removed.
func TestKeepDiskFromPool(t *testing.T) {
	home, ckpt := t.TempDir(), t.TempDir()
	pool := NewFilePool(home)
	defer pool.Close()
	scratch := FileBackend{Dir: home, Prefix: "job00001-", Pool: pool}
	keep := FileBackend{Dir: ckpt, Prefix: "ckpt-", Keep: true, Pool: pool}
	seed := func() {
		d, err := scratch.NewDisk(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteAt(bytes.Repeat([]byte{0xA5}, 8192), 0); err != nil {
			t.Fatal(err)
		}
		d.Close()
	}
	stats := func(wantOpen, wantFree int) {
		t.Helper()
		if open, _, free := pool.Stats(); open != wantOpen || free != wantFree {
			t.Fatalf("pool has %d open, %d free; want %d and %d", open, free, wantOpen, wantFree)
		}
	}
	payload := []byte("a run's own bytes")

	// Drawn from the pool, synced, closed: the file stays in the checkpoint
	// directory, holding the payload and nothing of the 0xA5 file it was.
	seed()
	pooled := names(t, home)
	disk, err := keep.NewDisk(0)
	if err != nil {
		t.Fatal(err)
	}
	d1 := disk.(*FileDisk)
	if filepath.Dir(d1.Path()) != ckpt || len(names(t, home)) != 0 {
		t.Fatalf("keep disk at %s, home holds %v; want the pooled file %v moved into %s", d1.Path(), names(t, home), pooled, ckpt)
	}
	stats(1, 0)
	if err := d1.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := SyncDisk(d1); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(d1.Path()); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("synced recycled file holds %q (%v), want exactly %q", got, err, payload)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(d1.Path()); err != nil {
		t.Fatalf("keep disk's Close removed its file: %v", err)
	}
	stats(0, 0)

	// Retired: back home under a pool name, for the next disk.
	seed()
	d2, err := keep.NewDisk(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	Retire(d2)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(DiskPath(d2)); !os.IsNotExist(err) {
		t.Fatalf("retired keep disk's file is still at %s (%v)", DiskPath(d2), err)
	}
	if got := names(t, home); len(got) != 1 || !strings.HasPrefix(got[0], "pool-") {
		t.Fatalf("home holds %v after the retire, want one pool file", got)
	}
	stats(0, 1)

	// A failed Sync: retired, the file is removed, never pooled.
	disk, err = keep.NewDisk(2)
	if err != nil {
		t.Fatal(err)
	}
	d3 := disk.(*FileDisk)
	stats(1, 0)
	if err := d3.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	d3.f.Close() // the file fails underneath the disk
	if err := SyncDisk(d3); err == nil {
		t.Fatal("Sync of a closed file succeeded")
	}
	Retire(d3)
	d3.Close()
	if _, err := os.Stat(d3.Path()); !os.IsNotExist(err) {
		t.Fatalf("a run whose Sync failed left %s (%v)", d3.Path(), err)
	}
	if got := names(t, home); len(got) != 0 {
		t.Fatalf("a run whose Sync failed was pooled: home holds %v", got)
	}
	stats(0, 0)

	// The rename fails (the directory is gone, as across filesystems): the
	// pooled file stays in the pool, for the next disk, and this one gets a
	// new file.
	seed()
	pooled = names(t, home)
	gone := filepath.Join(ckpt, "gone")
	disk, err = FileBackend{Dir: gone, Keep: true, Pool: pool}.NewDisk(3)
	if err != nil {
		t.Fatal(err)
	}
	d4 := disk.(*FileDisk)
	if got := names(t, home); filepath.Dir(d4.Path()) != gone || d4.stale != 0 || !slices.Equal(got, pooled) {
		t.Fatalf("after a failed rename: disk at %s, stale %d, home %v; want a new file in %s and home still %v",
			d4.Path(), d4.stale, got, gone, pooled)
	}
	stats(1, 1)
	d4.Close()
	stats(0, 1)
}

// BenchmarkStorePass is one pass over a file-backed store — every column
// written, then read back — on new files (pool=none, each disk created and
// unlinked) and on recycled ones (pool=warm).
func BenchmarkStorePass(b *testing.B) {
	const r, s, z, p = 8192, 16, 64, 2
	cols := make([]record.Slice, s)
	for j := range cols {
		cols[j] = record.Make(r, z)
		record.Fill(cols[j], record.Uniform{Seed: uint64(j)}, 0)
	}
	dst := record.Make(r, z)
	for _, warm := range []bool{false, true} {
		b.Run(fmt.Sprintf("pool=%s", map[bool]string{false: "none", true: "warm"}[warm]), func(b *testing.B) {
			backend := FileBackend{Dir: b.TempDir()}
			if warm {
				backend.Pool = NewFilePool(backend.Dir)
				defer backend.Pool.Close()
			}
			m := Machine{P: p, D: p, Backend: backend}
			pass := func() {
				st, err := m.NewStore(r, s, z, ColumnOwned)
				if err != nil {
					b.Fatal(err)
				}
				var cnt sim.Counters
				for j := range cols {
					if err := st.WriteRows(&cnt, st.Owner(0, j), j, 0, cols[j]); err != nil {
						b.Fatal(err)
					}
				}
				for j := range cols {
					if err := st.ReadRows(&cnt, st.Owner(0, j), j, 0, dst); err != nil {
						b.Fatal(err)
					}
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
			if warm {
				pass()
			}
			b.SetBytes(r * s * z)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}
