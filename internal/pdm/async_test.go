package pdm

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"colsort/internal/record"
	"colsort/internal/sim"
)

// countingDisk counts the operations reaching the wrapped disk, so tests
// can tell a prefetch-served read from a read-through.
type countingDisk struct {
	Disk
	reads, writes atomic.Int64
}

func (d *countingDisk) ReadAt(p []byte, off int64) error {
	d.reads.Add(1)
	return d.Disk.ReadAt(p, off)
}

func (d *countingDisk) WriteAt(p []byte, off int64) error {
	d.writes.Add(1)
	return d.Disk.WriteAt(p, off)
}

func TestAsyncDiskRoundTrip(t *testing.T) {
	d := NewAsyncDisk(NewMemDisk(), AsyncConfig{})
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 3)
	}
	for off := 0; off < len(data); off += 256 {
		if err := d.WriteAt(data[off:off+256], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	// Reads must observe queued (possibly unflushed) writes, and zeros past
	// the last of them.
	got := make([]byte, len(data)+64)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(data)], data) || !bytes.Equal(got[len(data):], make([]byte, 64)) {
		t.Fatal("read not coherent with write-behind queue")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncDiskPrefetchServesRead(t *testing.T) {
	inner := &countingDisk{Disk: NewMemDisk()}
	want := make([]byte, 512)
	for i := range want {
		want[i] = byte(i)
	}
	if err := inner.Disk.WriteAt(want, 128); err != nil {
		t.Fatal(err)
	}
	d := NewAsyncDisk(inner, AsyncConfig{})
	defer d.Close()

	d.Prefetch(128, 512)
	// Wait for the background fetch so the later ReadAt must be a cache hit.
	deadline := time.Now().Add(5 * time.Second)
	for inner.reads.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("prefetch never reached the inner disk")
		}
		time.Sleep(time.Millisecond)
	}
	got := make([]byte, 512)
	if err := d.ReadAt(got, 128); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("prefetched read returned wrong data")
	}
	if n := inner.reads.Load(); n != 1 {
		t.Fatalf("read went to the inner disk %d times, want 1 (prefetch hit)", n)
	}
	// A second read of the range is a plain read-through (entry consumed).
	if err := d.ReadAt(got, 128); err != nil {
		t.Fatal(err)
	}
	if n := inner.reads.Load(); n != 2 {
		t.Fatalf("consumed prefetch entry served twice (%d inner reads)", n)
	}
}

// TestAsyncDiskRefusesWriteAfterRead: an async disk serves its writes,
// then its reads. The first Prefetch or ReadAt ends the write phase for
// good: a later write is refused, naming its offset, and the bytes written
// before still read back — on a plain async disk and on a striped spill's
// lane alike.
func TestAsyncDiskRefusesWriteAfterRead(t *testing.T) {
	m := Machine{P: 1, D: 2, StripeBytes: 64, Async: &AsyncConfig{}}
	for _, read := range []struct {
		name string
		do   func(d *AsyncDisk) error
	}{
		{"Prefetch", func(d *AsyncDisk) error { d.Prefetch(0, 64); return nil }},
		{"ReadAt", func(d *AsyncDisk) error { return d.ReadAt(make([]byte, 64), 0) }},
	} {
		spill := m.WrapSpillDisk(NewMemDisk(), 0).(*stripedDisk)
		plain := NewAsyncDisk(NewMemDisk(), AsyncConfig{})
		for _, d := range []*AsyncDisk{plain, spill.arr.Disks[1].(*AsyncDisk)} {
			if err := d.WriteAt(pattern(64, 1), 0); err != nil {
				t.Fatal(err)
			}
			if err := read.do(d); err != nil {
				t.Fatal(err)
			}
			if err := d.WriteAt(pattern(64, 2), 64); err == nil || !strings.Contains(err.Error(), "offset 64") {
				t.Errorf("write after %s: %v, want a refusal naming offset 64", read.name, err)
			}
			got := make([]byte, 128)
			if err := d.ReadAt(got, 0); err != nil || !bytes.Equal(got, append(pattern(64, 1), make([]byte, 64)...)) {
				t.Errorf("after %s and a refused write: read %v, want the first write and zeros", read.name, err)
			}
		}
		if err := plain.Close(); err != nil {
			t.Fatal(err)
		}
		if err := spill.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// failFirstRead blocks its first ReadAt until gate closes and then fails
// it; later reads pass through.
type failFirstRead struct {
	Disk
	entered, gate chan struct{}
	reads         atomic.Int64
}

func (d *failFirstRead) ReadAt(p []byte, off int64) error {
	if d.reads.Add(1) == 1 {
		close(d.entered)
		<-d.gate
		return errors.New("staging read failed")
	}
	return d.Disk.ReadAt(p, off)
}

// parkedInReadAt reports whether some goroutine waits on an AsyncDisk's
// condition variable inside ReadAt.
func parkedInReadAt() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "(*AsyncDisk).ReadAt") {
			return true
		}
	}
	return false
}

// TestAsyncDiskReadOutlivesFailedPrefetch: a ReadAt that waits on an
// in-flight prefetch whose staging read then fails must leave the wait and
// read through, not hang on a fetch the worker discarded.
func TestAsyncDiskReadOutlivesFailedPrefetch(t *testing.T) {
	inner := &failFirstRead{Disk: NewMemDisk(), entered: make(chan struct{}), gate: make(chan struct{})}
	want := pattern(256, 5)
	if err := inner.Disk.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	d := NewAsyncDisk(inner, AsyncConfig{})
	defer d.Close()
	d.Prefetch(0, len(want))
	<-inner.entered // the fetch is in flight, its staging read held at the gate
	got := make([]byte, len(want))
	done := make(chan error, 1)
	go func() { done <- d.ReadAt(got, 0) }()
	// Open the gate only once the read is parked on the in-flight fetch.
	for deadline := time.Now().Add(5 * time.Second); !parkedInReadAt(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("ReadAt never waited on the in-flight prefetch")
		}
	}
	close(inner.gate)
	select {
	case err := <-done:
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read through after the failed staging read: %v, data equal %v", err, bytes.Equal(got, want))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAt still waits on a prefetch whose staging read failed")
	}
}

func TestAsyncDiskDropsExcessHints(t *testing.T) {
	d := NewAsyncDisk(NewMemDisk(), AsyncConfig{})
	defer d.Close()
	for i := 0; i < 4*DefaultReadAhead; i++ {
		d.Prefetch(int64(i)*64, 64) // must not block or grow unboundedly
	}
	d.mu.Lock()
	staged := len(d.fetches)
	d.mu.Unlock()
	if staged > DefaultReadAhead {
		t.Fatalf("%d extents staged, over the read-ahead depth %d", staged, DefaultReadAhead)
	}
	got := make([]byte, 64)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncDiskWriteErrorPropagation(t *testing.T) {
	// The fault budget admits the first write only; the second fails in the
	// background and must surface on the next operation, on Flush, and on
	// Close.
	d := NewAsyncDisk(&FaultDisk{Inner: NewMemDisk(), Budget: 8}, AsyncConfig{})
	if err := d.WriteAt(make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(make([]byte, 8), 8); err != nil && !errors.Is(err, ErrInjected) {
		t.Fatalf("queued write failed with unexpected error %v", err)
	}
	if err := d.Flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Flush = %v, want injected fault", err)
	}
	if err := d.WriteAt(make([]byte, 8), 16); !errors.Is(err, ErrInjected) {
		t.Fatalf("WriteAt after fault = %v, want latched error", err)
	}
	if err := d.ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("ReadAt after fault = %v, want latched error", err)
	}
	if err := d.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close = %v, want injected fault", err)
	}
}

func TestAsyncDiskCloseDrainsWrites(t *testing.T) {
	inner := &countingDisk{Disk: NewMemDisk()}
	d := NewAsyncDisk(inner, AsyncConfig{})
	for i := 0; i < 6; i++ {
		if err := d.WriteAt(make([]byte, 64), int64(i)*64); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := inner.writes.Load(); n != 6 {
		t.Fatalf("Close retired %d of 6 queued writes", n)
	}
	if err := d.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
}

func TestAsyncDiskBackpressure(t *testing.T) {
	// A slow inner disk fed four queues' worth of writes: WriteAt must block
	// rather than grow the queue, and every byte must still arrive in order.
	slow := NewDelayDisk(NewMemDisk(), DelayConfig{Seek: 0, BytesPerSec: 4 << 20})
	d := NewAsyncDisk(slow, AsyncConfig{})
	data := make([]byte, 4*DefaultWriteBehind<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for off := 0; off < len(data); off += 1024 {
		if err := d.WriteAt(data[off:off+1024], int64(off)); err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		queued := len(d.writes)
		d.mu.Unlock()
		if queued > DefaultWriteBehind {
			t.Fatalf("%d writes queued, over the write-behind depth %d", queued, DefaultWriteBehind)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("back-pressured writes corrupted data")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDelayDiskRoundTrip(t *testing.T) {
	d := NewDelayDisk(NewMemDisk(), DelayConfig{Seek: time.Microsecond, BytesPerSec: 1 << 30})
	if err := d.WriteAt([]byte("abc"), 10); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := d.ReadAt(got, 10); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc\x00\x00" {
		t.Fatalf("got %q", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMachineAsyncStoreRoundTrip(t *testing.T) {
	m := Machine{P: 2, D: 4, StripeBytes: 256,
		Async: &AsyncConfig{}}
	st, err := m.NewStore(32, 4, 16, ColumnOwned)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := record.Uniform{Seed: 7}
	if err := st.Fill(g); err != nil {
		t.Fatal(err)
	}
	// Prefetch hints ahead of the snapshot reads must not perturb contents.
	for j := 0; j < 4; j++ {
		st.PrefetchRows(j%2, j, 0, st.R)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := record.Make(32*4, 16)
	record.Fill(want, g, 0)
	if !bytes.Equal(snap.Data, want.Data) {
		t.Fatal("async-backed store corrupted data")
	}
	for p := 0; p < 2; p++ {
		if err := st.Flush(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStorePrefetchRejectsForeign(t *testing.T) {
	st := newTestStore(t, 64, 8, 16, 4, ColumnOwned)
	// None of these may panic or touch foreign state: advisory no-ops.
	st.PrefetchRows(1, 0, 0, st.R)  // column 0 belongs to processor 0
	st.PrefetchRows(0, 99, 0, st.R) // out of range
	st.PrefetchRows(0, 0, 60, 10)
	st.PrefetchRows(9, 0, 0, 1)
	var cnt sim.Counters
	buf := record.Make(64, 16)
	if err := st.ReadColumn(&cnt, 0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(9); err == nil {
		t.Fatal("Flush accepted an out-of-range processor")
	}
}
