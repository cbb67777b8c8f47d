package pdm

// Tests of the striped spill disk (spill.go) and of the service-time model
// it multiplies (Head, DelayDisk). The model tests are deterministic: they
// audit what the heads CHARGED, and bound wall time only from below — a
// sleep can overshoot, never undershoot.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// pattern fills n bytes that differ at every offset and between salts.
func pattern(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7) ^ byte(i>>8) ^ salt
	}
	return p
}

// The benchmark's geometry, scaled down 16×: the frame does not divide into
// stripes, so frames start and end mid-stripe on every lane in turn.
const (
	modelD      = 4
	modelStripe = 65536 / 16
	modelFrame  = 419392 / 16
)

var modelDelay = DelayConfig{Seek: 100 * time.Microsecond, BytesPerSec: 64 << 20}

// modelMachine is a D = 4 machine with modeled asynchronous disks and the
// shared heads of one job.
func modelMachine() Machine {
	return Machine{P: 1, D: modelD, StripeBytes: modelStripe,
		Async: &AsyncConfig{}, Delay: &modelDelay, Heads: NewHeads(modelD)}
}

// writeFrames writes data frame by frame, the way merge.Writer does.
func writeFrames(t *testing.T, d Disk, data []byte) {
	t.Helper()
	for off := 0; off < len(data); off += modelFrame {
		if err := d.WriteAt(data[off:min(off+modelFrame, len(data))], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.(Flusher).Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedSpillModel writes one run through the striped stack at D = 4
// and reads it back one frame ahead, then audits the heads: (a) the model
// conserves work — the charged time sums to bytes ÷ rate + seeks × seek;
// (b) the work is spread — no head transferred more than 1/D of it plus one
// stripe per direction; (c) the heads' parallelism is all there is — wall
// time is at least bytes ÷ (D × rate).
func TestStripedSpillModel(t *testing.T) {
	m := modelMachine()
	backing := &countingDisk{Disk: NewMemDisk()}
	d := m.WrapSpillDisk(backing, 0)
	data := pattern(10*modelFrame+777, 1)

	t0 := time.Now()
	writeFrames(t, d, data)
	got := make([]byte, len(data))
	pf := d.(Prefetcher)
	pf.Prefetch(0, modelFrame)
	for off := 0; off < len(data); off += modelFrame {
		end := min(off+modelFrame, len(data))
		if end < len(data) {
			pf.Prefetch(int64(end), min(modelFrame, len(data)-end))
		}
		if err := d.ReadAt(got[off:end], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	wall := time.Since(t0)
	if !bytes.Equal(got, data) {
		t.Fatal("striped round trip corrupted the run")
	}

	rate := float64(modelDelay.BytesPerSec)
	secs := func(bytes int) time.Duration { return time.Duration(float64(bytes) / rate * float64(time.Second)) }
	// Each charge truncates its transfer time to a whole nanosecond.
	slack := time.Duration(backing.reads.Load() + backing.writes.Load())
	var sum, seekTime time.Duration
	for l, h := range m.Heads {
		busy, seeks := h.Charged()
		sum += busy
		seekTime += time.Duration(seeks) * modelDelay.Seek
		if seeks < 2 {
			t.Errorf("head %d charged %d seeks, want at least the first write and the first read", l, seeks)
		}
		transfer := busy - time.Duration(seeks)*modelDelay.Seek
		if most := secs(2 * (len(data)/modelD + modelStripe)); transfer > most {
			t.Errorf("(b) head %d transferred for %v, more than 1/D of the run plus a stripe each way (%v)", l, transfer, most)
		}
	}
	if want := secs(2*len(data)) + seekTime; sum > want || sum < want-slack {
		t.Errorf("(a) heads charged %v, want bytes ÷ rate + seeks × seek = %v (−%v of truncation)", sum, want, slack)
	}
	if least := secs(2*len(data)) / modelD; wall < least-slack {
		t.Errorf("(c) %d bytes moved in %v: faster than %d disks allow (%v)", 2*len(data), wall, modelD, least)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedHeadsSeekPerSwitch reads two runs of one job in turn. They share
// the job's heads, so (d) every switch between them moves each arm: read
// whole, a run seeks once per head; interleaved row by row, once per piece.
func TestSharedHeadsSeekPerSwitch(t *testing.T) {
	m := modelMachine()
	m.Delay = &DelayConfig{Seek: time.Microsecond} // the count is the point, not the time
	const rows = 6
	row := modelD * modelStripe
	var runs [2]Disk
	for i := range runs {
		runs[i] = m.WrapSpillDisk(NewMemDisk(), i)
		defer runs[i].Close()
		if err := runs[i].WriteAt(pattern(rows*row, byte(i)), 0); err != nil {
			t.Fatal(err)
		}
		if err := runs[i].(Flusher).Flush(); err != nil {
			t.Fatal(err)
		}
	}
	seeks := func() (n int64) {
		for _, h := range m.Heads {
			_, s := h.Charged()
			n += s
		}
		return n
	}
	buf := make([]byte, row)
	var next [2]int64 // each run is read front to back, once, across both passes
	read := func(order []int) int64 {
		before := seeks()
		for _, i := range order {
			if err := runs[i].ReadAt(buf, next[i]); err != nil {
				t.Fatal(err)
			}
			next[i] += int64(row)
		}
		return seeks() - before
	}
	// One run after the other: the first read of each run finds every arm
	// elsewhere (on the other run's last write, then its last read).
	if got := read([]int{0, 0, 0, 1, 1, 1}); got != 2*modelD {
		t.Errorf("two runs read whole charged %d seeks, want one per run per head = %d", got, 2*modelD)
	}
	// Interleaved, every read of a row switches all D arms — although each
	// run's own accesses stay perfectly sequential.
	if got := read([]int{0, 1, 0, 1, 0, 1}); got != 6*modelD {
		t.Errorf("two runs interleaved charged %d seeks, want one per switch per head = %d", got, 6*modelD)
	}
}

// TestDelayDiskOwnHead pins the array disks' model: a DelayDisk on a head of
// its own seeks exactly when its own stream is discontiguous, reads and
// writes tracked apart.
func TestDelayDiskOwnHead(t *testing.T) {
	d := NewDelayDisk(NewMemDisk(), DelayConfig{Seek: time.Microsecond})
	buf := make([]byte, 8)
	for _, off := range []int64{0, 8, 16} { // one seek, then sequential
		if err := d.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	for _, off := range []int64{0, 8, 0} { // seek, sequential, seek
		if err := d.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WriteAt(buf, 24); err != nil { // continues the write stream
		t.Fatal(err)
	}
	if busy, seeks := d.head.Charged(); seeks != 3 || busy != 3*time.Microsecond {
		t.Errorf("charged %d seeks / %v, want 3 / 3µs", seeks, busy)
	}
}

// failLane fails every write that lands on one lane's stripes, permanently.
type failLane struct {
	Disk
	lane, d, stripe int64
}

var errLane = errors.New("lane write failed")

func (f failLane) WriteAt(p []byte, off int64) error {
	if off/f.stripe%f.d == f.lane {
		return MarkPermanent(errLane)
	}
	return f.Disk.WriteAt(p, off)
}

// TestStripedSpillLaneErrorSurfaces latches a deferred write error on each
// lane in turn — the failing stripe is the last the lane ever sees, so no
// later write can report it — and requires Flush and SyncDisk to.
func TestStripedSpillLaneErrorSurfaces(t *testing.T) {
	for lane := int64(0); lane < modelD; lane++ {
		m := Machine{P: 1, D: modelD, StripeBytes: modelStripe, Async: &AsyncConfig{}, Retry: &RetryConfig{}}
		d := m.WrapSpillDisk(failLane{NewMemDisk(), lane, modelD, modelStripe}, 0)
		if err := d.WriteAt(pattern(modelD*modelStripe, 0), 0); err != nil && !errors.Is(err, errLane) {
			t.Fatal(err)
		}
		if err := d.(Flusher).Flush(); !errors.Is(err, errLane) {
			t.Errorf("lane %d: Flush = %v, want the lane's latched write error", lane, err)
		}
		if err := SyncDisk(d); !errors.Is(err, errLane) {
			t.Errorf("lane %d: SyncDisk = %v, want the lane's latched write error", lane, err)
		}
		var oe *OpError
		if err := d.Close(); !errors.As(err, &oe) || !oe.Spill {
			t.Errorf("lane %d: Close = %v, want the latched error with its spill-disk context", lane, err)
		}
	}
}

// TestStripedSpillOneFile: a striped run is still ONE file — the walkers
// find it under the lanes, SyncDisk flushes every lane before the one fsync,
// and the file holds the bytes at their logical offsets, exactly as an
// unstriped spill lays them out.
func TestStripedSpillOneFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "striped.dat")
	fd, err := NewKeepFileDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	m := modelMachine()
	m.Retry = &RetryConfig{}
	d := m.WrapSpillDisk(fd, 0)
	if DiskFile(d) != fd || DiskPath(d) != path {
		t.Errorf("walkers through the lanes: DiskFile %v, DiskPath %q; want the one backing file %q", DiskFile(d), DiskPath(d), path)
	}
	data := pattern(2*modelFrame+5, 3)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := SyncDisk(d); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("after SyncDisk the file holds %d bytes (err %v), want the run's %d in logical order", len(got), err, len(data))
	}
	if d.Size() != int64(len(data)) {
		t.Errorf("Size = %d, want %d", d.Size(), len(data))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("keep-on-close backing file: %v", err)
	}
}

// TestSpillStackShape pins when a spill is striped: only where there is a
// per-disk layer to multiply and more than one disk to multiply it over.
func TestSpillStackShape(t *testing.T) {
	for _, tc := range []struct {
		name    string
		m       Machine
		striped bool
	}{
		{"sync, no model", Machine{P: 4, D: 4, Retry: &RetryConfig{}}, false},
		{"async", Machine{P: 4, D: 4, Async: &AsyncConfig{}}, true},
		{"model only", Machine{P: 4, D: 4, Delay: &modelDelay}, true},
		{"async + model, one disk", Machine{P: 1, D: 1, Async: &AsyncConfig{}, Delay: &modelDelay}, false},
	} {
		d, err := tc.m.NewSpillDisk(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := d.(*stripedDisk); ok != tc.striped {
			t.Errorf("%s: spill disk is a %T, striped = %v, want %v", tc.name, d, ok, tc.striped)
		}
		d.Close()
	}
}

// FuzzStripedSpill drives random WriteAt / Prefetch / ReadAt / Flush / Size
// sequences through the striped stack against a flat MemDisk, at D ∈ {1, 2,
// 3, 4} and any stripe unit: every read returns what the oracle holds,
// whatever was hinted, queued or invalidated in between, and at the end the
// backing disk IS the oracle, byte for byte.
//
// Each 8-byte group of script is one operation: kind, 3 bytes of offset, 3
// of length, a fill salt.
func FuzzStripedSpill(f *testing.F) {
	op := func(kind byte, off, n int, salt byte) []byte {
		return []byte{kind, byte(off), byte(off >> 8), byte(off >> 16), byte(n), byte(n >> 8), byte(n >> 16), salt}
	}
	// The benchmark's geometry: 419 392-byte frames on a 65 536-byte stripe,
	// written, flushed and read back one frame ahead.
	var bench []byte
	const frame = 419392
	for i := 0; i < 3; i++ {
		bench = append(bench, op(0, i*frame, frame, byte(i))...)
	}
	bench = append(bench, op(3, 0, 0, 0)...)
	for i := 0; i < 3; i++ {
		bench = append(bench, op(1, (i+1)*frame, frame, 0)...)
		bench = append(bench, op(2, i*frame, frame, 0)...)
	}
	f.Add(uint8(3), uint32(65536-1), bench)
	f.Add(uint8(2), uint32(1000-1), append(append(op(0, 10, 5000, 1), op(1, 0, 4096, 0)...), op(2, 0, 4096, 0)...))
	f.Add(uint8(1), uint32(7-1), append(op(0, 100, 50, 9), op(2, 90, 70, 0)...))
	f.Add(uint8(0), uint32(512-1), append(op(1, 0, 2048, 0), op(0, 512, 1024, 4)...))
	// Past both queue depths: more writes than DefaultWriteBehind before a
	// flush (back-pressure) and more hints than DefaultReadAhead (dropped).
	var deep []byte
	for i := 0; i < 2*DefaultWriteBehind; i++ {
		deep = append(deep, op(0, i*300, 300, byte(i))...)
	}
	for i := 0; i < 2*DefaultReadAhead; i++ {
		deep = append(deep, op(1, i*300, 300, 0)...)
	}
	for i := 0; i < 2*DefaultReadAhead; i++ {
		deep = append(deep, op(2, i*300, 300, 0)...)
	}
	f.Add(uint8(0), uint32(1024-1), append(deep, op(3, 0, 0, 0)...)) // D = 1: one queue takes them all

	f.Fuzz(func(t *testing.T, lanes uint8, stripe uint32, script []byte) {
		m := Machine{P: 1, D: 1 + int(lanes%4), StripeBytes: 1 + int(stripe%(1<<16)),
			Async: &AsyncConfig{}, Retry: &RetryConfig{}}
		backing, oracle := NewMemDisk(), NewMemDisk()
		d := m.WrapSpillDisk(backing, 0)
		for ; len(script) >= 8; script = script[8:] {
			off := int64(script[1]) | int64(script[2])<<8 | int64(script[3])<<16
			n := int(script[4]) | int(script[5])<<8 | int(script[6])<<16
			// Extents of up to 16 stripes within the first 256: long enough to
			// wrap every lane several times, short enough that a 1-byte stripe
			// does not turn one operation into half a million.
			off, n = off%int64(256*m.StripeBytes), n%(16*m.StripeBytes+1)
			switch script[0] % 5 {
			case 0:
				if n == 0 {
					continue // a MemDisk grows to an empty write's offset; a lane never sees one
				}
				p := pattern(n, script[7])
				if err := d.WriteAt(p, off); err != nil {
					t.Fatal(err)
				}
				oracle.WriteAt(p, off)
			case 1:
				if pf, ok := d.(Prefetcher); ok {
					pf.Prefetch(off, n)
				}
			case 2:
				got, want := make([]byte, n), make([]byte, n)
				if err := d.ReadAt(got, off); err != nil {
					t.Fatal(err)
				}
				oracle.ReadAt(want, off)
				if !bytes.Equal(got, want) {
					t.Fatalf("D=%d stripe=%d: read [%d,+%d) differs from the oracle", m.D, m.StripeBytes, off, n)
				}
			case 3:
				if err := d.(Flusher).Flush(); err != nil {
					t.Fatal(err)
				}
			case 4:
				if got, want := d.Size(), oracle.Size(); got != want {
					t.Fatalf("D=%d stripe=%d: Size = %d, oracle %d", m.D, m.StripeBytes, got, want)
				}
			}
		}
		if err := SyncDisk(d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(backing.data, oracle.data) {
			t.Fatalf("D=%d stripe=%d: the backing disk's %d bytes are not the oracle's %d", m.D, m.StripeBytes, len(backing.data), len(oracle.data))
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
