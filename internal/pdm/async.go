package pdm

import (
	"fmt"
	"sync"
	"time"

	"colsort/internal/record"
)

// This file is the asynchronous I/O layer of the PDM substrate: AsyncDisk
// overlaps a disk's service time with the computation of the pass that
// drives it, the way the paper's threaded implementation dedicates I/O
// threads per disk. Reads are overlapped by PREFETCH: the passes know their
// exact future access sequence (the round → column maps compiled in
// internal/core's pattern plans), hint it ahead, and a background worker
// stages the extents so the blocking ReadAt becomes a copy. Writes are
// overlapped by WRITE-BEHIND: WriteAt snapshots the caller's buffer into a
// bounded queue and returns, and the worker retires the queue in issue
// order; callers observe deferred write errors on every later operation, on
// Flush, and on Close.
//
// I/O accounting is unaffected by the layer on purpose: DiskArray charges
// sim.Counters when an operation is ISSUED (bytes and contiguity of the
// logical access pattern), while AsyncDisk only moves the COMPLETION of the
// physical transfer off the issuing goroutine. A sync and an async run of
// the same pass therefore report identical operation counts.

// Prefetcher is implemented by disks that accept read-ahead hints. Hints
// are advisory: a disk may drop them (bounded buffering), and correctness
// never depends on a hint being served.
type Prefetcher interface {
	Prefetch(off int64, n int)
}

// Flusher is implemented by disks whose writes may complete asynchronously.
// Flush blocks until every write issued so far has reached the underlying
// disk and returns the first deferred write error, if any.
type Flusher interface {
	Flush() error
}

// AsyncConfig sizes the per-disk queues of the asynchronous I/O layer.
type AsyncConfig struct {
	// ReadAhead is the maximum number of prefetched extents staged per
	// disk; further hints are dropped. ≤0 selects DefaultReadAhead.
	ReadAhead int
	// WriteBehind is the maximum number of buffered write operations per
	// disk; a full queue applies back-pressure to WriteAt. ≤0 selects
	// DefaultWriteBehind.
	WriteBehind int
	// Pool supplies the prefetch staging and write-behind snapshot buffers.
	// Machine wires each disk to its owning processor's record pool, so the
	// buffers survive the per-pass store lifecycle (stores — and their
	// AsyncDisks — are created and closed once per pass). A nil Pool
	// allocates every buffer. The disk calls it under its own lock: the
	// pool's lock is a leaf.
	Pool *record.Pool
}

// Default queue depths: enough to keep one column extent in flight per
// direction ahead of the pipeline (a column is split into a handful of
// stripe-sized chunks) without growing memory beyond a few stripes.
const (
	DefaultReadAhead   = 8
	DefaultWriteBehind = 16
)

func (c AsyncConfig) withDefaults() AsyncConfig {
	if c.ReadAhead <= 0 {
		c.ReadAhead = DefaultReadAhead
	}
	if c.WriteBehind <= 0 {
		c.WriteBehind = DefaultWriteBehind
	}
	return c
}

const (
	fetchQueued = iota
	fetchInFlight
	fetchDone
)

// fetch is one staged read-ahead extent, keyed by offset. doomed marks an
// entry invalidated (by an overlapping write, or claimed by a direct read)
// whose buffer the worker must discard rather than publish.
type fetch struct {
	off    int64
	data   []byte
	state  int
	doomed bool
}

type writeOp struct {
	off  int64
	data []byte
}

// AsyncDisk wraps a Disk with a single background worker providing
// prefetched reads and write-behind. It preserves the Disk contract:
//
//   - Writes complete in issue order, so later reads and Size observe a
//     prefix of the issued writes plus anything already flushed.
//   - ReadAt is coherent with pending writes: a read overlapping a queued
//     write waits for that write to retire first.
//   - The first deferred write error is latched and returned by every
//     subsequent WriteAt/ReadAt, by Flush, and by Close, so a failure can
//     not be silently dropped between pipeline rounds.
//
// An AsyncDisk is safe for concurrent use even when the wrapped disk is not
// (all inner access is serialized), which is what lets it wrap MemDisk and
// FaultDisk in tests as well as FileDisk in real runs.
type AsyncDisk struct {
	inner Disk
	cfg   AsyncConfig

	// ioMu serializes access to inner between the worker and direct reads,
	// modeling the single head of one disk.
	ioMu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond
	writes  []writeOp // issue-order queue; writes[0] may be in flight
	werr    error     // first deferred write error, latched
	maxEnd  int64     // end of the furthest write ever queued
	fetches map[int64]*fetch
	fetchq  []*fetch // FIFO of queued fetches
	closing bool
	done    chan struct{}
}

// NewAsyncDisk wraps inner and starts its worker. The caller must Close the
// AsyncDisk (which drains pending writes and closes inner).
func NewAsyncDisk(inner Disk, cfg AsyncConfig) *AsyncDisk {
	d := &AsyncDisk{
		inner:   inner,
		cfg:     cfg.withDefaults(),
		fetches: make(map[int64]*fetch),
		done:    make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	go d.worker()
	return d
}

// worker retires queued writes (in issue order, with priority) and serves
// queued prefetches. It exits only after Close is requested AND the write
// queue has drained, so Close never loses buffered data.
func (d *AsyncDisk) worker() {
	defer close(d.done)
	d.mu.Lock()
	for {
		if len(d.writes) > 0 {
			op := d.writes[0]
			d.mu.Unlock()
			d.ioMu.Lock()
			err := d.inner.WriteAt(op.data, op.off)
			d.ioMu.Unlock()
			d.mu.Lock()
			if err != nil && d.werr == nil {
				d.werr = err
			}
			copy(d.writes, d.writes[1:])
			d.writes[len(d.writes)-1] = writeOp{}
			d.writes = d.writes[:len(d.writes)-1]
			d.cfg.Pool.PutBytes(op.data)
			d.cond.Broadcast()
			continue
		}
		if f := d.popFetch(); f != nil {
			f.state = fetchInFlight
			d.mu.Unlock()
			d.ioMu.Lock()
			err := d.inner.ReadAt(f.data, f.off)
			d.ioMu.Unlock()
			d.mu.Lock()
			if err != nil || f.doomed {
				d.discardFetch(f)
			} else {
				f.state = fetchDone
			}
			d.cond.Broadcast()
			continue
		}
		if d.closing {
			break
		}
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// popFetch returns the next live queued fetch, discarding doomed ones.
// Caller holds mu.
func (d *AsyncDisk) popFetch() *fetch {
	for len(d.fetchq) > 0 {
		f := d.fetchq[0]
		copy(d.fetchq, d.fetchq[1:])
		d.fetchq[len(d.fetchq)-1] = nil
		d.fetchq = d.fetchq[:len(d.fetchq)-1]
		if f.doomed {
			d.discardFetch(f)
			d.cond.Broadcast()
			continue
		}
		return f
	}
	return nil
}

// discardFetch releases a fetch entry's buffer and unmaps it — but only if
// the map still points at THIS entry: the offset may have been re-hinted
// after a direct read claimed and unmapped the old one. Caller holds mu.
func (d *AsyncDisk) discardFetch(f *fetch) {
	if cur, ok := d.fetches[f.off]; ok && cur == f {
		delete(d.fetches, f.off)
	}
	f.doomed = true
	if f.data != nil {
		d.cfg.Pool.PutBytes(f.data)
		f.data = nil
	}
}

// overlapsPendingWrite reports whether [off, off+n) intersects any queued
// (or in-flight) write. Caller holds mu.
func (d *AsyncDisk) overlapsPendingWrite(off int64, n int) bool {
	end := off + int64(n)
	for _, op := range d.writes {
		if off < op.off+int64(len(op.data)) && op.off < end {
			return true
		}
	}
	return false
}

// Prefetch stages a background read of [off, off+n). Hints beyond the
// ReadAhead budget, duplicates, and hints shadowed by pending writes are
// dropped: correctness never depends on a hint.
func (d *AsyncDisk) Prefetch(off int64, n int) {
	if off < 0 || n <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closing || d.werr != nil {
		return
	}
	if _, ok := d.fetches[off]; ok {
		return
	}
	if len(d.fetches) >= d.cfg.ReadAhead {
		return
	}
	if d.overlapsPendingWrite(off, n) {
		return
	}
	f := &fetch{off: off, data: d.cfg.Pool.GetBytes(n)}
	d.fetches[off] = f
	d.fetchq = append(d.fetchq, f)
	d.cond.Broadcast()
}

// ReadAt serves the read from a completed prefetch when one covers the
// range, waiting out any overlapping pending write first; otherwise it
// reads through. A consumed prefetch entry is released. Reads are
// guaranteed to observe every write issued before the read began: any wait
// (for a pending write or an in-flight fetch) loops back to the coherence
// check before a read-through, since new writes may have queued meanwhile.
func (d *AsyncDisk) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	for {
		for d.werr == nil && d.overlapsPendingWrite(off, len(p)) {
			d.cond.Wait()
		}
		if d.werr != nil {
			err := d.werr
			d.mu.Unlock()
			return err
		}
		f, ok := d.fetches[off]
		if !ok || f.doomed || len(f.data) < len(p) {
			break // no usable staged extent: read through
		}
		if f.state == fetchQueued {
			// Claim it: a direct read now beats waiting behind the worker's
			// queue. Unmap so the offset can be hinted again; the queue
			// entry is discarded (and its buffer recycled) when popped.
			f.doomed = true
			delete(d.fetches, off)
			break
		}
		if f.state == fetchDone {
			// A write overlapping this extent would have doomed it, so a
			// live done entry is coherent with the queue.
			copy(p, f.data[:len(p)])
			delete(d.fetches, f.off)
			d.cfg.Pool.PutBytes(f.data)
			d.mu.Unlock()
			return nil
		}
		// In flight: wait for completion, then re-establish coherence —
		// a write may have arrived (and doomed the fetch) while we waited.
		for f.state == fetchInFlight && !f.doomed {
			d.cond.Wait()
		}
		if f.state == fetchDone && !f.doomed {
			copy(p, f.data[:len(p)])
			delete(d.fetches, f.off)
			d.cfg.Pool.PutBytes(f.data)
			d.mu.Unlock()
			return nil
		}
	}
	d.mu.Unlock()
	d.ioMu.Lock()
	err := d.inner.ReadAt(p, off)
	d.ioMu.Unlock()
	return err
}

// WriteAt snapshots p into the write-behind queue and returns once queued.
// A full queue blocks (back-pressure bounds memory); a latched write error
// fails fast. Staged prefetches overlapping the range are invalidated.
func (d *AsyncDisk) WriteAt(p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("pdm: negative offset %d", off)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	end := off + int64(len(p))
	for {
		if d.werr != nil {
			return d.werr
		}
		if d.closing {
			// Close may have raced a back-pressured writer: refuse rather
			// than enqueue data no worker will ever retire.
			return fmt.Errorf("pdm: write on closing async disk")
		}
		// Invalidate staged prefetches overlapping the range — re-run after
		// every wait, since a hint may be staged while we were blocked and
		// would otherwise serve pre-write data to a later read.
		for _, f := range d.fetches {
			if f.doomed {
				continue
			}
			if off < f.off+int64(len(f.data)) && f.off < end {
				if f.state == fetchInFlight {
					// The worker is filling the buffer: only mark it; the
					// completion path discards it.
					f.doomed = true
					delete(d.fetches, f.off)
				} else {
					d.discardFetch(f)
				}
			}
		}
		if len(d.writes) < d.cfg.WriteBehind {
			break
		}
		d.cond.Wait()
	}
	buf := d.cfg.Pool.GetBytes(len(p))
	copy(buf, p)
	d.writes = append(d.writes, writeOp{off: off, data: buf})
	if end > d.maxEnd {
		d.maxEnd = end
	}
	d.cond.Broadcast()
	return nil
}

// Flush blocks until the write queue has drained and returns the first
// deferred write error.
func (d *AsyncDisk) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.writes) > 0 && d.werr == nil {
		d.cond.Wait()
	}
	return d.werr
}

// Size reflects both flushed and still-queued writes.
func (d *AsyncDisk) Size() int64 {
	d.mu.Lock()
	queued := d.maxEnd
	d.mu.Unlock()
	d.ioMu.Lock()
	flushed := d.inner.Size()
	d.ioMu.Unlock()
	if queued > flushed {
		return queued
	}
	return flushed
}

// Close drains pending writes, stops the worker, closes the wrapped disk,
// and surfaces any deferred write error — the last chance for a
// write-behind failure to be observed.
func (d *AsyncDisk) Close() error {
	d.mu.Lock()
	if d.closing {
		werr := d.werr
		d.mu.Unlock()
		<-d.done
		if werr != nil {
			return werr
		}
		return fmt.Errorf("pdm: async disk closed twice")
	}
	d.closing = true
	d.cond.Broadcast()
	d.mu.Unlock()
	<-d.done
	err := d.inner.Close()
	d.mu.Lock()
	werr := d.werr
	d.mu.Unlock()
	if werr != nil {
		return werr
	}
	return err
}

// DelayConfig is the service-time model of one physical disk, used to make
// I/O cost visible on hardware whose page cache would otherwise hide it.
type DelayConfig struct {
	// Seek is charged on every discontiguous access (same rule as the
	// DiskReadOps/DiskWriteOps counters).
	Seek time.Duration
	// BytesPerSec is the sustained transfer rate; ≤0 disables the
	// transfer-time charge.
	BytesPerSec int64
}

// Head is the service-time clock of one modeled physical disk. A head serves
// one operation at a time and is busy for exactly the time it charges, so
// every DelayDisk charging the same head shares one disk's bandwidth between
// them, however many goroutines drive them. It also accumulates what it
// charged, so the model can be audited: over any workload the heads' busy
// time sums to bytes ÷ rate + seeks × seek.
type Head struct {
	mu    sync.Mutex
	last  *DelayDisk // the disk served last: a switch moves the arm
	busy  time.Duration
	seeks int64
}

// NewHeads returns the heads of a machine with d modeled disks.
func NewHeads(d int) []*Head {
	heads := make([]*Head, d)
	for i := range heads {
		heads[i] = new(Head)
	}
	return heads
}

// Charged returns the total service time the head has charged and the
// number of seeks within it.
func (h *Head) Charged() (busy time.Duration, seeks int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.busy, h.seeks
}

// serve charges d's n-byte access and holds the head for that long. The
// access seeks unless it continues d's previous one AND d is the disk the
// head served last: two sequential streams interleaved on one head pay a
// seek per switch, as they would on one arm.
func (h *Head) serve(d *DelayDisk, contiguous bool, n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var t time.Duration
	if !contiguous || h.last != d {
		t = d.Cfg.Seek
		h.seeks++
	}
	h.last = d
	if d.Cfg.BytesPerSec > 0 {
		t += time.Duration(float64(n) / float64(d.Cfg.BytesPerSec) * float64(time.Second))
	}
	h.busy += t
	if t > 0 {
		time.Sleep(t)
	}
}

// DelayDisk imposes DelayConfig's service time on every operation of the
// wrapped disk. Wrapped under an AsyncDisk it turns the overlap won by
// prefetch and write-behind into measurable wall-clock time — the
// laptop-scale stand-in for the reference machine's 40 MB/s SCSI disks —
// while the sync path pays the same charges inline. The time is charged to
// a Head: a head of the disk's own (NewDelayDisk — an array disk), or one
// of the machine's D heads that every spilled run's lane shares (see
// Machine.Heads). One DelayDisk must be driven by one goroutine at a time
// (DiskArray's single-owner rule, or AsyncDisk's serialization) — its
// contiguity cursors are unlocked; the head it charges may be charged by any
// number of DelayDisks concurrently. Construct with NewDelayDisk.
type DelayDisk struct {
	Inner Disk
	Cfg   DelayConfig

	head      *Head
	lastRead  int64
	lastWrite int64
}

// NewDelayDisk wraps inner with the service-time model on a head of its own.
func NewDelayDisk(inner Disk, cfg DelayConfig) *DelayDisk {
	return newDelayDisk(inner, cfg, new(Head))
}

// newDelayDisk wraps inner with the service-time model, charging head.
func newDelayDisk(inner Disk, cfg DelayConfig, head *Head) *DelayDisk {
	return &DelayDisk{Inner: inner, Cfg: cfg, head: head, lastRead: -1, lastWrite: -1}
}

func (d *DelayDisk) charge(n int, off int64, last *int64) {
	d.head.serve(d, *last == off, n)
	*last = off + int64(n)
}

func (d *DelayDisk) ReadAt(p []byte, off int64) error {
	d.charge(len(p), off, &d.lastRead)
	return d.Inner.ReadAt(p, off)
}

func (d *DelayDisk) WriteAt(p []byte, off int64) error {
	d.charge(len(p), off, &d.lastWrite)
	return d.Inner.WriteAt(p, off)
}

func (d *DelayDisk) Size() int64  { return d.Inner.Size() }
func (d *DelayDisk) Close() error { return d.Inner.Close() }
