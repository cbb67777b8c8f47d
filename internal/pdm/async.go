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
// Flush, and on Close. A disk serves one phase at a time, as every scratch
// disk is used: writes, then reads.
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

// AsyncConfig configures the asynchronous I/O layer.
type AsyncConfig struct {
	// Pool supplies the prefetch staging and write-behind snapshot buffers.
	// Machine wires each disk to its owning processor's record pool, so the
	// buffers survive the per-pass store lifecycle (stores — and their
	// AsyncDisks — are created and closed once per pass). A nil Pool
	// allocates every buffer. The disk calls it under its own lock: the
	// pool's lock is a leaf.
	Pool *record.Pool
}

// The per-disk queue depths: enough to keep one column extent in flight per
// direction ahead of the pipeline (a column is split into a handful of
// stripe-sized chunks) without growing memory beyond a few stripes.
// DefaultReadAhead bounds the prefetched extents staged per disk (further
// hints are dropped); DefaultWriteBehind the buffered write operations (a
// full queue applies back-pressure to WriteAt).
const (
	DefaultReadAhead   = 8
	DefaultWriteBehind = 16
)

const (
	fetchQueued = iota
	fetchInFlight
	fetchDone
)

// fetch is one staged read-ahead extent, keyed by offset. doomed marks an
// entry claimed by a direct read, consumed, or whose staging read failed:
// its buffer is discarded, never published.
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
// prefetched reads and write-behind, one phase at a time:
//
//   - Writes retire in issue order. The first ReadAt or Prefetch ends the
//     write phase for good: ReadAt waits for the whole write queue to
//     drain, a hint given while writes are still queued is dropped, and
//     every later WriteAt is refused. A read therefore observes every
//     write, and a staged extent can never go stale.
//   - The first deferred write error is latched and returned by every
//     subsequent WriteAt/ReadAt, by Flush, and by Close, so a failure can
//     not be silently dropped between pipeline rounds.
//
// An AsyncDisk is safe for concurrent use even when the wrapped disk is not
// (all inner access is serialized), which is what lets it wrap MemDisk and
// injected fault layers in tests as well as FileDisk in real runs.
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
	reading bool      // the first ReadAt or Prefetch ended the write phase
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
		cfg:     cfg,
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
			if err != nil {
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

// Prefetch stages a background read of [off, off+n) and ends the write
// phase. Hints beyond the DefaultReadAhead budget, duplicates, and hints
// given while writes are still queued are dropped: correctness never depends
// on a hint.
func (d *AsyncDisk) Prefetch(off int64, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reading = true
	if off < 0 || n <= 0 || d.closing || d.werr != nil || len(d.writes) > 0 {
		return
	}
	if _, ok := d.fetches[off]; ok || len(d.fetches) >= DefaultReadAhead {
		return
	}
	f := &fetch{off: off, data: d.cfg.Pool.GetBytes(n)}
	d.fetches[off] = f
	d.fetchq = append(d.fetchq, f)
	d.cond.Broadcast()
}

// ReadAt ends the write phase, waits for the write queue to drain, and
// serves the read from a completed prefetch when one covers the range;
// otherwise it reads through. A consumed prefetch entry is released.
func (d *AsyncDisk) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	d.reading = true
	for d.werr == nil && len(d.writes) > 0 {
		d.cond.Wait()
	}
	if err := d.werr; err != nil {
		d.mu.Unlock()
		return err
	}
	if f, ok := d.fetches[off]; ok && len(f.data) >= len(p) {
		if f.state == fetchQueued {
			// Claim it: a direct read now beats waiting behind the worker's
			// queue. Unmap so the offset can be hinted again; the queue
			// entry is discarded (and its buffer recycled) when popped.
			f.doomed = true
			delete(d.fetches, off)
		}
		// In flight: wait for completion, unless the staging read failed
		// and the worker discarded the fetch.
		for f.state == fetchInFlight && !f.doomed {
			d.cond.Wait()
		}
		if !f.doomed {
			copy(p, f.data[:len(p)])
			d.discardFetch(f)
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
// fails fast, and a write after the first ReadAt or Prefetch is refused.
func (d *AsyncDisk) WriteAt(p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("pdm: negative offset %d", off)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.werr != nil {
			return d.werr
		}
		if d.closing {
			// Close may have raced a back-pressured writer: refuse rather
			// than enqueue data no worker will ever retire.
			return fmt.Errorf("pdm: write on closing async disk")
		}
		if d.reading {
			return errWriteAfterRead(off)
		}
		if len(d.writes) < DefaultWriteBehind {
			break
		}
		d.cond.Wait()
	}
	buf := d.cfg.Pool.GetBytes(len(p))
	copy(buf, p)
	d.writes = append(d.writes, writeOp{off: off, data: buf})
	d.cond.Broadcast()
	return nil
}

// errWriteAfterRead refuses a write issued after a disk's first read or
// hint: a scratch disk is written, then read.
func errWriteAfterRead(off int64) error {
	return fmt.Errorf("pdm: write at offset %d after the disk was read; a scratch disk is written, then read", off)
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

// Unwrap returns the disk under the async layer (see DiskFile).
func (d *AsyncDisk) Unwrap() Disk { return d.inner }

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

// Unwrap returns the modeled disk (see DiskFile).
func (d *DelayDisk) Unwrap() Disk { return d.Inner }

func (d *DelayDisk) Close() error { return d.Inner.Close() }
