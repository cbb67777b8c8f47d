package pdm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the transient-fault healing layer of the PDM substrate. Real
// multi-hour sorts over many disks see transient read/write errors that a
// bounded retry absorbs and permanent failures that must surface fast; the
// distinction is an explicit error taxonomy (MarkTransient / MarkPermanent,
// queried by Transient) rather than a guess. Only an error marked transient
// is retried, and no product code marks one: FileDisk marks ENOSPC
// permanent and leaves every other OS error unmarked, so the transient
// faults RetryDisk heals come from tests' fault injectors
// (internal/faultinject). RetryDisk applies the policy — bounded
// exponential backoff with jitter, cancellable between attempts — and wraps
// every escaping error with the exact operation, disk and byte extent, so a
// failed 64 MiB sort names the extent instead of returning a bare "injected
// disk fault".
//
// RetryDisk sits BELOW AsyncDisk in the machine's wrapper stack: a deferred
// write-behind operation is retried by the async worker's inner call before
// the first failure can latch, so a transient hiccup never poisons the
// disk for the rest of the pass.

// classifiedError marks an error as transient (worth retrying) or permanent
// (fail fast). It wraps rather than replaces, so sentinel matching with
// errors.Is keeps working through the classification.
type classifiedError struct {
	err       error
	transient bool
}

func (e *classifiedError) Error() string {
	if e.transient {
		return "transient: " + e.err.Error()
	}
	return "permanent: " + e.err.Error()
}

func (e *classifiedError) Unwrap() error { return e.err }

// MarkTransient classifies err as a transient fault: retrying the same
// operation may succeed. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &classifiedError{err: err, transient: true}
}

// MarkPermanent classifies err as a permanent fault: retrying cannot help
// and the failure should surface immediately. A nil err stays nil.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &classifiedError{err: err, transient: false}
}

// Transient reports whether err carries a transient classification.
// Unclassified errors are NOT transient: retrying an error of unknown cause
// (a logic error, a closed file) would only mask it.
func Transient(err error) bool {
	var ce *classifiedError
	return errors.As(err, &ce) && ce.transient
}

// OpError attributes a disk failure to the exact operation that suffered
// it: the op kind, the disk (global index for array disks, spill ordinal
// for hierarchical-merge spills), and the byte extent.
type OpError struct {
	Op    string // "read" or "write"
	Disk  int    // global disk index, or spill ordinal when Spill
	Spill bool   // the disk backs a hierarchical-merge spill run
	Off   int64  // byte offset of the failed operation
	Len   int    // length of the failed operation
	Err   error  // the underlying failure, classification intact
}

func (e *OpError) Error() string {
	kind := "disk"
	if e.Spill {
		kind = "spill disk"
	}
	return fmt.Sprintf("pdm: %s %s %d extent [%d,+%d): %v", e.Op, kind, e.Disk, e.Off, e.Len, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// FaultStats counts what the fault-tolerance layers absorbed or detected.
// One instance is shared (atomically) by every wrapped disk of a machine
// and by the merge readers, then folded into sim.Counters for reporting.
type FaultStats struct {
	Retries       atomic.Int64 // transient disk ops re-issued by RetryDisk
	GaveUps       atomic.Int64 // transient ops that exhausted the retry budget
	CorruptChunks atomic.Int64 // run chunks whose CRC32C frame failed verification
	Rereads       atomic.Int64 // corrupt chunks healed by an invalidate-and-reread
	BatchRedos    atomic.Int64 // hierarchical batches re-sorted/re-spilled
}

// FaultCounts is a plain snapshot of FaultStats — and, under the name
// colsort.FaultStats, the public report of one sort's fault-tolerance
// activity (Result.Faults; DESIGN.md §9 holds the failure model). The JSON
// tags are the wire representation of the colsort-server's job summaries;
// TestWireEncodingGolden (root package) pins them.
type FaultCounts struct {
	DiskRetries   int64 `json:"disk_retries"`   // transient disk faults healed by retry
	DiskGiveUps   int64 `json:"disk_give_ups"`  // transient faults that exhausted the retry budget
	CorruptChunks int64 `json:"corrupt_chunks"` // spill-run chunks that failed CRC32C verification
	ChunkRereads  int64 `json:"chunk_rereads"`  // corrupt chunks healed by an invalidate-and-reread
	BatchRedos    int64 `json:"batch_redos"`    // formed runs re-spilled onto a fresh disk
}

// Any reports whether any fault-tolerance machinery fired.
func (f FaultCounts) Any() bool { return f != FaultCounts{} }

// Add accumulates o into f.
func (f *FaultCounts) Add(o FaultCounts) {
	f.DiskRetries += o.DiskRetries
	f.DiskGiveUps += o.DiskGiveUps
	f.CorruptChunks += o.CorruptChunks
	f.ChunkRereads += o.ChunkRereads
	f.BatchRedos += o.BatchRedos
}

// Snapshot reads the counters atomically (each counter individually; the
// set is not a consistent cut, which reporting does not need).
func (s *FaultStats) Snapshot() FaultCounts {
	return FaultCounts{
		DiskRetries:   s.Retries.Load(),
		DiskGiveUps:   s.GaveUps.Load(),
		CorruptChunks: s.CorruptChunks.Load(),
		ChunkRereads:  s.Rereads.Load(),
		BatchRedos:    s.BatchRedos.Load(),
	}
}

// RetryConfig wires one machine's retry layers to their job: the policy
// itself is fixed (the constants below).
type RetryConfig struct {
	// Cancel, when non-nil, aborts backoff sleeps (typically the sort
	// context's Done channel): a cancelled sort must not sit out a
	// multi-millisecond backoff per in-flight operation.
	Cancel <-chan struct{}
	// Stats, when non-nil, receives retry/give-up counts.
	Stats *FaultStats
}

// The retry policy: a handful of attempts spaced microseconds to
// milliseconds apart, with ±50% jitter — enough to ride out
// scheduler-scale hiccups without stalling a pass behind a genuinely dead
// disk. It is a constant, not an option: no product error is transient, so
// there is nothing a caller could tune it against.
const (
	retryAttempts  = 4                      // issues per operation, the first included
	retryBaseDelay = 200 * time.Microsecond // backoff before the first re-issue; doubles per attempt
	retryMaxDelay  = 10 * time.Millisecond  // backoff cap
)

// RetryDisk wraps a Disk with the transient-fault retry policy and with
// OpError context on every escaping failure. Classification drives it:
// transient errors are re-issued up to the attempt budget with exponential
// backoff and jitter, permanent (and unclassified) errors fail fast.
type RetryDisk struct {
	inner Disk
	cfg   RetryConfig
	disk  int
	spill bool

	// The policy, copied from the constants; only this package's tests
	// set other values.
	attempts            int
	baseDelay, maxDelay time.Duration

	mu  sync.Mutex
	rng uint64 // jitter state; deterministic per disk identity
}

// NewRetryDisk wraps inner for disk index idx (spill marks hierarchical
// spill disks, whose idx is the spill ordinal).
func NewRetryDisk(inner Disk, cfg RetryConfig, idx int, spill bool) *RetryDisk {
	seed := uint64(idx)*2 + 1
	if spill {
		seed += 1 << 32
	}
	return &RetryDisk{inner: inner, cfg: cfg, disk: idx, spill: spill,
		attempts: retryAttempts, baseDelay: retryBaseDelay, maxDelay: retryMaxDelay,
		rng: splitmix64(&seed)}
}

func (d *RetryDisk) ReadAt(p []byte, off int64) error {
	return d.do("read", len(p), off, func() error { return d.inner.ReadAt(p, off) })
}

func (d *RetryDisk) WriteAt(p []byte, off int64) error {
	return d.do("write", len(p), off, func() error { return d.inner.WriteAt(p, off) })
}

// Unwrap returns the disk under the retry layer (see DiskFile).
func (d *RetryDisk) Unwrap() Disk { return d.inner }

// Close passes through: close failures are terminal by nature and the
// wrapped disks already name themselves in their close errors.
func (d *RetryDisk) Close() error { return d.inner.Close() }

// do runs one operation under the retry policy.
func (d *RetryDisk) do(op string, n int, off int64, fn func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil {
			return nil
		}
		if !Transient(err) {
			break // permanent or unclassified: fail fast, with context
		}
		if attempt >= d.attempts {
			if d.cfg.Stats != nil {
				d.cfg.Stats.GaveUps.Add(1)
			}
			break
		}
		if d.cfg.Stats != nil {
			d.cfg.Stats.Retries.Add(1)
		}
		if !d.backoff(attempt) {
			break // cancelled mid-backoff: surface the transient error
		}
	}
	return &OpError{Op: op, Disk: d.disk, Spill: d.spill, Off: off, Len: n, Err: err}
}

// backoff sleeps the jittered exponential delay for the given attempt
// number, returning false if the Cancel channel fired first.
func (d *RetryDisk) backoff(attempt int) bool {
	delay := min(d.baseDelay<<(attempt-1), d.maxDelay)
	// ±50% decorrelating jitter: concurrent retries against one contended
	// resource should not re-collide in lockstep.
	d.mu.Lock()
	r := splitmix64(&d.rng)
	d.mu.Unlock()
	delay = delay/2 + time.Duration(r%uint64(delay/2+1))
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-d.cfg.Cancel: // nil channel: never fires
		return false
	}
}

// splitmix64 advances the state and returns the next value of the SplitMix64
// generator — the same cheap seeded PRNG internal/faultinject's fault model
// keeps a copy of.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
