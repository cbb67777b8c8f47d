// Package pdm implements the Parallel Disk Model substrate: D simulated
// disks attached to P processors, per-processor striped disk arrays, and the
// on-disk r×s record matrix layouts used by out-of-core columnsort.
//
// The paper's cluster has D ≥ P disks, each attached to one node; processor
// j owns the D/P disks it accesses, and each column is stored contiguously
// on the disks owned by a single processor (Section 2). Disks here are
// either memory-backed (fast, for tests and benchmarks) or file-backed
// (genuinely out-of-core); both are instrumented so that every transferred
// byte and every discontiguous access is counted into sim.Counters.
package pdm

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"syscall"

	"colsort/internal/record"
)

// ErrNoSpace reports a write that failed because the filesystem is out of
// space (ENOSPC) or over quota (EDQUOT). It is classified permanent at the
// source: retrying a full disk burns the whole backoff budget to arrive at
// the same failure, and a batch redo re-spills into the same full
// filesystem. Jobs should fail fast with this sentinel instead.
var ErrNoSpace = errors.New("pdm: no space left on device")

// isNoSpace matches the out-of-space errno family through any wrapping.
func isNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}

// Disk is one simulated disk: a flat byte address space with sparse
// semantics (reads beyond the written extent return zeros, as with POSIX
// sparse files). A scratch disk is written, then read: every store of a pass
// and every spilled run is complete before anything reads it, and the
// asynchronous layer (AsyncDisk) refuses a write after the first read.
type Disk interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Close() error
}

// MemDisk is a growable in-memory disk. When pool is set, the backing
// array is drawn from (and on Close returned to) that pool, so the
// create-per-pass store lifecycle recycles disk backings instead of
// allocating — and zeroing — tens of megabytes per pass.
type MemDisk struct {
	data []byte
	pool *record.Pool
}

// NewMemDisk returns an empty memory-backed disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// NewPooledMemDisk returns an empty memory disk whose backing cycles
// through pool.
func NewPooledMemDisk(pool *record.Pool) *MemDisk { return &MemDisk{pool: pool} }

// ReadAt copies from the disk into p, zero-filling beyond the extent.
func (d *MemDisk) ReadAt(p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("pdm: negative offset %d", off)
	}
	n := 0
	if off < int64(len(d.data)) {
		n = copy(p, d.data[off:])
	}
	for i := n; i < len(p); i++ {
		p[i] = 0
	}
	return nil
}

// WriteAt copies p onto the disk, growing it as needed. Growth doubles the
// backing capacity so a sequence of extending writes (the append-heavy
// arrival-order write pattern of every pass) costs amortized O(1) copies
// per byte instead of re-copying the whole extent each time. An extending
// write zeroes only the gap between the old extent and off — the extension
// p covers is about to be overwritten, and zeroing it first would charge
// every appended byte a second memory pass.
func (d *MemDisk) WriteAt(p []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("pdm: negative offset %d", off)
	}
	end := off + int64(len(p))
	if end > int64(len(d.data)) {
		old := int64(len(d.data))
		if end <= int64(cap(d.data)) {
			d.data = d.data[:end]
		} else {
			newCap := 2 * int64(cap(d.data))
			if newCap < end {
				newCap = end
			}
			var grown []byte
			if d.pool != nil {
				grown = d.pool.GetBytes(int(newCap))[:end]
			} else {
				grown = make([]byte, end, newCap)
			}
			copy(grown, d.data)
			if d.pool != nil {
				d.pool.PutBytes(d.data[:cap(d.data)])
			}
			d.data = grown
		}
		// Zero only the gap between the old extent and off: the extension
		// p covers is overwritten below, and pooled (or in-cap) memory may
		// be dirty. Reads beyond the extent zero-fill in ReadAt.
		if off > old {
			gap := d.data[old:off]
			for i := range gap {
				gap[i] = 0
			}
		}
	}
	copy(d.data[off:end], p)
	return nil
}

// Close releases the backing storage, recycling it into the pool when the
// disk is pool-backed.
func (d *MemDisk) Close() error {
	if d.pool != nil && d.data != nil {
		d.pool.PutBytes(d.data)
	}
	d.data = nil
	return nil
}

// FileDisk is a disk backed by one file, for genuinely out-of-core runs.
// It tracks its own written extent, not the file's fstat size: a disk built
// on a recycled file (see FilePool) starts at extent 0 over a file whose
// stale prefix still holds a previous user's bytes, and reads as a fresh
// sparse file would — zeros past the extent, and zeros in every hole below
// it — so no job reads bytes another left behind. The holes are zeroed
// once, at the first read (zeroHoles), not at each write past the extent:
// the writes of a pass store arrive out of order and fill most holes
// themselves. The disk keeps its own path because os.File.Name goes stale
// after a rename. Like every Disk it serves one caller at a time.
type FileDisk struct {
	f      *os.File // nil once closed
	name   string
	size   int64     // written extent
	stale  int64     // the previous user's bytes fill [0, stale) where spans do not
	spans  []span    // what the disk wrote inside [0, stale): sorted, disjoint, not touching
	keep   bool      // Close leaves the file on disk (checkpointed spill runs; see Retire)
	pool   *FilePool // Close hands the file back to it (nil: Close removes it)
	failed bool      // an I/O error was seen: the file is never recycled
	// syncErr is the first failed truncate or fsync of Sync, which every
	// later Sync returns: after a failed fsync the kernel may have dropped
	// the dirty pages, and a retry that succeeds proves nothing about them.
	syncErr error
}

// span is the byte range [lo, hi) of a FileDisk.
type span struct{ lo, hi int64 }

// NewFileDisk creates (or truncates) the file at path.
func NewFileDisk(path string) (*FileDisk, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("pdm: %w", err)
	}
	return &FileDisk{f: f, name: path}, nil
}

// OpenFileDisk opens an EXISTING file at path read-write without
// truncating, keep-on-close — the resume path's reopen of a spilled run
// that a previous process wrote and fsync'd. Its extent starts at the
// file's size.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pdm: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pdm: %w", err)
	}
	return &FileDisk{f: f, name: path, size: info.Size(), keep: true}, nil
}

// ReadAt reads from the file, zero-filling beyond the written extent.
func (d *FileDisk) ReadAt(p []byte, off int64) error {
	if err := d.zeroHoles(); err != nil {
		return err
	}
	n := min(max(d.size-off, 0), int64(len(p)))
	m, err := d.f.ReadAt(p[:n], off)
	if err != nil && !errors.Is(err, io.EOF) {
		d.failed = true
		return fmt.Errorf("pdm: read %s: %w", d.name, err)
	}
	clear(p[m:])
	return nil
}

// WriteAt writes to the file at the given offset (sparse growth). An
// out-of-space failure is classified permanent and carries ErrNoSpace, so
// the retry layer fails fast instead of backing off against a full disk.
func (d *FileDisk) WriteAt(p []byte, off int64) error {
	if _, err := d.f.WriteAt(p, off); err != nil {
		d.failed = true
		if isNoSpace(err) {
			return MarkPermanent(fmt.Errorf("pdm: write %s: %w (%v)", d.name, ErrNoSpace, err))
		}
		return fmt.Errorf("pdm: write %s: %w", d.name, err)
	}
	end := off + int64(len(p))
	d.size = max(d.size, end)
	if off < min(end, d.stale) {
		d.cover(off, min(end, d.stale))
	}
	return nil
}

// cover records that the disk wrote [lo, hi) of the stale prefix, merging
// the span in place with those it overlaps or touches. Once the spans cover
// the whole prefix, nothing of the previous user is left.
func (d *FileDisk) cover(lo, hi int64) {
	s := d.spans
	i := sort.Search(len(s), func(k int) bool { return s[k].hi >= lo })
	j := i
	for ; j < len(s) && s[j].lo <= hi; j++ {
		lo, hi = min(lo, s[j].lo), max(hi, s[j].hi)
	}
	d.spans = slices.Replace(s, i, j, span{lo, hi})
	if d.spans[0] == (span{0, d.stale}) {
		d.stale, d.spans = 0, d.spans[:0]
	}
}

// zeroHoles overwrites with zeros what is left of the previous user's bytes
// below the extent — the holes a fresh sparse file would read as zeros — so
// the file below the extent is the disk's own: the first hole, a piece at a
// time, until the first span reaches the extent. Only the first read after
// a write past a hole finds one.
func (d *FileDisk) zeroHoles() error {
	for {
		at, end, s := int64(0), min(d.size, d.stale), d.spans
		if len(s) > 0 && s[0].lo == 0 {
			at, s = s[0].hi, s[1:]
		}
		if len(s) > 0 {
			end = min(end, s[0].lo)
		}
		if at >= end {
			return nil
		}
		if err := d.WriteAt(zeros[:min(end-at, int64(len(zeros)))], at); err != nil {
			return err
		}
	}
}

// zeros is the source of FileDisk's hole fill.
var zeros [64 << 10]byte

// Path returns the backing file's path.
func (d *FileDisk) Path() string { return d.name }

// Sync flushes the file's dirty pages to stable storage — the fsync point
// a manifest entry depends on before it may claim the run durable. A file
// the disk got from its pool first becomes the disk's own bytes only: the
// holes below the extent are zeroed and a tail past it is cut off, so no
// byte of a previous user sits behind the entry. A truncate or fsync that
// fails fails every later Sync of the disk with the same error.
func (d *FileDisk) Sync() error {
	if d.syncErr != nil {
		return d.syncErr
	}
	if err := d.zeroHoles(); err != nil {
		return err
	}
	if d.stale > d.size {
		if err := d.f.Truncate(d.size); err != nil {
			return d.syncFailed("truncate", err)
		}
	}
	d.stale, d.spans = 0, d.spans[:0]
	if err := d.f.Sync(); err != nil {
		return d.syncFailed("sync", err)
	}
	return nil
}

// syncFailed latches Sync's failure of op.
func (d *FileDisk) syncFailed(op string, err error) error {
	d.failed = true
	d.syncErr = fmt.Errorf("pdm: %s %s: %w", op, d.name, err)
	return d.syncErr
}

// Close ends the disk; simulated disks own scratch space, so nothing of it
// should outlive the run. A disk with a pool hands its file back (see
// FilePool) unless one of its operations failed; otherwise the file is
// closed and removed. A keep-on-close disk (a checkpointed job's run, see
// FileBackend.Keep) counts itself closed and leaves its file where it is:
// checkpoint state that a resume must find, until Retire.
func (d *FileDisk) Close() error {
	f := d.f
	if f == nil {
		return fmt.Errorf("pdm: close %s: %w", d.name, os.ErrClosed)
	}
	d.f = nil
	if d.keep {
		d.pool.release(nil)
		return f.Close()
	}
	if d.pool != nil && !d.failed && d.pool.recycle(f, d.name, d.size, max(d.size, d.stale)) {
		return nil
	}
	err := f.Close()
	if rerr := os.Remove(d.name); err == nil {
		err = rerr
	}
	d.pool.release(nil)
	return err
}

// Retire makes the file under d (a possibly wrapped disk) scratch again
// before d is closed: a keep-on-close run whose consuming manifest entry is
// durable then goes back to its pool on Close, or off the disk without one,
// like any scratch disk's file. It does nothing to other disks.
func Retire(d Disk) {
	if fd := DiskFile(d); fd != nil {
		fd.keep = false
	}
}

// Backend constructs the disks of one machine.
type Backend interface {
	// NewDisk creates disk number idx (0 ≤ idx < D).
	NewDisk(idx int) (Disk, error)
}

// MemBackend builds memory disks. When Pools is set (Machine wires its
// per-processor pools in), each disk's backing array cycles through the
// pool of the processor owning it.
type MemBackend struct {
	Pools []*record.Pool
}

func (b MemBackend) NewDisk(idx int) (Disk, error) {
	if len(b.Pools) > 0 {
		return NewPooledMemDisk(b.Pools[idx%len(b.Pools)]), nil
	}
	return NewMemDisk(), nil
}

// FileBackend builds file disks under Dir. Several stores (input, the
// intermediate file of each pass, output) coexist on the same simulated
// hardware, so each created disk gets a unique generation suffix — without
// it a new store would truncate a live one's backing files. Prefix, when
// non-empty, leads every created file's name: an engine serving concurrent
// jobs from one scratch directory namespaces each job's scratch with it, so
// the jobs can never collide and any leftover file names its job.
type FileBackend struct {
	Dir    string
	Prefix string
	// Keep makes every created disk keep-on-close: the backend of a
	// checkpointed job, whose spilled runs are durable state rather than
	// scratch (see FileDisk.Close and Retire).
	Keep bool
	// Pool, when non-nil, recycles the files of closed disks: a new disk
	// takes a pooled file (renamed to its own name) before creating one.
	Pool *FilePool
}

var fileDiskSeq atomic.Int64

func (b FileBackend) NewDisk(idx int) (Disk, error) {
	for {
		path := filepath.Join(b.Dir, fmt.Sprintf("%sdisk%03d-g%05d.dat", b.Prefix, idx, fileDiskSeq.Add(1)))
		// A keep backend's directory outlives the process: a resumed job
		// forms new runs beside runs a DEAD process left, and the fresh
		// generation counter must not truncate one of those survivors.
		if b.Keep {
			if _, err := os.Lstat(path); err == nil {
				continue
			}
		}
		return b.Pool.newDisk(b.Dir, path, b.Keep)
	}
}

// DiskFile walks a wrapped disk stack — a striped spill's one backing disk,
// the async, retry and delay layers and any injected fault layer, in any
// order, each reached through its Unwrap — down to its backing *FileDisk.
// It returns nil when the stack bottoms out on anything else (a MemDisk):
// the caller's durability machinery has nothing to persist there.
func DiskFile(d Disk) *FileDisk {
	for {
		switch v := d.(type) {
		case *FileDisk:
			return v
		case interface{ Unwrap() Disk }:
			d = v.Unwrap()
		default:
			return nil
		}
	}
}

// DiskPath returns the backing file path of a (possibly wrapped) file
// disk, or "" when the disk is not file-backed.
func DiskPath(d Disk) string {
	if fd := DiskFile(d); fd != nil {
		return fd.Path()
	}
	return ""
}

// SyncDisk makes everything written to d durable: any write-behind layer is
// flushed first (draining deferred writes and surfacing their first error),
// then the backing file is fsync'd. Memory-backed stacks flush but skip the
// fsync — there is no stable storage to reach. This is the fsync point a
// run manifest entry depends on: only after SyncDisk returns may an entry
// claim the run's bytes durable.
func SyncDisk(d Disk) error {
	if f, ok := d.(Flusher); ok {
		if err := f.Flush(); err != nil {
			return err
		}
	}
	if fd := DiskFile(d); fd != nil {
		return fd.Sync()
	}
	return nil
}

// JobScratchPrefix is the canonical scratch-file namespace of engine job
// id — the contract between the engine (which namespaces each job's
// machine with it) and the leak checkers (which assert a finished job left
// nothing carrying it behind).
func JobScratchPrefix(id int64) string { return fmt.Sprintf("job%05d-", id) }
