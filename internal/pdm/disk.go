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
// sparse files).
type Disk interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Size() int64
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

// Size returns the written extent in bytes.
func (d *MemDisk) Size() int64 { return int64(len(d.data)) }

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
type FileDisk struct {
	f    *os.File
	keep bool // Close leaves the file on disk (checkpointed spill runs)
}

// NewFileDisk creates (or truncates) the file at path.
func NewFileDisk(path string) (*FileDisk, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("pdm: %w", err)
	}
	return &FileDisk{f: f}, nil
}

// NewKeepFileDisk creates (or truncates) the file at path, like NewFileDisk,
// but Close leaves the file behind: the durability unit of a checkpointed
// sort, whose spilled runs must survive the process so a resume can reopen
// them.
func NewKeepFileDisk(path string) (*FileDisk, error) {
	d, err := NewFileDisk(path)
	if err != nil {
		return nil, err
	}
	d.keep = true
	return d, nil
}

// OpenFileDisk opens an EXISTING file at path read-write without
// truncating, keep-on-close — the resume path's reopen of a spilled run
// that a previous process wrote and fsync'd.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pdm: %w", err)
	}
	return &FileDisk{f: f, keep: true}, nil
}

// ReadAt reads from the file, zero-filling beyond EOF.
func (d *FileDisk) ReadAt(p []byte, off int64) error {
	n, err := d.f.ReadAt(p, off)
	if err != nil {
		if !errors.Is(err, os.ErrClosed) && n < len(p) && isEOF(err) {
			for i := n; i < len(p); i++ {
				p[i] = 0
			}
			return nil
		}
		return fmt.Errorf("pdm: read %s: %w", d.f.Name(), err)
	}
	return nil
}

// isEOF matches io.EOF through any wrapping (a string comparison would
// misclassify wrapped EOFs, turning a benign short read into a hard error).
func isEOF(err error) bool { return errors.Is(err, io.EOF) }

// WriteAt writes to the file at the given offset (sparse growth). An
// out-of-space failure is classified permanent and carries ErrNoSpace, so
// the retry layer fails fast instead of backing off against a full disk.
func (d *FileDisk) WriteAt(p []byte, off int64) error {
	if _, err := d.f.WriteAt(p, off); err != nil {
		if isNoSpace(err) {
			return MarkPermanent(fmt.Errorf("pdm: write %s: %w (%v)", d.f.Name(), ErrNoSpace, err))
		}
		return fmt.Errorf("pdm: write %s: %w", d.f.Name(), err)
	}
	return nil
}

// Size returns the current file size.
func (d *FileDisk) Size() int64 {
	info, err := d.f.Stat()
	if err != nil {
		return 0
	}
	return info.Size()
}

// Path returns the backing file's path.
func (d *FileDisk) Path() string { return d.f.Name() }

// Sync flushes the file's dirty pages to stable storage — the fsync point
// a manifest entry depends on before it may claim the run durable.
func (d *FileDisk) Sync() error {
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("pdm: sync %s: %w", d.f.Name(), err)
	}
	return nil
}

// Close closes and removes the backing file; simulated disks own scratch
// space, so nothing should outlive the run. Keep-on-close disks (see
// NewKeepFileDisk) only close: their files are checkpoint state that a
// resume must find.
func (d *FileDisk) Close() error {
	name := d.f.Name()
	if err := d.f.Close(); err != nil {
		return err
	}
	if d.keep {
		return nil
	}
	return os.Remove(name)
}

// FaultDisk wraps a Disk and fails every operation after a byte budget is
// exhausted, for failure-injection tests.
type FaultDisk struct {
	Inner  Disk
	Budget int64 // bytes of traffic allowed before failures begin
	used   int64
}

// ErrInjected is the failure returned by an exhausted FaultDisk.
var ErrInjected = errors.New("pdm: injected disk fault")

func (d *FaultDisk) ReadAt(p []byte, off int64) error {
	if d.used += int64(len(p)); d.used > d.Budget {
		return ErrInjected
	}
	return d.Inner.ReadAt(p, off)
}

func (d *FaultDisk) WriteAt(p []byte, off int64) error {
	if d.used += int64(len(p)); d.used > d.Budget {
		return ErrInjected
	}
	return d.Inner.WriteAt(p, off)
}

func (d *FaultDisk) Size() int64  { return d.Inner.Size() }
func (d *FaultDisk) Close() error { return d.Inner.Close() }

// Backend constructs the disks of one machine.
type Backend interface {
	// NewDisk creates disk number idx (0 ≤ idx < D).
	NewDisk(idx int) (Disk, error)
	// Name identifies the backend in reports.
	Name() string
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
func (MemBackend) Name() string { return "mem" }

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
	// Keep makes every created disk keep-on-close (see NewKeepFileDisk):
	// the backend of a checkpointed job, whose spilled runs are durable
	// state rather than scratch.
	Keep bool
}

var fileDiskSeq atomic.Int64

func (b FileBackend) NewDisk(idx int) (Disk, error) {
	if err := os.MkdirAll(b.Dir, 0o755); err != nil {
		return nil, err
	}
	for {
		gen := fileDiskSeq.Add(1)
		path := filepath.Join(b.Dir, fmt.Sprintf("%sdisk%03d-g%05d.dat", b.Prefix, idx, gen))
		if b.Keep {
			// A keep backend's directory outlives the process: a resumed job
			// forms new runs beside runs a DEAD process left, and the fresh
			// generation counter must not truncate one of those survivors.
			if _, err := os.Lstat(path); err == nil {
				continue
			}
			return NewKeepFileDisk(path)
		}
		return NewFileDisk(path)
	}
}
func (b FileBackend) Name() string { return "file" }

// Namespaced returns a copy of the backend whose disks carry the given
// scratch-file name prefix (see FileBackend.Prefix).
func (b FileBackend) Namespaced(prefix string) Backend {
	b.Prefix = prefix
	return b
}

// Namespacer is implemented by backends whose scratch lives in a shared
// location and can be namespaced per client. Backends without shareable
// scratch (MemBackend) simply don't implement it.
type Namespacer interface {
	// Namespaced returns a backend equivalent to the receiver whose
	// created disks are identifiable by (and cannot collide outside of)
	// the given namespace prefix.
	Namespaced(prefix string) Backend
}

// DiskFile walks a wrapped disk stack — a striped spill's one backing disk,
// async, retry, chaos, delay and fault layers in any order — down to its
// backing *FileDisk. It returns nil
// when the stack bottoms out on anything else (a MemDisk): the caller's
// durability machinery has nothing to persist there.
func DiskFile(d Disk) *FileDisk {
	for d != nil {
		switch v := d.(type) {
		case *FileDisk:
			return v
		case *stripedDisk:
			d = v.backing
		case *AsyncDisk:
			d = v.inner
		case *RetryDisk:
			d = v.inner
		case *ChaosDisk:
			d = v.inner
		case *DelayDisk:
			d = v.Inner
		case *FaultDisk:
			d = v.Inner
		default:
			return nil
		}
	}
	return nil
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
