package pdm

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// FilePool is an engine's free list of scratch files: the still-open files
// of closed scratch disks, kept in the pool's home directory under a name
// that carries no job prefix. A FileBackend with a pool hands the next disk a
// pooled file before it creates one, so every pass store and spilled run —
// a checkpointed job's durable runs too, renamed into its checkpoint
// directory — overwrites page-cache pages a previous disk left warm, instead
// of allocating fresh pages and freeing them again at the unlink. A file is
// created only when the pool is empty, so the files a pool's disks hold never
// outnumber the peak count of its disks open at once; a returned file is
// truncated to its last written extent and renamed back home. All methods
// are safe for concurrent use, and a nil pool recycles nothing.
type FilePool struct {
	dir        string // home: where every pooled file waits
	mu         sync.Mutex
	free       []*FileDisk // closed: f open, name the pool path, stale the file's length
	open, peak int
	closed     bool
}

// NewFilePool returns an empty pool whose files wait in dir.
func NewFilePool(dir string) *FilePool { return &FilePool{dir: dir} }

// newDisk returns a disk at path, counted open: on the last pooled file,
// renamed to path, or on a new file when the pool is empty or the rename
// fails (path on another filesystem: the pooled file stays in the pool).
// keep makes it keep-on-close.
func (p *FilePool) newDisk(dir, path string, keep bool) (Disk, error) {
	var pf *FileDisk
	if p != nil {
		p.mu.Lock()
		p.open++
		p.peak = max(p.peak, p.open)
		if n := len(p.free); n > 0 {
			pf, p.free = p.free[n-1], p.free[:n-1]
		}
		p.mu.Unlock()
	}
	if pf != nil {
		if os.Rename(pf.name, path) == nil {
			return &FileDisk{f: pf.f, name: path, stale: pf.stale, pool: p, keep: keep}, nil
		}
		p.put(pf, 0)
	}
	err := os.MkdirAll(dir, 0o755)
	var d *FileDisk
	if err == nil {
		d, err = NewFileDisk(path)
	}
	if err != nil {
		p.release(nil)
		return nil, err
	}
	d.pool, d.keep = p, keep
	return d, nil
}

// recycle truncates a closed disk's file to its written extent, renames it
// to a pool name in the pool's home and returns it to the pool. It reports
// false, leaving the file to the caller, when either file operation fails.
func (p *FilePool) recycle(f *os.File, name string, size, length int64) bool {
	path := filepath.Join(p.dir, fmt.Sprintf("pool-g%05d.dat", fileDiskSeq.Add(1)))
	if length > size && f.Truncate(size) != nil || os.Rename(name, path) != nil {
		return false
	}
	p.release(&FileDisk{f: f, name: path, stale: size})
	return true
}

// release counts one disk closed and, when pf is non-nil, frees its file
// (see put).
func (p *FilePool) release(pf *FileDisk) { p.put(pf, 1) }

// put counts closed disks closed and, when pf is non-nil, frees its file:
// into the pool, or — once the pool is closed — off the disk.
func (p *FilePool) put(pf *FileDisk, closed int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.open -= closed
	if pf != nil && !p.closed {
		p.free, pf = append(p.free, pf), nil
	}
	p.mu.Unlock()
	if pf != nil {
		pf.discard()
	}
}

// Close removes every pooled file; disks closed after it remove their own.
func (p *FilePool) Close() {
	p.mu.Lock()
	free := p.free
	p.free, p.closed = nil, true
	p.mu.Unlock()
	for _, pf := range free {
		pf.discard()
	}
}

// Stats reports the disks open now, the most ever open at once, and the
// files waiting in the pool.
func (p *FilePool) Stats() (open, peak, free int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.open, p.peak, len(p.free)
}

// discard closes and removes a pooled file. Its errors are dropped: the
// file is scratch nobody reads again, and a leftover shows in Dir.
func (d *FileDisk) discard() {
	d.f.Close()
	os.Remove(d.name)
}
