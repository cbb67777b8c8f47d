package pdm

import (
	"fmt"
	"sync/atomic"
)

// This file names the storage stack's failures and counts its recoveries.
// A disk error is not re-issued: FileDisk leaves OS errors as they are (the
// runtime already retries EINTR), and every fault a real disk raises —
// corrupt media, a dead or torn spill disk, a full filesystem — is met
// above the disk by a CRC reread, a run redo or a fast failure. What this
// layer adds is the name: opDisk wraps every escaping read or write error
// with the exact operation, disk and byte extent, so a failed 64 MiB sort
// names the extent instead of returning a bare "injected disk fault".

// OpError attributes a disk failure to the exact operation that suffered
// it: the op kind, the disk (global index for array disks, spill ordinal
// for hierarchical-merge spills), and the byte extent.
type OpError struct {
	Op    string // "read" or "write"
	Disk  int    // global disk index, or spill ordinal when Spill
	Spill bool   // the disk backs a hierarchical-merge spill run
	Off   int64  // byte offset of the failed operation
	Len   int    // length of the failed operation
	Err   error  // the underlying failure
}

func (e *OpError) Error() string {
	kind := "disk"
	if e.Spill {
		kind = "spill disk"
	}
	return fmt.Sprintf("pdm: %s %s %d extent [%d,+%d): %v", e.Op, kind, e.Disk, e.Off, e.Len, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// opDisk wraps every failure of the disk under it in an OpError. It sits
// under the async layer (see wrapFaultLayers), so a deferred write-behind
// failure latches already named.
type opDisk struct {
	Disk
	idx   int
	spill bool
}

func (d opDisk) ReadAt(p []byte, off int64) error {
	if err := d.Disk.ReadAt(p, off); err != nil {
		return &OpError{Op: "read", Disk: d.idx, Spill: d.spill, Off: off, Len: len(p), Err: err}
	}
	return nil
}

func (d opDisk) WriteAt(p []byte, off int64) error {
	if err := d.Disk.WriteAt(p, off); err != nil {
		return &OpError{Op: "write", Disk: d.idx, Spill: d.spill, Off: off, Len: len(p), Err: err}
	}
	return nil
}

// Unwrap returns the disk under the context layer (see DiskFile).
func (d opDisk) Unwrap() Disk { return d.Disk }

// FaultStats counts what the fault-tolerance layers detected and healed.
// One instance is shared (atomically) by the merge readers and the run
// redo loop of a job, then folded into sim.Counters for reporting.
type FaultStats struct {
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
	CorruptChunks int64 `json:"corrupt_chunks"` // spill-run chunks that failed CRC32C verification
	ChunkRereads  int64 `json:"chunk_rereads"`  // corrupt chunks healed by an invalidate-and-reread
	BatchRedos    int64 `json:"batch_redos"`    // formed runs re-spilled onto a fresh disk
}

// Any reports whether any fault-tolerance machinery fired.
func (f FaultCounts) Any() bool { return f != FaultCounts{} }

// Add accumulates o into f.
func (f *FaultCounts) Add(o FaultCounts) {
	f.CorruptChunks += o.CorruptChunks
	f.ChunkRereads += o.ChunkRereads
	f.BatchRedos += o.BatchRedos
}

// Snapshot reads the counters atomically (each counter individually; the
// set is not a consistent cut, which reporting does not need).
func (s *FaultStats) Snapshot() FaultCounts {
	return FaultCounts{
		CorruptChunks: s.CorruptChunks.Load(),
		ChunkRereads:  s.Rereads.Load(),
		BatchRedos:    s.BatchRedos.Load(),
	}
}
