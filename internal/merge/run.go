// Package merge implements the hierarchical execution layer that lifts the
// library past any single columnsort run's problem-size bound: bounded
// sorted RUNS (each produced by one engine execution) spilled onto simulated
// disks, then combined by a loser-tree k-way streaming merge with overlapped
// I/O — the classic external-sort structure (run formation + multiway merge)
// engineered on top of the paper's algorithms. The tree is the shared kernel
// (internal/tournament, one of its three users); what this package adds is
// everything around a pop: chunked reads that can block and fail, CRC
// verification with one healing reread, prefetch hints — and the stages
// after it. A merge is three goroutines joined by three recycled chunks: the
// pop loop fills a chunk with the tournament's winners, the verify stage
// checks its order (and, in the final merge, folds it into the multiset
// checksum), and the emit stage hands it to the sink or the next level's
// run writer. The first failure of any stage stops the other two.
//
// A Run lives on one pdm.Disk as a flat sequence of fixed-size records in
// sorted order. What that disk is, is the machine's business
// (pdm.Machine.WrapSpillDisk): one backing file either way, but where the
// machine has asynchronous or modeled disks the run is STRIPED over all D of
// them, so nothing here knows or asks. Writers buffer records into large
// sequential WriteAt calls (which the disk retires in the background, a
// stripe per disk at a time — write-behind); Readers stream chunks back,
// hinting each next chunk to the disk's Prefetcher one step ahead of
// consumption (the hint decomposes per stripe, so the D disks stage it
// together), so the merge's compare/copy work overlaps the disks' service
// time — the multi-run prefetch schedule is simply one-ahead per run, k-wide,
// over the D disks the runs share.
package merge

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"colsort/internal/pdm"
	"colsort/internal/record"
)

// castagnoli is the CRC32C polynomial table framing every spilled run
// chunk — the same integrity check production storage formats use, with
// hardware support on every platform the sort runs on.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Run is a finished sorted run: Records records of RecSize bytes, stored
// contiguously from offset 0 of Disk. The Run owns the disk; Close releases
// it (removing a file-backed spill).
//
// Every Run is CRC-framed: each FrameBytes-aligned chunk (the last one
// shorter) has its CRC32C recorded in a sidecar index that lives with the
// Run, computed from the writer's buffer BEFORE the bytes enter the write
// path. Readers verify each chunk as it is loaded, so bit
// rot, torn writes and in-flight corruption on the spill path are detected
// (ErrCorrupt) instead of flowing silently into "verified" output.
type Run struct {
	Disk    pdm.Disk
	RecSize int
	Records int64

	// Descending marks a run spilled in descending order (replacement
	// selection's "down" runs). A Reader walks such a run backwards, so
	// every merge input is ascending; the on-disk layout and CRC framing
	// are identical to an ascending run's.
	Descending bool

	// FrameBytes is the CRC frame length, a whole number of records; crcs[i]
	// is the CRC32C of bytes [i·FrameBytes, min((i+1)·FrameBytes, Bytes())).
	FrameBytes int
	crcs       []uint32
}

// CRCs returns the run's CRC32C sidecar index. The caller must not mutate
// it; it is exposed so a durability layer can persist the sidecar alongside
// the run and hand it back to Reopen.
func (r *Run) CRCs() []uint32 { return r.crcs }

// Reopen reconstructs a Run around an already-written disk from persisted
// metadata — the resume path's counterpart to Writer.Finish. The crcs slice
// is the sidecar a manifest recorded when the run was spilled; the reopened
// run verifies every frame against it on read, so a run damaged between the
// crash and the resume is detected exactly like in-flight corruption. A
// geometry no Writer produces — a frame that is not a positive whole number
// of records, or a sidecar that does not cover the run frame for frame — is
// refused: reading it would leave bytes unverified or records split.
func Reopen(d pdm.Disk, recSize int, records int64, descending bool, frameBytes int, crcs []uint32) (*Run, error) {
	if records < 0 || recSize < 1 || frameBytes < recSize || frameBytes%recSize != 0 {
		return nil, fmt.Errorf("merge: reopen: %d records in frames of %d bytes is no run of %d-byte records", records, frameBytes, recSize)
	}
	r := &Run{Disk: d, RecSize: recSize, Records: records, Descending: descending, FrameBytes: frameBytes, crcs: crcs}
	if frames := (r.Bytes() + int64(frameBytes) - 1) / int64(frameBytes); int64(len(crcs)) != frames {
		return nil, fmt.Errorf("merge: reopen: %d CRCs for a run of %d frames", len(crcs), frames)
	}
	return r, nil
}

// readFrameVerified reads the frame-aligned extent [off, off+len(buf)) and
// verifies its CRC32C. On mismatch the read is re-issued once directly —
// the corrupt bytes may have come from a damaged prefetch staging or a
// transient in-flight corruption, and any staged extent at this offset was
// consumed (invalidated) by the first read — before the chunk is declared
// lost with ErrCorrupt. faults, when non-nil, counts detections and heals.
func (r *Run) readFrameVerified(buf []byte, off int64, faults *pdm.FaultStats) error {
	if err := r.Disk.ReadAt(buf, off); err != nil {
		return fmt.Errorf("merge: read run: %w", err)
	}
	idx := int(off / int64(r.FrameBytes))
	if idx >= len(r.crcs) || off%int64(r.FrameBytes) != 0 {
		return fmt.Errorf("merge: unaligned framed read at offset %d (frame %d bytes, %d frames)", off, r.FrameBytes, len(r.crcs))
	}
	if crc32.Checksum(buf, castagnoli) == r.crcs[idx] {
		return nil
	}
	if faults != nil {
		faults.CorruptChunks.Add(1)
	}
	if err := r.Disk.ReadAt(buf, off); err != nil {
		return fmt.Errorf("merge: reread of corrupt run chunk: %w", err)
	}
	if crc32.Checksum(buf, castagnoli) == r.crcs[idx] {
		if faults != nil {
			faults.Rereads.Add(1)
		}
		return nil
	}
	return fmt.Errorf("%w: frame %d at run offset %d (+%d bytes)", ErrCorrupt, idx, off, len(buf))
}

// Scrub re-reads the whole run sequentially, verifying every CRC frame
// (with the same one-reread fallback the merge readers use, so only
// PERSISTENT corruption — a torn write, on-disk bit rot — fails it). It is
// the post-spill readback that catches silent write-path corruption while
// the batch that produced the run can still be redone. Each frame's
// successor is hinted to the disk's Prefetcher before the frame is read and
// verified — Reader.load's one-ahead rule — so the readback of one frame
// overlaps the staging of the next, on every disk the run is striped over.
func (r *Run) Scrub(ctx context.Context, faults *pdm.FaultStats) error {
	pf, _ := r.Disk.(pdm.Prefetcher)
	buf := make([]byte, r.FrameBytes)
	// frame returns the length of the frame at off (0 past the end).
	frame := func(off int64) int { return int(min(int64(len(buf)), r.Bytes()-off)) }
	hint := func(off int64) {
		if n := frame(off); pf != nil && n > 0 {
			pf.Prefetch(off, n)
		}
	}
	hint(0)
	for off := int64(0); off < r.Bytes(); {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := frame(off)
		hint(off + int64(n))
		if err := r.readFrameVerified(buf[:n], off, faults); err != nil {
			return fmt.Errorf("scrub: %w", err)
		}
		off += int64(n)
	}
	return nil
}

// Bytes returns the run's payload size.
func (r *Run) Bytes() int64 { return r.Records * int64(r.RecSize) }

// Close releases the backing disk.
func (r *Run) Close() error {
	if r.Disk == nil {
		return nil
	}
	err := r.Disk.Close()
	r.Disk = nil
	return err
}

// Writer appends records sequentially onto a disk, coalescing them into
// chunkRecs-record WriteAt calls so the disk sees large sequential writes
// (and an async disk overlaps them with the producer). The caller owns the
// disk until Finish succeeds, after which the returned Run does. A Writer
// writes one run at a time and any number of them in turn: Reset re-arms it
// on the next disk.
type Writer struct {
	// Pool lends the frame buffer a chunk that straddles a frame boundary is
	// staged in, from the first staged byte until the frame is written (nil:
	// the heap).
	Pool *record.Pool

	d       pdm.Disk
	recSize int
	frame   int    // frame length, bytes
	buf     []byte // the staged part of the next frame; nil when none is
	off     int64
	records int64
	crcs    []uint32
}

// NewWriter starts a run of recSize-byte records on d, buffering chunkRecs
// records per write.
func NewWriter(d pdm.Disk, recSize, chunkRecs int) *Writer {
	return &Writer{d: d, recSize: recSize, frame: max(chunkRecs, 1) * recSize}
}

// Reset abandons whatever the writer holds and starts a new run on d, with
// the same record size, frame length and pool. The previous run, finished or
// failed, is unaffected: a Run owns its CRC index, and the disk layers
// snapshot what they defer, so nothing still references a frame buffer.
func (w *Writer) Reset(d pdm.Disk) {
	w.Pool.PutBytes(w.buf)
	*w = Writer{Pool: w.Pool, d: d, recSize: w.recSize, frame: w.frame}
}

// Append adds the records of recs to the run. A whole frame that arrives
// contiguous and on the frame grid — the producers hand over chunkRecs-record
// chunks — is framed and written from where it lies: WriteAt does not keep
// its argument (the disk layers snapshot what they defer), so only a chunk
// that straddles a frame boundary, a run's short last chunk among them, is
// staged through a frame buffer.
func (w *Writer) Append(recs record.Slice) error {
	if recs.Size != w.recSize {
		return fmt.Errorf("merge: appending %d-byte records to a %d-byte run", recs.Size, w.recSize)
	}
	for data := recs.Data; len(data) > 0; {
		if w.buf == nil && len(data) >= w.frame {
			if err := w.writeFrame(data[:w.frame]); err != nil {
				return err
			}
			data = data[w.frame:]
			continue
		}
		if w.buf == nil {
			w.buf = w.Pool.GetBytes(w.frame)[:0]
		}
		n := min(w.frame-len(w.buf), len(data))
		w.buf = append(w.buf, data[:n]...)
		data = data[n:]
		if len(w.buf) == w.frame {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	w.records += int64(recs.Len())
	return nil
}

// flush writes the staged partial frame, if any, and hands its buffer back.
func (w *Writer) flush() error {
	if w.buf == nil {
		return nil
	}
	err := w.writeFrame(w.buf)
	w.Pool.PutBytes(w.buf)
	w.buf = nil
	return err
}

// writeFrame appends one frame to the run.
func (w *Writer) writeFrame(p []byte) error {
	// Frame the chunk BEFORE it enters the write path: the CRC fingerprints
	// what the merge handed us, so anything the storage stack loses or
	// mangles afterwards — a torn write-behind, bit rot on the spill disk,
	// corruption on the later read — fails verification.
	w.crcs = append(w.crcs, crc32.Checksum(p, castagnoli))
	if err := w.d.WriteAt(p, w.off); err != nil {
		return fmt.Errorf("merge: write run: %w", err)
	}
	w.off += int64(len(p))
	return nil
}

// Finish flushes the tail, drains any write-behind queue, and returns the
// completed Run (which now owns the disk). On error the caller still owns
// the disk and must close it.
func (w *Writer) Finish() (*Run, error) {
	if err := w.flush(); err != nil {
		return nil, err
	}
	if fl, ok := w.d.(pdm.Flusher); ok {
		if err := fl.Flush(); err != nil {
			return nil, fmt.Errorf("merge: flush run: %w", err)
		}
	}
	return &Run{Disk: w.d, RecSize: w.recSize, Records: w.records,
		FrameBytes: w.frame, crcs: w.crcs}, nil
}

// Reader streams a run's records in ASCENDING order, whichever way the run
// was spilled: an ascending run is walked front to back, a Descending one
// back to front. The two walks differ in a sign. Loads sit on one
// frame-aligned grid anchored at offset 0 (only the last grid chunk may be
// short), so CRC verification — the alignment invariant of
// readFrameVerified and its one-reread healing — is identical both ways.
// Each chunk load hints the NEXT chunk in walk order (exact offset and
// length) to the disk's Prefetcher, so on async-backed disks the blocking
// ReadAt of one chunk executes while the following one is being staged —
// and across the k readers of a merge, k fetches are in flight at once.
type Reader struct {
	run        *Run
	chunk      []byte
	cur        []byte // current chunk's live bytes
	pos        int    // byte position of the current record within cur
	step       int    // ±RecSize: the record walk
	key        uint64 // 8-byte key prefix of the current record
	frame      int64  // grid index of the next chunk to load
	dir        int64  // ±1: the frame walk
	frames     int64  // grid chunks in the run
	chunkBytes int64
	bytesRead  int64 // total bytes loaded (stats)

	faults *pdm.FaultStats // CRC detection/heal counters; may be nil
}

// NewReader opens a reader over run in the direction run.Descending
// selects, loading one CRC frame per disk read, so every load is exactly one
// verifiable frame. The chunk buffer is drawn from pool (nil: the heap);
// whoever passes one returns the reader's chunk to it when done.
func NewReader(run *Run, pool *record.Pool) *Reader {
	chunkBytes := int64(run.FrameBytes)
	r := &Reader{
		run:        run,
		chunk:      pool.GetBytes(int(chunkBytes)),
		chunkBytes: chunkBytes,
		frames:     (run.Bytes() + chunkBytes - 1) / chunkBytes,
		step:       run.RecSize,
		dir:        1,
	}
	if run.Descending {
		r.step, r.dir, r.frame = -run.RecSize, -1, r.frames-1
	}
	return r
}

// hint stages the next chunk to load, if any, with the disk's Prefetcher.
func (r *Reader) hint() {
	if p, ok := r.run.Disk.(pdm.Prefetcher); ok && uint64(r.frame) < uint64(r.frames) {
		p.Prefetch(r.extentOf(r.frame))
	}
}

// extentOf returns the offset and length of grid chunk i.
func (r *Reader) extentOf(i int64) (int64, int) {
	off := i * r.chunkBytes
	n := r.run.Bytes() - off
	if n > r.chunkBytes {
		n = r.chunkBytes
	}
	return off, int(n)
}

// load reads the next chunk in walk order, positions on its first record
// in that order, and hints the chunk after it.
func (r *Reader) load() error {
	if uint64(r.frame) >= uint64(r.frames) {
		r.cur, r.pos, r.key = nil, 0, record.MaxKey
		return nil
	}
	off, n := r.extentOf(r.frame)
	buf := r.chunk[:n]
	if err := r.run.readFrameVerified(buf, off, r.faults); err != nil {
		return err
	}
	r.frame += r.dir
	r.bytesRead += int64(n)
	r.cur, r.pos = buf, 0
	if r.step < 0 {
		r.pos = n + r.step
	}
	r.key = binary.BigEndian.Uint64(buf[r.pos:])
	r.hint()
	return nil
}

// Prime loads the first chunk and hints the second; it must be called once,
// before Cur/Advance.
func (r *Reader) Prime() error {
	r.hint()
	return r.load()
}

// done reports run exhaustion without materializing the record slice: pos
// has walked off either end of cur (the unsigned compare covers both).
func (r *Reader) done() bool { return uint(r.pos) >= uint(len(r.cur)) }

// Cur returns the current record's bytes, or nil when the run is exhausted.
func (r *Reader) Cur() []byte {
	if r.done() {
		return nil
	}
	return r.cur[r.pos : r.pos+r.run.RecSize]
}

// Key returns the current record's 8-byte big-endian key prefix, cached at
// each advance so merge comparisons need not touch the chunk bytes; once the
// run is exhausted it is record.MaxKey, which a live record can carry too —
// done() tells the two apart.
func (r *Reader) Key() uint64 { return r.key }

// Advance moves to the next record in ascending order, loading the next
// chunk when the current one is consumed and refreshing the cached key
// prefix.
func (r *Reader) Advance() error {
	r.pos += r.step
	if r.done() {
		return r.load()
	}
	r.key = binary.BigEndian.Uint64(r.cur[r.pos:])
	return nil
}

// take copies the records of an ascending run's loaded frame into dst from
// the current one on, as many as fit, and moves past them as that many
// Advance calls would; it returns the bytes copied. The reader must not be
// exhausted, and dst must hold a record.
func (r *Reader) take(dst []byte) (int, error) {
	n := copy(dst, r.cur[r.pos:]) // whole records, as dst and the frame both hold
	r.pos += n - r.run.RecSize    // onto the last record copied
	return n, r.Advance()
}

// BytesRead returns the bytes loaded so far (stats).
func (r *Reader) BytesRead() int64 { return r.bytesRead }
