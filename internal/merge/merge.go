package merge

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"colsort/internal/pdm"
	"colsort/internal/pipeline"
	"colsort/internal/record"
	"colsort/internal/tournament"
	"colsort/internal/verify"
)

// ErrOrder reports a merge input that was not actually sorted — streaming
// verification caught a record smaller than its predecessor in the output.
var ErrOrder = errors.New("merge: output order violated (corrupt run)")

// ErrCorrupt reports a CRC-framed run chunk whose bytes no longer match the
// checksum recorded when the run was written — and still don't after one
// direct reread. The wrapping error carries the frame index and run offset.
var ErrCorrupt = errors.New("merge: run chunk failed CRC verification")

// Options tunes one merge.
type Options struct {
	// ChunkRecs is the records per emitted chunk (< 1 selects
	// DefaultChunkRecs); each run reader loads one CRC frame at a time. A
	// merge of k runs holds k reader frames plus emitDepth emitted chunks of
	// ChunkRecs · recSize bytes each.
	ChunkRecs int
	// Progress, when non-nil, receives the cumulative emitted record count
	// after each chunk. Called from the merge goroutine, sequentially.
	Progress func(merged int64)
	// Faults, when non-nil, counts CRC corruption detections and
	// reread heals observed while loading the input runs.
	Faults *pdm.FaultStats
	// Pool, when non-nil, lends the run readers their frames and the stages
	// their chunks for the duration of the merge.
	Pool *record.Pool
}

// DefaultChunkRecs is the chunk size used when Options does not set one.
const DefaultChunkRecs = 1 << 12

// emitDepth is the number of chunk buffers cycling through the merge's
// three stages: one each for the merge loop, the verify stage and emit to hold
// at once.
const emitDepth = 3

// Stats reports what one merge moved.
type Stats struct {
	BytesRead    int64 // bytes loaded from the input runs
	BytesWritten int64 // bytes handed to emit
}

// Merge combines the sorted runs into one sorted stream, calling emit with
// successive chunks of records in total order. The records flow straight
// from the run disks to emit — nothing is materialized — through three
// goroutine stages of one pipeline.Chain, over emitDepth chunk buffers
// recycled through a free list: the merge loop pops the tournament and
// copies the winners into a chunk; the verify stage checks the chunk's
// order and folds it into the multiset checksum; emit runs on a third
// goroutine (write-behind on the merged output), overlapping the sink's own
// I/O with the other two stages and the runs' prefetch.
//
// The stream is verified as it flows: every record is checked against its
// predecessor before emit sees its chunk (ErrOrder, naming the record's
// index, on violation — a corrupt run can never produce a silently
// unsorted output, and the sink never receives the chunk that breaks the
// order or any after it), and the returned Checksum fingerprints the
// emitted multiset for the caller to compare against its ingest checksum.
// Ties between runs break by run index, so a merge is deterministic for
// any input.
//
// The first error of any stage — a run read or CRC failure, ErrOrder,
// emit's error, ctx's — stops the other two between chunks and is the one
// returned; every stage is joined before Merge returns, whatever the
// outcome, so no goroutine outlives the call. Chunk buffers are recycled
// internally; emit must not retain its argument past return.
func Merge(ctx context.Context, runs []*Run, emit func(record.Slice) error, opt Options) (record.Checksum, Stats, error) {
	return merge(ctx, runs, emit, opt, true)
}

// MergeToRun merges runs into the new run w writes — one node of a
// multi-level merge tree. On success the returned Run owns w's disk; on
// error the caller still owns it. The level's order and its inputs' CRC
// frames are checked as in Merge; its multiset is not fingerprinted, since
// the final merge's checksum covers every record the tree emits.
func MergeToRun(ctx context.Context, runs []*Run, w *Writer, opt Options) (*Run, Stats, error) {
	_, st, err := merge(ctx, runs, w.Append, opt, false)
	if err != nil {
		return nil, st, err
	}
	out, err := w.Finish()
	return out, st, err
}

// merge is Merge, folding the emitted multiset into the returned checksum
// only when fold is set.
func merge(ctx context.Context, runs []*Run, emit func(record.Slice) error, opt Options, fold bool) (cs record.Checksum, st Stats, err error) {
	if len(runs) == 0 {
		return cs, st, nil
	}
	z := runs[0].RecSize
	for i, r := range runs {
		if r.RecSize != z {
			return cs, st, fmt.Errorf("merge: run %d has %d-byte records, run 0 has %d", i, r.RecSize, z)
		}
	}
	chunkRecs := opt.ChunkRecs
	if chunkRecs < 1 {
		chunkRecs = DefaultChunkRecs
	}

	readers := make([]Reader, len(runs))
	for i, r := range runs {
		readers[i] = *NewReader(r, opt.Pool)
		readers[i].faults = opt.Faults
	}
	defer func() {
		for i := range readers {
			st.BytesRead += readers[i].BytesRead()
			opt.Pool.PutBytes(readers[i].chunk)
		}
	}()
	for i := range readers {
		if err := readers[i].Prime(); err != nil {
			return cs, st, err
		}
	}
	t := newTourney(readers)

	bufs := make([]record.Slice, emitDepth)
	for i := range bufs {
		bufs[i] = opt.Pool.Get(chunkRecs, z)
	}
	defer func() {
		for _, b := range bufs {
			opt.Pool.Put(b)
		}
	}()
	var order verify.Order
	var checked int64 // records the verify stage has passed
	check := func(c record.Slice) (record.Slice, error) {
		if i := order.Check(c); i >= 0 {
			return c, fmt.Errorf("%w at record %d", ErrOrder, checked+int64(i))
		}
		checked += int64(c.Len())
		if fold {
			cs.AddSlice(c)
		}
		return c, nil
	}

	// The pop loop takes a free chunk, fills it and hands it on; emit puts
	// each chunk back on the free list. Every channel holds every chunk
	// there is, so no send blocks: only the pop loop waits, for a free chunk.
	free := make(chan record.Slice, emitDepth)
	for _, b := range bufs {
		free <- b
	}
	var total int64
	for _, r := range runs {
		total += r.Records
	}
	g := pipeline.NewGroup(ctx)
	pop := func(send func(record.Slice) error) error {
		for emitted := int64(0); emitted < total; {
			buf, _, err := pipeline.Recv(g.Context(), free)
			if err != nil {
				return err
			}
			out := buf.Sub(0, int(min(int64(chunkRecs), total-emitted)))
			if err := t.fill(out, emitted, total); err != nil {
				return err
			}
			emitted += int64(out.Len())
			st.BytesWritten += int64(len(out.Data))
			if err := send(out); err != nil {
				return err
			}
			if opt.Progress != nil {
				opt.Progress(emitted)
			}
		}
		return nil
	}
	pipeline.Chain(g, emitDepth, pop, func(c record.Slice) error {
		err := emit(c)
		free <- c
		return err
	}, check)
	err = g.Wait() // before cs and st are read: the stages write them
	return cs, st, err
}

// tourney is the k-way tournament over the runs' readers, on the shared
// loser-tree kernel (internal/tournament): contestant r is reader r and its
// key the 8-byte prefix the reader caches at each advance — record.MaxKey
// once the run is exhausted — so the common match is one 16-byte node load
// and one uint64 compare that never touches the chunk bytes. The kernel sees
// keys only: the fallible, blocking part of a pop (Reader.Advance loading
// and CRC-checking the next chunk) happens before the replay, outside it.
type tourney struct {
	readers []Reader
	node    []tournament.Node
}

// newTourney plays the initial tournament over primed readers.
func newTourney(readers []Reader) *tourney {
	t := &tourney{readers: readers, node: make([]tournament.Node, len(readers))}
	tournament.Play(t.node, func(r int32) tournament.Node {
		return tournament.Node{Key: t.readers[r].Key(), ID: r}
	}, t.tieBeats)
	return t
}

// tieBeats resolves a key-prefix tie between readers o and w. An exhausted
// reader's sentinel can tie a live record whose prefix is all ones, so
// liveness is re-checked here: exhausted loses to everything. Record order
// is plain lexicographic byte order — the engine's key is the first 8 bytes
// big-endian with payload tie-break, which coincides with bytes.Compare over
// the whole record — and whole-record duplicates break on run index, so a
// merge is deterministic.
func (t *tourney) tieBeats(o, w int32) bool {
	ro, rw := &t.readers[o], &t.readers[w]
	if ro.done() {
		return false
	}
	if rw.done() {
		return true
	}
	if c := bytes.Compare(ro.Cur(), rw.Cur()); c != 0 {
		return c < 0
	}
	return o < w
}

// winner returns the current smallest record, or nil when all runs are
// exhausted.
func (t *tourney) winner() []byte { return t.readers[t.node[0].ID].Cur() }

// fill pops the next out.Len() records into out, which starts at record
// emitted of a stream of total.
func (t *tourney) fill(out record.Slice, emitted, total int64) error {
	z := out.Size
	for off := 0; off < len(out.Data); off += z {
		rec := t.winner()
		if rec == nil {
			return fmt.Errorf("merge: runs exhausted after %d of %d records (inconsistent run lengths)", emitted+int64(off/z), total)
		}
		copy(out.Data[off:off+z], rec)
		if err := t.pop(); err != nil {
			return err
		}
	}
	return nil
}

// pop advances the winning run and replays its path to the root.
func (t *tourney) pop() error {
	w := t.node[0].ID
	if err := t.readers[w].Advance(); err != nil {
		return fmt.Errorf("merge: run %d: %w", w, err)
	}
	tournament.Replay(t.node, w, t.readers[w].Key(), t.tieBeats)
	return nil
}
