package merge

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/tournament"
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
	// DefaultChunkRecs); each run reader loads one CRC frame at a time. Peak
	// merge memory is roughly k frames plus (emitDepth + 1) · ChunkRecs ·
	// recSize bytes for k runs.
	ChunkRecs int
	// Progress, when non-nil, receives the cumulative emitted record count
	// after each chunk. Called from the merge goroutine, sequentially.
	Progress func(merged int64)
	// Faults, when non-nil, counts CRC corruption detections and
	// reread heals observed while loading the input runs.
	Faults *pdm.FaultStats
	// Pool, when non-nil, lends the run readers their chunk buffers for the
	// duration of the merge.
	Pool *record.Pool
}

// DefaultChunkRecs is the chunk size used when Options does not set one.
const DefaultChunkRecs = 1 << 12

// emitDepth is the write-behind depth of the emit stage: chunks in flight
// between the merge loop and the consumer.
const emitDepth = 3

// Stats reports what one merge moved.
type Stats struct {
	BytesRead    int64 // bytes loaded from the input runs
	BytesWritten int64 // bytes handed to emit
}

// Merge combines the sorted runs into one sorted stream, calling emit with
// successive chunks of records in total order. The records flow straight
// from the run disks to emit — nothing is materialized — and emit runs on a
// background goroutine (write-behind on the merged output), overlapping the
// sink's own I/O with the merge's compare/copy work and the runs' prefetch.
//
// The stream is verified as it flows: every emitted record is checked
// against its predecessor (ErrOrder on violation — a corrupt run can never
// produce a silently unsorted output) and the returned Checksum fingerprints
// the emitted multiset for the caller to compare against its ingest
// checksum. Ties between runs break by run index, so a merge is
// deterministic for any input.
//
// Cancelling ctx aborts between chunks; the emit goroutine is always joined
// before Merge returns, whatever the outcome, so no goroutine outlives the
// call. Chunk buffers are recycled internally; emit must not retain its
// argument past return.
func Merge(ctx context.Context, runs []*Run, emit func(record.Slice) error, opt Options) (record.Checksum, Stats, error) {
	var cs record.Checksum
	var st Stats
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
	for i := range readers {
		if err := readers[i].Prime(); err != nil {
			return cs, st, err
		}
	}
	t := newTourney(readers)

	// Emit write-behind: the worker drains full chunks and recycles the
	// buffers; after its first error it stops calling emit but keeps
	// recycling, so the merge loop can never deadlock on a dead sink.
	full := make(chan record.Slice, emitDepth)
	free := make(chan record.Slice, emitDepth)
	for i := 0; i < emitDepth; i++ {
		free <- record.Make(chunkRecs, z)
	}
	var emitMu sync.Mutex
	var emitErr error
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		for c := range full {
			emitMu.Lock()
			failed := emitErr != nil
			emitMu.Unlock()
			if !failed {
				if err := emit(c); err != nil {
					emitMu.Lock()
					emitErr = err
					emitMu.Unlock()
				}
			}
			free <- c.Sub(0, chunkRecs)
		}
	}()
	finish := func(err error) (record.Checksum, Stats, error) {
		close(full)
		done.Wait()
		for i := range readers {
			st.BytesRead += readers[i].BytesRead()
			opt.Pool.PutBytes(readers[i].chunk)
		}
		if err == nil {
			emitMu.Lock()
			err = emitErr
			emitMu.Unlock()
		}
		return cs, st, err
	}

	prev := make([]byte, z) // last emitted record, for the order check
	havePrev := false
	var emitted, total int64
	for _, r := range runs {
		total += r.Records
	}
	for emitted < total {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		emitMu.Lock()
		failed := emitErr != nil
		emitMu.Unlock()
		if failed {
			return finish(nil) // finish surfaces emitErr
		}
		buf := <-free
		want := chunkRecs
		if left := total - emitted; left < int64(want) {
			want = int(left)
		}
		out := buf.Sub(0, want)
		for i := 0; i < want; i++ {
			rec := t.winner()
			if rec == nil {
				return finish(fmt.Errorf("merge: runs exhausted after %d of %d records (inconsistent run lengths)", emitted+int64(i), total))
			}
			if havePrev && bytes.Compare(rec, prev) < 0 {
				return finish(fmt.Errorf("%w at record %d", ErrOrder, emitted+int64(i)))
			}
			copy(prev, rec)
			havePrev = true
			copy(out.Record(i), rec)
			if err := t.pop(); err != nil {
				return finish(err)
			}
		}
		cs.AddSlice(out)
		emitted += int64(want)
		st.BytesWritten += int64(want * z)
		full <- out
		if opt.Progress != nil {
			opt.Progress(emitted)
		}
	}
	return finish(nil)
}

// MergeToRun merges runs into the new run w writes — one node of a
// multi-level merge tree. On success the returned Run owns w's disk; on
// error the caller still owns it.
func MergeToRun(ctx context.Context, runs []*Run, w *Writer, opt Options) (*Run, Stats, error) {
	_, st, err := Merge(ctx, runs, w.Append, opt)
	if err != nil {
		return nil, st, err
	}
	out, err := w.Finish()
	return out, st, err
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

// pop advances the winning run and replays its path to the root.
func (t *tourney) pop() error {
	w := t.node[0].ID
	if err := t.readers[w].Advance(); err != nil {
		return fmt.Errorf("merge: run %d: %w", w, err)
	}
	tournament.Replay(t.node, w, t.readers[w].Key(), t.tieBeats)
	return nil
}
