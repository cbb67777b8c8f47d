package colsort

import (
	"context"
	"fmt"

	"colsort/internal/core"
	"colsort/internal/pdm"
	"colsort/internal/record"
)

// Sort submits one sorting job to the engine: the records of src are
// sorted into dst under ctx.
//
//	res, err := engine.Sort(ctx, colsort.FromFile("in.dat"), colsort.ToFile("out.dat"),
//	        colsort.WithAlgorithm(colsort.Subblock),
//	        colsort.WithKeySpec(colsort.KeySpec{Offset: 16, Width: 8}))
//
// The input is ingested once, in index order, onto the simulated cluster's
// disks (never more than one column portion in memory), sorted by the
// configured algorithm, verified (global sortedness in PDM column-major
// order plus multiset preservation) and — when dst is non-nil — streamed
// into the sink with any padding trimmed and any KeySpec normalization
// undone. A nil dst keeps the sorted data in Result.Output only. The
// baselines (BaselineIO3, BaselineIO4) move records without sorting them, so
// they take only a nil dst: with a Sink they are refused before a record is
// read.
//
// Sort is unbounded in n: when the record count exceeds the selected
// algorithm's problem-size bound (or a WithMaxMemory cap), the input is
// transparently cut into maximal sorted runs by replacement selection, and
// the runs are combined by a loser-tree k-way merge (WithMergeFanIn)
// streaming straight into dst with prefetch on the run reads, write-behind
// on the output, and in-stream verification — see Result.Merge and
// DESIGN.md §7. PlanSort tells beforehand which of the two a call executes
// and states the rule; the merged output only exists as a stream, so a
// hierarchical Sort with a nil dst fails with ErrSinkRequired.
//
// Concurrent Sort calls are admitted against the engine's TotalMemory
// budget: each job's ask is its WithMaxMemory cap when given, otherwise
// its run plan's record bytes. A job that does not fit waits FIFO for
// earlier jobs to release their leases — cancel ctx to stop waiting, or
// pass WithNoWait to fail fast with ErrBusy. Admitted jobs run fully in
// parallel: they share the engine's warm buffer pools and backend but
// keep their own fault counters, progress, cancellation and scratch
// namespace, so each result is byte-identical to a solo run.
//
// Cancelling ctx (or exceeding its deadline) tears the job down: all P
// processor goroutines, the pipeline stages between them and the
// asynchronous disk workers unwind, write-behind queues drain, scratch
// files are removed, and Sort returns an error satisfying
// errors.Is(err, ctx.Err()) without leaking goroutines or files.
//
// The returned Result carries the exact operation counts and the cost
// model; the caller owns Close.
func (e *Engine) Sort(ctx context.Context, src Source, dst Sink, opts ...Option) (*Result, error) {
	o := newSortOptions(opts)
	if src == nil {
		return nil, fmt.Errorf("colsort: nil Source")
	}
	if o.deadline > 0 {
		// The deadline clock starts here — admission waiting included — so
		// a queued job cannot outlive its budget before doing any work.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}
	n, rd, err := src.Open(e.cfg.RecordSize)
	if err != nil {
		return nil, err
	}
	defer rd.Close()

	// Settle the plan of the one run this job holds in memory at a time —
	// the whole sort below the bound, one run's capacity above it — BEFORE
	// admission: its record bytes are the job's ask. Plan-level failures
	// (unplannable count, hierarchical sort without a Sink, a baseline with
	// one) surface here, before the job can occupy budget.
	sp, codec, err := e.resolve(o, n)
	if err != nil {
		return nil, err
	}
	if sp.MaxRuns > 0 && dst == nil {
		// Wrap BOTH sentinels: ErrSinkRequired names what is missing, and
		// callers branching on ErrTooLarge (the legacy above-bound failure
		// mode) must keep matching when the only thing missing is a Sink.
		return nil, fmt.Errorf("%w: %d records exceed the single-run bound (%w) and must stream through the hierarchical merge; pass a non-nil Sink (Discard() drops the output)", ErrSinkRequired, n, core.ErrTooLarge)
	}
	if dst != nil && (o.alg == BaselineIO3 || o.alg == BaselineIO4) {
		return nil, fmt.Errorf("colsort: WithAlgorithm(%v) with a Sink: a baseline moves records without sorting them, so it has no output to emit; pass a nil Sink", o.alg)
	}
	return e.runJob(ctx, o, sp.N*int64(sp.Z), func(j *job) (*Result, error) {
		if sp.MaxRuns > 0 {
			return j.newHierJob(o, codec, n, sp.Plan).sortHierarchical(ctx, rd, dst)
		}
		return j.sortSingle(ctx, rd, dst, o, codec, n, sp.Plan)
	})
}

// sortSingle executes one admitted single-run job: ingest into a fresh store
// of the plan's shape, the pl columnsort run, verify, and drain into dst.
func (j *job) sortSingle(ctx context.Context, rd RecordReader, dst Sink, o sortOptions, codec record.KeyCodec, n int64, pl core.Plan) (*Result, error) {
	input, err := pl.NewStore(j.m)
	if err != nil {
		return nil, err
	}
	// want is the multiset checksum of the real records in the engine's
	// normalized key space.
	want, err := fillStore(ctx, input, rd, codec, n)
	if err != nil {
		input.Close()
		return nil, err
	}
	res, err := core.Run(ctx, pl, j.m, input, core.Hooks{Progress: o.progress})
	input.Close()
	if err != nil {
		return nil, err
	}
	out := &Result{Result: res, want: want, codec: codec}
	if n < pl.N {
		out.realN = n
	}
	if dst != nil {
		// Verify BEFORE emitting: a failed sort must never hand the sink a
		// plausible-looking output.
		if err := out.Verify(); err != nil {
			out.Close()
			return nil, fmt.Errorf("colsort: refusing to emit output: %w", err)
		}
		if err := out.drainTo(ctx, dst); err != nil {
			out.Close()
			return nil, err
		}
	}
	return out, nil
}

// fillStore streams the source's records into the store in global
// column-major index order — the order Store.Fill assigns, through the same
// Store.FillRows loop, one bulk read per owned-rows chunk — normalizing each
// record through the codec, folding the real records into the returned
// checksum, and padding any remainder with all-0xFF records, which are
// maximal in the normalized space, so they sort to the end for every KeySpec.
func fillStore(ctx context.Context, st *pdm.Store, rd RecordReader, codec record.KeyCodec, n int64) (record.Checksum, error) {
	var want record.Checksum
	var idx int64
	err := st.FillRows(func(_, _ int, chunk record.Slice) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		real := chunk.Sub(0, int(min(int64(chunk.Len()), max(n-idx, 0))))
		if got, err := readRecords(rd, real); err != nil {
			return fmt.Errorf("colsort: input record %d: %w", idx+int64(got), err)
		}
		codec.Encode(real)
		want.AddSlice(real)
		pad := chunk.Data[len(real.Data):]
		for k := range pad {
			pad[k] = 0xff
		}
		idx += int64(chunk.Len())
		return nil
	})
	return want, err
}

// drainTo streams the result's real records into the sink, decoding each
// chunk back to the caller's byte layout. Each owned row segment is
// prefetched one step ahead, so an async-backed store overlaps the sink
// writes with its disk service time.
func (r *Result) drainTo(ctx context.Context, dst Sink) error {
	if r.Output == nil {
		return fmt.Errorf("colsort: hierarchical result holds no output store: the sorted records were already streamed to the Sort call's Sink")
	}
	w, err := dst.Open(r.Output.RecSize)
	if err != nil {
		return err
	}
	err = scanRealPrefix(ctx, r.Output, r.RealRecords(), func(chunk record.Slice) error {
		r.codec.Decode(chunk)
		return w.Write(chunk)
	})
	if err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// WriteFile streams the sorted records (excluding any power-of-two padding,
// and decoded back to the caller's key layout) into a newly created file at
// path, in the global column-major sorted order.
func (r *Result) WriteFile(path string) error {
	return r.drainTo(context.Background(), ToFile(path))
}

// scanRealPrefix streams the real (non-pad) prefix of a sorted store in
// global column-major order, invoking emit with successive record chunks.
// The scan stops behind the last real record (ErrStopScan), so the pad tail
// is not read, and each owned segment is prefetched one step ahead by
// ScanSegments.
func scanRealPrefix(ctx context.Context, st *pdm.Store, real int64, emit func(record.Slice) error) error {
	return st.ScanRows(func(_, _ int, chunk record.Slice) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk = chunk.Sub(0, int(min(int64(chunk.Len()), real)))
		if err := emit(chunk); err != nil {
			return err
		}
		if real -= int64(chunk.Len()); real == 0 {
			return pdm.ErrStopScan
		}
		return nil
	})
}
