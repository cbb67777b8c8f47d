package colsort

import (
	"context"
	"fmt"

	"colsort/internal/core"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/verify"
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
// configured algorithm and — when dst is non-nil — streamed into the sink
// with any padding trimmed and any KeySpec normalization undone, verified
// as it is emitted: each chunk's order (global sortedness in PDM
// column-major order) before the sink sees it, multiset preservation
// before the writer is closed. A failed Sort never publishes a ToFile
// output (see Sink). A nil dst keeps the sorted data in Result.Output
// only, for Result.Verify to check. The
// baselines (BaselineIO3, BaselineIO4) move records without sorting them, so
// they take only a nil dst: with a Sink they are refused before a record is
// read.
//
// Sort is unbounded in n: when the record count exceeds the selected
// algorithm's problem-size bound (or a WithMaxMemory cap), the input is
// transparently cut into maximal sorted runs by replacement selection, and
// the runs are combined by loser-tree k-way merges (WithMergeFanIn), the
// last streaming straight into dst with prefetch on the run reads, write-behind
// on the output, and in-stream verification — see Result.Merge and
// DESIGN.md §7. PlanSort tells beforehand which of the two a call executes
// and states the rule; the merged output only exists as a stream, so a
// hierarchical Sort with a nil dst fails with ErrSinkRequired.
//
// Concurrent Sort calls are admitted against the engine's TotalMemory
// budget: each job's ask is its WithMaxMemory cap when given, otherwise
// the record bytes it holds at a time (SortPlan.RunRecords). A job that does not fit waits FIFO for
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

	// Settle what this job holds in memory at a time — the whole sort below
	// the bound, the former's resident set above it — BEFORE admission: its
	// record bytes are the job's ask. Plan-level failures
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
	return e.runJob(ctx, o, sp.RunRecords*int64(e.cfg.RecordSize), func(j *job) (*Result, error) {
		if sp.MaxRuns > 0 {
			return j.newHierJob(o, codec, n, sp).sortHierarchical(ctx, rd, dst)
		}
		return j.sortSingle(ctx, rd, dst, o, codec, n, sp.Plan)
	})
}

// sortSingle executes one admitted single-run job: ingest into a fresh store
// of the plan's shape, the pl columnsort run, and the verifying drain into
// dst.
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
	out := &Result{Result: res, want: want, realN: n}
	if dst != nil {
		// One scan: the drain checks each chunk's order and folds its
		// multiset as it emits. The pads are never read — a sorted real
		// prefix with the input's multiset leaves only pads behind it.
		err := egress(dst, out.Output.RecSize, codec, want, func(emit func(record.Slice) error) (record.Checksum, error) {
			return verify.Drain(ctx, out.Output, out.RealRecords(), emit)
		})
		if err != nil {
			out.Close()
			return nil, err
		}
	}
	return out, nil
}

// fillStore streams the source's records into the store in global
// column-major index order — the order Store.Fill assigns, through the same
// Store.FillRows chain, one bulk read per owned segment — normalizing each
// record through the codec, folding the real records into the returned
// checksum, and padding any remainder with all-0xFF records, which are
// maximal in the normalized space, so they sort to the end for every KeySpec.
// Three stages overlap: the read, encode and pad on FillRows' source (the
// only reader of rd) ‖ the fold ‖ the store write.
func fillStore(ctx context.Context, st *pdm.Store, rd RecordReader, codec record.KeyCodec, n int64) (record.Checksum, error) {
	var want record.Checksum
	// realPart returns the real records of rows lo… of column j, and the
	// first one's index.
	realPart := func(j, lo int, chunk record.Slice) (record.Slice, int64) {
		idx := int64(j)*int64(st.R) + int64(lo)
		return chunk.Sub(0, int(min(int64(chunk.Len()), max(n-idx, 0)))), idx
	}
	err := st.FillRows(ctx, func(j, lo int, chunk record.Slice) error {
		real, idx := realPart(j, lo, chunk)
		if got, err := readRecords(rd, real); err != nil {
			return fmt.Errorf("colsort: input record %d: %w", idx+int64(got), err)
		}
		codec.Encode(real)
		pad := chunk.Data[len(real.Data):]
		for k := range pad {
			pad[k] = 0xff
		}
		return nil
	}, func(j, lo int, chunk record.Slice) error {
		real, _ := realPart(j, lo, chunk)
		want.AddSlice(real)
		return nil
	})
	return want, err
}
