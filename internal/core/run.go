package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"colsort/internal/cluster"
	"colsort/internal/pdm"
	"colsort/internal/pipeline"
	"colsort/internal/record"
	"colsort/internal/sim"
)

// Result reports a completed out-of-core sort: the output store (owned by
// the caller) and the exact operation counts of every pass.
type Result struct {
	Plan   Plan
	Output *pdm.Store
	// PassCounters[k][p] holds the operations of processor p in pass k. A
	// hierarchical sort's synthetic passes (run formation, the merge tree)
	// carry ONE counter set each: one stream of work, striped over all D
	// disks.
	PassCounters [][]sim.Counters
}

// Estimate applies a cost model to the measured counters (experiment E1).
// The counter sets of a pass split the machine's D disks evenly: each of an
// engine pass's P sets is served by its processor's D/P disks, the single
// set of a hierarchical pass by all D.
func (res *Result) Estimate(cm sim.CostModel) sim.RunEstimate {
	var run sim.RunEstimate
	for _, pass := range res.PassCounters {
		e := cm.EstimatePass(pass, res.Plan.D/max(len(pass), 1))
		run.Passes = append(run.Passes, e)
		run.Total += e.Total
	}
	return run
}

// TotalCounters sums all passes and processors.
func (res *Result) TotalCounters() sim.Counters {
	var tot sim.Counters
	for _, pass := range res.PassCounters {
		for _, c := range pass {
			tot.Add(c)
		}
	}
	return tot
}

// Progress reports the advance of a running sort. Pass is 1-based; Round
// counts pipeline rounds completed within the pass, so Round == 0 marks the
// pass starting and Round == Rounds the pass complete. Events are emitted by
// rank 0 only (one processor's view; the passes are bulk-synchronous, so it
// is representative).
//
// Hierarchical (above-bound) sorts emit two event families of their own,
// both with Pass == 0 (no engine pass runs above the bound): run formation
// reports FormedRecords/TotalRecords with Batch naming the run being
// formed, and the k-way merge reports MergedRecords/TotalRecords, the
// position of the merged output stream, with Batches the runs it started
// from.
// The JSON tags are the wire representation of the colsort-server's SSE
// progress push; TestWireEncodingGolden (root package) pins them.
type Progress struct {
	Pass   int `json:"pass"`   // 1-based index of the pass the event belongs to; 0 for merge events
	Passes int `json:"passes"` // total passes of the algorithm
	Round  int `json:"round"`  // rounds completed by rank 0 within this pass
	Rounds int `json:"rounds"` // rounds per processor per pass

	Batch   int `json:"batch,omitempty"`   // 1-based run being formed (hierarchical formation events)
	Batches int `json:"batches,omitempty"` // runs formed (hierarchical merge events)

	// FormedRecords reports run formation: records
	// emitted into spilled runs so far (formation events have Pass == 0 and
	// Batch set to the current run's 1-based index).
	FormedRecords int64 `json:"formed_records,omitempty"`

	MergedRecords int64 `json:"merged_records,omitempty"` // records emitted by the merge so far (merge events)
	TotalRecords  int64 `json:"total_records,omitempty"`  // total records the merge (or formation) will emit
}

// Hooks customizes a run. The zero value disables every hook.
type Hooks struct {
	// Progress, when non-nil, receives pass/round completion events. It is
	// called synchronously from the run's internal goroutines (rank 0's
	// pass loop and its pipeline sink) and must be fast and non-blocking;
	// calls are sequential, never concurrent.
	Progress func(Progress)
}

// passFunc executes one pass on one processor. tagBase is the start of the
// tag window reserved for this pass on the shared cluster fabric; pool is
// the processor's persistent buffer pool, shared by all passes of the run
// so that the steady state of the whole sort recycles rather than
// allocates. onRound, when non-nil, is invoked by the pass's pipeline sink
// after each round's writes are issued (rank 0 only — progress reporting).
type passFunc func(pr *cluster.Proc, in, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error

// passTagWindow returns the width of the tag space one pass may use, so
// that consecutive passes sharing one cluster fabric can never collide.
// The widest user is the group boundary pass: at most s+1 round windows of
// groupTagStride plus 4·s cross-round boundary tags (2·s at g = 1).
func passTagWindow(pl Plan) int {
	return (pl.S+3)*groupTagStride + 8*pl.S + 16
}

// Run executes the planned algorithm on the machine, consuming columns of
// input and returning a Result whose Output store holds the sorted data.
// The input store is left intact (the paper likewise preserves inputs to
// verify outputs); intermediate stores are closed as they are consumed.
//
// Cancelling ctx aborts the shared cluster fabric: every processor blocked
// in communication, a barrier, or a pipeline stage unblocks and unwinds,
// the per-pass stores (with their async disk workers and any backing
// scratch files) are closed and removed, and Run returns an error
// satisfying errors.Is(err, ctx.Err()) once the last goroutine has exited —
// cancellation never leaks goroutines, disk workers or scratch files.
func Run(ctx context.Context, pl Plan, m pdm.Machine, input *pdm.Store, hooks Hooks) (*Result, error) {
	if err := checkRunInput(pl, m, input); err != nil {
		return nil, err
	}
	return runPassList(ctx, pl, m, input, hooks, passList(pl))
}

// runPassList is Run on an explicit pass sequence (tests substitute one).
func runPassList(ctx context.Context, pl Plan, m pdm.Machine, input *pdm.Store, hooks Hooks, passes []passFunc) (*Result, error) {
	// One buffer pool per processor, persisting across passes (and across
	// runs, when the machine carries them): buffers allocated in pass 1
	// serve every later pass's — and every later sort's — pipeline rounds.
	pools := m.Pools
	if pools == nil {
		pools = record.NewPools(pl.P)
	}
	job := newPassJob(pl, input, hooks, len(passes))
	err := cluster.RunCtxFabric(ctx, pl.P, fabricOf(m), func(pr *cluster.Proc) error {
		return runPasses(ctx, pr, pl, m, passes, pools, job)
	})
	if err != nil {
		return nil, job.fail(pl, err)
	}
	return &Result{Plan: pl, PassCounters: job.cnts, Output: job.stores[len(passes)]}, nil
}

// fabricOf maps the machine's interconnect choice to a cluster fabric.
func fabricOf(m pdm.Machine) cluster.Fabric {
	if m.CopyFabric {
		return cluster.Copying
	}
	return cluster.ZeroCopy
}

// checkRunInput validates the input store and machine against the plan.
func checkRunInput(pl Plan, m pdm.Machine, input *pdm.Store) error {
	if input.R != pl.R || input.S != pl.S || input.RecSize != pl.Z ||
		input.P != pl.P || input.G != pl.Group {
		return fmt.Errorf("core: input store %d×%d z=%d P=%d %v does not match plan %s",
			input.R, input.S, input.RecSize, input.P, input.Layout, pl)
	}
	if m.P != pl.P || m.D != pl.D {
		return fmt.Errorf("core: machine P=%d D=%d does not match plan P=%d D=%d", m.P, m.D, pl.P, pl.D)
	}
	return nil
}

// passJob is what the ranks of one Run share: the store chain (stores[0] is
// the input), the per-pass counters, the hooks and the first failed pass.
type passJob struct {
	hooks      Hooks
	stores     []*pdm.Store
	cnts       [][]sim.Counters
	storeErr   error
	failedPass atomic.Int64
}

func newPassJob(pl Plan, input *pdm.Store, hooks Hooks, nPasses int) *passJob {
	j := &passJob{hooks: hooks}
	j.stores = make([]*pdm.Store, nPasses+1)
	j.stores[0] = input
	j.cnts = make([][]sim.Counters, nPasses)
	for k := range j.cnts {
		j.cnts[k] = make([]sim.Counters, pl.P)
	}
	j.failedPass.Store(-1)
	return j
}

// fail releases the job's stores (idempotently; the input is never touched)
// and attributes the error to the pass that raised it. Call only after every
// fabric goroutine has exited.
func (j *passJob) fail(pl Plan, err error) error {
	for _, st := range j.stores[1:] {
		if st != nil {
			st.Close() // Close is idempotent; nil = pass never reached
		}
	}
	k := j.failedPass.Load()
	if k < 0 {
		k = 0
	}
	return fmt.Errorf("core: pass %d of %v: %w", k+1, pl.Alg, err)
}

// runPasses executes the planned pass sequence for one rank. All passes
// share the ONE cluster fabric the caller runs on (goroutine processors
// live for the whole run, as the paper's MPI processes do), separated by
// barriers and disjoint tag windows. Rank 0 creates each pass's output
// store just before the pass (the pre-pass barrier publishes it) and
// releases each consumed intermediate as soon as the post-pass barrier
// confirms the pass is globally complete, so at most three stores are ever
// open — file-backed machines would otherwise hold every pass's disk files
// at once.
func runPasses(ctx context.Context, pr *cluster.Proc, pl Plan, m pdm.Machine, passes []passFunc, pools []*record.Pool, job *passJob) error {
	rounds, window := pl.Rounds(), passTagWindow(pl)
	for k, pass := range passes {
		// A cancellation between passes is caught here even when the
		// pass itself performs no communication (the baselines).
		if err := ctx.Err(); err != nil {
			job.failedPass.CompareAndSwap(-1, int64(k))
			return err
		}
		if pr.Rank() == 0 {
			job.stores[k+1], job.storeErr = pl.NewStore(m)
		}
		if err := pr.Barrier(); err != nil { // publishes stores[k+1]
			return err
		}
		if job.storeErr != nil {
			job.failedPass.CompareAndSwap(-1, int64(k))
			return job.storeErr
		}
		var onRound func()
		if job.hooks.Progress != nil && pr.Rank() == 0 {
			job.hooks.Progress(Progress{Pass: k + 1, Passes: len(passes), Round: 0, Rounds: rounds})
			done := 0
			hooks := job.hooks
			kk := k
			onRound = func() {
				done++
				hooks.Progress(Progress{Pass: kk + 1, Passes: len(passes), Round: done, Rounds: rounds})
			}
		}
		if err := pass(pr, job.stores[k], job.stores[k+1], k*window, pools[pr.Rank()], &job.cnts[k][pr.Rank()], onRound); err != nil {
			job.failedPass.CompareAndSwap(-1, int64(k))
			return err
		}
		if err := pr.Barrier(); err != nil {
			return err
		}
		if pr.Rank() == 0 && k > 0 {
			job.stores[k].Close() // consumed intermediate; never the input
		}
	}
	return nil
}

// passList builds the pass sequence realizing the planned algorithm: the
// pure-I/O baselines, or the group program on the algorithm's pass specs.
func passList(pl Plan) []passFunc {
	switch pl.Alg {
	case BaselineIO3, BaselineIO4:
		passes := make([]passFunc, pl.Alg.Passes())
		for k := range passes {
			passes[k] = func(pr *cluster.Proc, in, out *pdm.Store, _ int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
				return runBaselinePass(pr, pl, in, out, pool, cnt, onRound)
			}
		}
		return passes
	}
	return groupPasses(pl, groupSpecs(pl))
}

// runBaselinePass reads every owned column and writes it back out — the
// pure-I/O program whose 3- and 4-pass times form the floor lines of
// Figure 2. It works on every layout: a processor touches one column of its
// group per round.
func runBaselinePass(pr *cluster.Proc, pl Plan, in, out *pdm.Store, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	p := pr.Rank()
	ng := pl.P / pl.Group
	var cRead, cWrite sim.Counters

	type round struct {
		col int // column touched this round
		buf record.Slice
		row int
	}

	read := func(rd round) (round, error) {
		if next := rd.col + ng; next < pl.S {
			nlo, nhi := in.OwnedRows(p, next)
			in.PrefetchRows(p, next, nlo, nhi-nlo)
		}
		lo, hi := in.OwnedRows(p, rd.col)
		rd.buf = pool.Get(hi-lo, pl.Z)
		if err := in.ReadRows(&cRead, p, rd.col, lo, rd.buf); err != nil {
			return rd, err
		}
		rd.row = lo
		cRead.Rounds++
		return rd, nil
	}
	write := func(rd round) error {
		if err := out.WriteRows(&cWrite, p, rd.col, rd.row, rd.buf); err != nil {
			return err
		}
		pool.Put(rd.buf)
		if onRound != nil {
			onRound()
		}
		return nil
	}
	src := func(emit func(round) error) error {
		for t := 0; t < pl.Rounds(); t++ {
			if err := emit(round{col: t*ng + p/pl.Group}); err != nil {
				return err
			}
		}
		return nil
	}

	err := pipeline.Run(context.Background(), pipeDepth, src, write, read)
	if err == nil {
		err = out.Flush(p) // a deferred write failure fails the pass
	}
	cnt.Add(cRead)
	cnt.Add(cWrite)
	if err != nil {
		return fmt.Errorf("core: baseline pass: %w", err)
	}
	return nil
}
