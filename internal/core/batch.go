package core

import (
	"context"
	"fmt"
	"sync"

	"colsort/internal/cluster"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
)

// BatchRunner executes the same plan repeatedly on ONE persistent cluster
// fabric: the P processor goroutines are spawned once and park at a barrier
// between batches, and the per-processor buffer pools (and, through them,
// every pass's pipeline scratch) stay warm across batches, so B batches of
// one plan pay fabric setup/teardown and cold pools once instead of B times.
//
// Consecutive batches alternate between two disjoint tag-window banks
// (parity), so a message of batch b can never be mistaken for one of batch
// b+1 even in the presence of latent sends — the same defense the passes of
// a single run use against each other.
//
// Run calls must not overlap (the fabric executes one batch at a time), and
// the first failed batch poisons the runner: the fabric unwinds exactly as
// core.Run's would, and every later Run returns the fabric's error. Close
// shuts the fabric down and waits for every goroutine to exit; it is safe
// after failure and after context cancellation.
type BatchRunner struct {
	pl     Plan
	m      pdm.Machine
	passes []passFunc
	pools  []*record.Pool
	window int

	jobs       chan *batchJob
	cur        *batchJob // in-flight job; rank 0 writes, owner reads post-fabric
	parity     int
	closeMu    sync.Mutex
	closed     bool
	fabricDone chan struct{}
	fabricErr  error
}

type batchJob struct {
	job *passJob
	res chan batchResult // buffered(1): publishing never blocks the fabric
}

type batchResult struct {
	out  *pdm.Store
	cnts [][]sim.Counters
	err  error
}

// NewBatchRunner validates the plan against the machine, builds the pass
// sequence once, and starts the persistent fabric under ctx. Cancelling ctx
// aborts the in-flight batch (if any) and shuts the fabric down, with the
// same no-leak guarantees as core.Run.
//
// No product code calls this any more: it was the engine of the batch-wise
// run formation mode PR 13 removed. It stays, with its tests, because the
// benchmark (bench/replay.go) measures core.batch_mb_s through it and that
// PR could not touch bench/; the benchmark PR that retires the metric
// deletes this file with it.
func NewBatchRunner(ctx context.Context, pl Plan, m pdm.Machine) (*BatchRunner, error) {
	if m.P != pl.P || m.D != pl.D {
		return nil, fmt.Errorf("core: machine P=%d D=%d does not match plan P=%d D=%d", m.P, m.D, pl.P, pl.D)
	}
	pools := m.Pools
	if pools == nil {
		pools = record.NewPools(pl.P)
	}
	br := &BatchRunner{
		pl: pl, m: m, passes: passList(pl), pools: pools, window: passTagWindow(pl),
		jobs:       make(chan *batchJob),
		fabricDone: make(chan struct{}),
	}
	go br.fabric(ctx)
	return br, nil
}

// fabric hosts the persistent cluster: rank 0 pulls the next job and
// publishes it through the pre-batch barrier; a nil job (closed queue or
// dead context) dissolves the fabric.
func (br *BatchRunner) fabric(ctx context.Context) {
	defer close(br.fabricDone)
	err := cluster.RunCtxFabric(ctx, br.pl.P, fabricOf(br.m), func(pr *cluster.Proc) error {
		for {
			if pr.Rank() == 0 {
				br.cur = nil
				select {
				case j, ok := <-br.jobs:
					if ok {
						br.cur = j
					}
				case <-ctx.Done():
				}
			}
			if err := pr.Barrier(); err != nil { // publishes br.cur
				return err
			}
			j := br.cur
			if j == nil {
				return ctx.Err() // nil on a clean Close
			}
			if err := runPasses(ctx, pr, br.pl, br.m, br.passes, br.pools, br.window, j.job); err != nil {
				return err
			}
			// runPasses ends with a global barrier, so when rank 0 gets
			// here the batch is complete on every rank.
			if pr.Rank() == 0 {
				j.res <- batchResult{out: j.job.stores[len(br.passes)], cnts: j.job.cnts}
				br.cur = nil
			}
		}
	})
	br.fabricErr = err
	// A batch was in flight when the fabric died: release its stores and
	// hand the attributed error to the waiting Run call.
	if j := br.cur; j != nil {
		if err == nil {
			err = cluster.ErrAborted
		}
		j.res <- batchResult{err: j.job.fail(br.pl, err)}
		br.cur = nil
	}
}

// Run executes one batch: input must match the runner's plan exactly (the
// last, partial batch of a hierarchical sort is padded by the caller to the
// same shape). The semantics — store lifecycle, counters, hooks, error
// attribution — are identical to core.Run on a fresh fabric.
func (br *BatchRunner) Run(input *pdm.Store, hooks Hooks) (*Result, error) {
	if err := checkRunInput(br.pl, br.m, input); err != nil {
		return nil, err
	}
	br.closeMu.Lock()
	closed := br.closed
	br.closeMu.Unlock()
	if closed {
		// The jobs channel is closed: sending would panic, and the select
		// below could pick either ready case. Report the shutdown instead.
		<-br.fabricDone
		return nil, br.deadErr()
	}
	j := &batchJob{
		job: newPassJob(br.pl, input, hooks, len(br.passes), br.parity*len(br.passes)*br.window),
		res: make(chan batchResult, 1),
	}
	br.parity ^= 1
	select {
	case br.jobs <- j:
	case <-br.fabricDone:
		return nil, br.deadErr()
	}
	var r batchResult
	select {
	case r = <-j.res:
	case <-br.fabricDone:
		// The fabric died while we waited; its cleanup path may still have
		// published an attributed result for this job.
		select {
		case r = <-j.res:
		default:
			return nil, br.deadErr()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return &Result{Plan: br.pl, PassCounters: r.cnts, Output: r.out}, nil
}

func (br *BatchRunner) deadErr() error {
	if br.fabricErr != nil {
		return fmt.Errorf("core: batch fabric: %w", br.fabricErr)
	}
	return fmt.Errorf("core: batch runner is closed")
}

// Close dissolves the fabric and waits for every processor goroutine to
// exit. It is idempotent and safe after a failed batch; the returned error
// is the fabric's terminal error, nil after a clean shutdown.
func (br *BatchRunner) Close() error {
	br.closeMu.Lock()
	if !br.closed {
		br.closed = true
		close(br.jobs)
	}
	br.closeMu.Unlock()
	<-br.fabricDone
	return br.fabricErr
}
