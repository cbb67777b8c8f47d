package colsort

// The engine: sort-as-a-service. An Engine is the long-lived object that
// owns the simulated machine — the pdm backends, the per-processor
// record.Pool arenas, the spill-disk scratch directory — and hands out
// per-job leases so N concurrent Engine.Sort calls share warm buffers
// instead of each fragmenting its own. Admission is controlled by memory
// budget: each job asks for the bytes of the records it holds at a time (or
// its WithMaxMemory cap, when given), the asks are debited against
// EngineConfig.TotalMemory, and jobs that do not fit queue FIFO with
// ctx-aware waiting (or fail fast under WithNoWait). Fault counters,
// progress callbacks and cancellation stay job-scoped; the engine
// accumulates per-job results into an engine-wide Stats snapshot. See
// DESIGN.md §10 for the lifecycle and attribution contracts.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
)

// ErrBusy is returned by Engine.Sort under WithNoWait when the job cannot
// be admitted immediately — the engine's memory budget is exhausted or
// earlier jobs are already queued. Detect with errors.Is; the job was not
// started and may simply be retried later.
var ErrBusy = errors.New("colsort: engine at capacity")

// ErrEngineClosed is returned by Engine.Sort on a closed engine, and
// delivered to any job still queued when Close is called.
var ErrEngineClosed = errors.New("colsort: engine closed")

// EngineConfig configures an Engine: the simulated cluster (Config, the
// same construction-time description New takes) plus the engine-wide
// admission budget.
type EngineConfig struct {
	Config
	// TotalMemory is the engine-wide memory budget, in bytes, that
	// concurrent jobs' asks are debited against. A job's ask is its
	// WithMaxMemory cap when given, otherwise the record bytes of what it
	// holds in memory at a time (SortPlan.RunRecords · RecordSize: the
	// single run it executes, or above the bound the former's resident set
	// — the dominant term of a job's footprint). 0 disables admission
	// control: every job is admitted immediately.
	TotalMemory int64
}

// Engine is a long-lived sorting service: one simulated machine (backends,
// buffer-pool arena, scratch directory) serving any number of concurrent
// Sort jobs under admission control. Create one with NewEngine, share it
// freely — all methods are safe for concurrent use — and Close it when
// done serving.
//
// Each Sort call becomes a job: it leases its memory ask from the engine,
// runs on a value-copy of the machine that shares the engine's pools and
// backend but carries the job's own fault injector, fault counters and
// scratch namespace (pdm.JobScratchPrefix), and releases the lease when it
// returns. Jobs never share mutable state beyond the concurrency-safe
// pools, so their results are byte-identical to solo runs.
type Engine struct {
	cfg   Config
	total int64
	m     pdm.Machine
	// pool recycles the scratch files of the engine's jobs under Config.Dir
	// (nil without one); Close removes what it holds.
	pool *pdm.FilePool

	// jobSeq numbers jobs for scratch namespacing and Result.JobID.
	jobSeq atomic.Int64

	mu      sync.Mutex
	drained *sync.Cond // signaled when active returns to 0 (Close waits on it)
	closed  bool
	leased  int64 // bytes currently leased to admitted jobs
	peak    int64 // high-water mark of leased
	active  int
	queue   []*waiter

	// cum is the ledger of finished jobs: its cumulative fields (job
	// counts, Counters, Faults, the run-formation and resume tallies) are
	// what Stats reports; its live fields stay zero.
	cum EngineStats
}

// waiter is one queued admission request. granted and err are written
// under Engine.mu strictly before ready is closed, so the admitted job
// (or the canceller racing it) reads them consistently.
type waiter struct {
	ready   chan struct{}
	ask     int64
	granted bool
	err     error
}

// lease is one admitted job's hold on the engine's memory budget.
type lease struct {
	e   *Engine
	ask int64
}

// NewEngine validates the configuration, builds the shared machine
// (probing a disk-array construction to surface configuration errors
// eagerly) and returns an Engine ready to serve jobs.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.TotalMemory < 0 {
		return nil, fmt.Errorf("colsort: negative TotalMemory %d", cfg.TotalMemory)
	}
	c := cfg.Config
	if c.Disks == 0 {
		c.Disks = c.Procs
	}
	if err := record.CheckSize(c.RecordSize); err != nil {
		return nil, err
	}
	m := pdm.Machine{P: c.Procs, D: c.Disks, StripeBytes: c.StripeBytes,
		Pools: record.NewPools(c.Procs)}
	if c.Dir != "" {
		m.Backend = pdm.FileBackend{Dir: c.Dir}
	}
	if c.Async {
		m.Async = &pdm.AsyncConfig{}
	}
	if c.DiskSeekMicros > 0 || c.DiskMBps > 0 {
		m.Delay = &pdm.DelayConfig{
			Seek:        time.Duration(c.DiskSeekMicros) * time.Microsecond,
			BytesPerSec: int64(c.DiskMBps) << 20,
		}
	}
	probe, err := m.NewArrays()
	if err != nil {
		return nil, err
	}
	for _, a := range probe { // validation only: release files and workers
		a.Close()
	}
	e := &Engine{cfg: c, total: cfg.TotalMemory, m: m}
	if c.Dir != "" { // after the probe, which removed its files: a new engine's Dir holds none
		e.pool = pdm.NewFilePool(c.Dir)
		e.m.Backend = pdm.FileBackend{Dir: c.Dir, Pool: e.pool}
	}
	e.drained = sync.NewCond(&e.mu)
	return e, nil
}

// Close marks the engine closed, fails every queued job with
// ErrEngineClosed, blocks until the active jobs drain, and removes the
// scratch files the engine kept for reuse. Idempotent; always returns nil
// (the jobs own their errors).
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		for _, w := range e.queue {
			w.err = ErrEngineClosed
			close(w.ready)
		}
		e.queue = nil
	}
	for e.active > 0 {
		e.drained.Wait()
	}
	if e.pool != nil {
		e.pool.Close()
	}
	return nil
}

// admit leases ask bytes from the engine's budget, queueing FIFO behind
// earlier waiters when the budget (or the queue's head-of-line position)
// does not admit the job immediately. Queueing is strict FIFO — only the
// head of the queue is ever granted — so a large ask cannot be starved by
// a stream of small ones. Cancelling ctx while queued returns promptly
// with ctx.Err().
func (e *Engine) admit(ctx context.Context, ask int64, noWait bool) (*lease, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	if e.total > 0 && ask > e.total {
		e.mu.Unlock()
		return nil, fmt.Errorf("colsort: job asks %d bytes but the engine's TotalMemory is %d: the ask can never be admitted (raise TotalMemory or lower the job's WithMaxMemory)", ask, e.total)
	}
	if len(e.queue) == 0 && e.fits(ask) {
		e.grant(ask)
		e.mu.Unlock()
		return &lease{e: e, ask: ask}, nil
	}
	if noWait {
		leased, queued := e.leased, len(e.queue)
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %d bytes asked, %d of %d leased, %d jobs queued", ErrBusy, ask, leased, e.total, queued)
	}
	w := &waiter{ready: make(chan struct{}), ask: ask}
	e.queue = append(e.queue, w)
	e.mu.Unlock()
	select {
	case <-w.ready:
		if w.err != nil {
			return nil, w.err
		}
		return &lease{e: e, ask: ask}, nil
	case <-ctx.Done():
		e.mu.Lock()
		if w.granted {
			// The grant raced the cancellation: the lease exists, so give
			// it back (waking whoever is next) before reporting the cancel.
			e.mu.Unlock()
			(&lease{e: e, ask: ask}).release()
			return nil, ctx.Err()
		}
		for i, q := range e.queue {
			if q == w {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				break
			}
		}
		e.mu.Unlock()
		return nil, ctx.Err()
	}
}

// fits reports whether ask bytes fit the remaining budget. Caller holds mu.
func (e *Engine) fits(ask int64) bool {
	return e.total <= 0 || e.leased+ask <= e.total
}

// grant debits ask from the budget and counts the job active. Caller
// holds mu.
func (e *Engine) grant(ask int64) {
	e.leased += ask
	if e.leased > e.peak {
		e.peak = e.leased
	}
	e.active++
}

// wake admits queued jobs head-first while they fit. Caller holds mu.
func (e *Engine) wake() {
	for len(e.queue) > 0 && e.fits(e.queue[0].ask) {
		w := e.queue[0]
		e.queue = e.queue[1:]
		w.granted = true
		e.grant(w.ask)
		close(w.ready)
	}
}

// release returns the lease to the budget, wakes admissible waiters, and
// signals Close when the engine has drained.
func (l *lease) release() {
	e := l.e
	e.mu.Lock()
	e.leased -= l.ask
	e.active--
	e.wake()
	if e.active == 0 {
		e.drained.Broadcast()
	}
	e.mu.Unlock()
}

// job is one admitted Sort: the engine pointer, the job's id (which names
// its scratch namespace), the per-job machine view, and the job's own
// fault counters — isolation that keeps Result.Faults attributable under
// concurrency, where a shared counter's delta would interleave jobs.
type job struct {
	e      *Engine
	id     int64
	m      pdm.Machine
	faults pdm.FaultStats
}

// newJob builds the per-job machine: a value copy of the engine's machine
// — sharing the concurrency-safe buffer pools and the backend — with the
// fault injector its context carries (pdm.WithInjector; only tests set
// one) and scratch namespaced by the job id so concurrent jobs can never
// collide in a shared scratch directory.
func (e *Engine) newJob(ctx context.Context, o sortOptions) *job {
	j := &job{e: e, id: e.jobSeq.Add(1)}
	m := e.m
	m.Inject = pdm.InjectorFrom(ctx)
	if m.Delay != nil {
		// The job's D modeled disks, as its spilled runs see them: every run
		// is striped over the same D heads, so formation and merge together
		// never move spill bytes faster than D disks would.
		m.Heads = pdm.NewHeads(m.D)
	}
	j.m = m.Namespaced(pdm.JobScratchPrefix(j.id))
	if o.checkpoint != "" {
		// Checkpointed jobs spill their hierarchical runs into the manifest
		// directory as keep-on-close files — the durable state a later Sort
		// under the same directory reopens — drawn from the engine's pool
		// and retired to it once a durable entry consumed them. Array disks
		// (ingest stores, pipeline scratch) stay on the ordinary scratch
		// backend: they are recomputed, never resumed.
		j.m.SpillBackend = pdm.FileBackend{Dir: o.checkpoint, Prefix: ckptRunPrefix, Keep: true, Pool: e.pool}
	}
	return j
}

// runJob is the lifecycle every admitted job shares: wait for ask bytes of
// the engine's budget (the job's WithMaxMemory cap when it declared one),
// run on a fresh per-job machine, stamp the result with the job's identity
// and fault counters, and fold the outcome — success or failure — into the
// engine's cumulative stats.
func (e *Engine) runJob(ctx context.Context, o sortOptions, ask int64, run func(*job) (*Result, error)) (*Result, error) {
	if o.maxMemory > 0 {
		ask = o.maxMemory
	}
	l, err := e.admit(ctx, ask, o.noWait)
	if err != nil {
		return nil, err
	}
	defer l.release()

	j := e.newJob(ctx, o)
	res, err := run(j)
	faults := j.faults.Snapshot()
	if res != nil {
		res.Faults = faults
		res.JobID = j.id
	}
	e.finishJob(res, faults, err)
	return res, err
}

// finishJob folds one finished job into the engine's cumulative stats.
func (e *Engine) finishJob(res *Result, faults FaultStats, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := &e.cum
	if err != nil {
		c.FailedJobs++
	} else {
		c.CompletedJobs++
	}
	if res != nil && res.Result != nil {
		c.Counters.Add(res.Result.TotalCounters())
	}
	if res != nil && res.Merge != nil {
		c.RunsFormed += int64(res.Merge.Runs)
		c.DownRunsFormed += int64(res.Merge.DownRuns)
		c.RunRecordsFormed += res.RealRecords()
		c.MergeLevelsRun += int64(res.Merge.Levels)
		if res.Merge.ResumedRuns > 0 {
			c.JobsResumed++
			c.RunsResumed += int64(res.Merge.ResumedRuns)
		}
	}
	c.Faults.Add(faults)
}

// EngineStats is a point-in-time snapshot of an Engine; see Engine.Stats.
// The JSON tags are the wire representation the colsort-server exposes
// (and the source of its /metrics gauges); TestWireEncodingGolden pins
// them.
type EngineStats struct {
	// ActiveJobs and QueuedJobs count the jobs currently running and
	// currently waiting for admission.
	ActiveJobs int `json:"active_jobs"`
	QueuedJobs int `json:"queued_jobs"`
	// CompletedJobs and FailedJobs count the jobs that have finished over
	// the engine's lifetime (a cancelled job counts as failed).
	CompletedJobs int64 `json:"completed_jobs"`
	FailedJobs    int64 `json:"failed_jobs"`
	// LeasedBytes is the sum of the active jobs' asks; PeakLeasedBytes its
	// lifetime high-water mark — always ≤ TotalMemory when a budget is set,
	// which is the admission-control invariant tests pin.
	LeasedBytes     int64 `json:"leased_bytes"`
	PeakLeasedBytes int64 `json:"peak_leased_bytes"`
	TotalMemory     int64 `json:"total_memory"`
	// PoolFreeBuffers / PoolFreeBytes report the warm buffer arena: idle
	// buffers (and their total capacity) currently held by the engine's
	// per-processor pools, ready for the next job.
	PoolFreeBuffers int   `json:"pool_free_buffers"`
	PoolFreeBytes   int64 `json:"pool_free_bytes"`
	// Counters is the cumulative engine-pass accounting of every completed
	// job (the sum of their Result.TotalCounters); Faults the cumulative
	// fault-tolerance activity of every job, failed jobs included.
	Counters sim.Counters `json:"counters"`
	Faults   FaultStats   `json:"faults"`
	// Hierarchical run-formation accounting of every completed job that
	// took the runs-plus-merge path: runs spilled (descending runs
	// separately), records they held, and merge levels executed. The
	// run/record split exposes the average run length — ~2× the run budget
	// on random input, far more on nearly-sorted input.
	RunsFormed       int64 `json:"runs_formed,omitempty"`
	DownRunsFormed   int64 `json:"down_runs_formed,omitempty"`
	RunRecordsFormed int64 `json:"run_records_formed,omitempty"`
	MergeLevelsRun   int64 `json:"merge_levels_run,omitempty"`
	// JobsResumed counts jobs that completed by adopting runs from a
	// persisted manifest; RunsResumed the verified runs those jobs adopted
	// without re-sorting a single batch.
	JobsResumed int64 `json:"jobs_resumed,omitempty"`
	RunsResumed int64 `json:"runs_resumed,omitempty"`
}

// Config returns the engine's construction-time configuration (with the
// defaults New/NewEngine resolved — Disks filled in when it was 0). It is
// a copy: mutating it cannot affect the engine. Front ends use it to learn
// the record size and machine shape they serve without carrying a second
// copy of the Config.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a consistent snapshot of the engine's admission state and
// cumulative accounting, plus the current buffer-pool occupancy.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	st := e.cum
	st.ActiveJobs, st.QueuedJobs = e.active, len(e.queue)
	st.LeasedBytes, st.PeakLeasedBytes, st.TotalMemory = e.leased, e.peak, e.total
	e.mu.Unlock()
	for _, p := range e.m.Pools {
		st.PoolFreeBuffers += p.FreeBuffers()
		st.PoolFreeBytes += p.FreeBytes()
	}
	return st
}
