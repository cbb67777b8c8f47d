package colsort

// Tests of the engine: concurrent jobs sharing one machine, admission
// control against TotalMemory, per-job fault/scratch isolation, and the
// Config-vs-Option precedence rule.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"colsort/internal/faultinject"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// TestConcurrentEngineStress is the tentpole acceptance test: N concurrent
// file-backed sorts, each 3× the single-run bound (so every job takes the
// hierarchical path and spills runs into the SHARED scratch directory),
// each with a distinct KeySpec, each byte-identical to its solo reference,
// with per-job scratch asserted clean the moment each job finishes and the
// engine's peak lease bounded by TotalMemory.
func TestConcurrentEngineStress(t *testing.T) {
	const jobs, p, mem, z = 4, 2, 256, 32
	dir := t.TempDir()
	scratch := filepath.Join(dir, "scratch")
	testutil.CheckLeaks(t, scratch)

	base := Config{Procs: p, MemPerProc: mem, RecordSize: z, Async: true}
	probe, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	bound := probe.MaxRecords(Threaded)
	n := 3 * bound
	ask := bound * z // the default hierarchical ask: one run's record bytes

	cfg := base
	cfg.Dir = scratch
	e, err := NewEngine(EngineConfig{Config: cfg, TotalMemory: 2 * ask})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	keys := []KeySpec{
		{},
		{Offset: 8, Width: 8, Order: Descending},
		{Offset: 16, Width: 4},
		{Offset: 4, Width: 12},
	}

	// One input file and one solo-reference output per job, produced on a
	// private single-job engine with its own scratch.
	inputs := make([]string, jobs)
	refs := make([][]byte, jobs)
	for i := 0; i < jobs; i++ {
		raw := record.Make(int(n), z)
		record.Fill(raw, record.Uniform{Seed: uint64(100 + i)}, 0)
		inputs[i] = filepath.Join(dir, fmt.Sprintf("in%d.dat", i))
		if err := os.WriteFile(inputs[i], raw.Data, 0o644); err != nil {
			t.Fatal(err)
		}
		soloCfg := base
		soloCfg.Dir = filepath.Join(dir, fmt.Sprintf("solo%d", i))
		solo, err := New(soloCfg)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, fmt.Sprintf("ref%d.dat", i))
		res, err := solo.Sort(context.Background(), FromFile(inputs[i]), ToFile(out),
			WithKeySpec(keys[i]))
		if err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		res.Close()
		if refs[i], err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	outs := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		i := i
		outs[i] = filepath.Join(dir, fmt.Sprintf("out%d.dat", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Sort(context.Background(), FromFile(inputs[i]), ToFile(outs[i]),
				WithKeySpec(keys[i]))
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			if res.Merge == nil {
				t.Errorf("job %d did not take the hierarchical path", i)
			}
			if res.Faults.Any() {
				t.Errorf("job %d reports faults on healthy storage: %+v", i, res.Faults)
			}
			res.Close()
			// Cross-job leftover check at the sharpest moment: this job just
			// finished, the others may still be spilling into the same dir.
			testutil.CheckNoStray(t, scratch, pdm.JobScratchPrefix(res.JobID))
		}()
	}
	wg.Wait()

	for i := 0; i < jobs; i++ {
		got, err := os.ReadFile(outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, refs[i]) {
			t.Errorf("job %d output differs from its solo reference", i)
		}
	}

	st := e.Stats()
	if st.CompletedJobs != jobs {
		t.Errorf("CompletedJobs = %d, want %d", st.CompletedJobs, jobs)
	}
	if st.FailedJobs != 0 {
		t.Errorf("FailedJobs = %d, want 0", st.FailedJobs)
	}
	if st.ActiveJobs != 0 || st.QueuedJobs != 0 || st.LeasedBytes != 0 {
		t.Errorf("engine not drained: %+v", st)
	}
	if st.PeakLeasedBytes > st.TotalMemory {
		t.Errorf("peak lease %d exceeds TotalMemory %d", st.PeakLeasedBytes, st.TotalMemory)
	}
	if st.PeakLeasedBytes < ask {
		t.Errorf("peak lease %d below a single ask %d", st.PeakLeasedBytes, ask)
	}
	if st.Counters.CompareUnits == 0 || st.Counters.DiskReadBytes == 0 {
		t.Error("cumulative counters are empty after 4 jobs")
	}
}

// gateSource is a Source whose reader blocks on a gate channel before
// producing each record — it lets a test hold a job mid-ingest (lease
// held, budget occupied) and release it on demand.
type gateSource struct {
	n       int64
	started chan struct{} // closed on the first ReadRecord
	gate    chan struct{} // close to let records flow
}

func newGateSource(n int64) *gateSource {
	return &gateSource{n: n, started: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gateSource) Open(recSize int) (int64, RecordReader, error) {
	return g.n, &gateReader{src: g}, nil
}

type gateReader struct {
	src  *gateSource
	once sync.Once
	idx  int64
	gen  record.Uniform
}

func (r *gateReader) ReadRecord(rec []byte) error {
	r.once.Do(func() { close(r.src.started) })
	<-r.src.gate
	r.gen.Gen(rec, r.idx)
	r.idx++
	return nil
}

func (r *gateReader) Close() error { return nil }

// admissionEngine builds a memory-backed engine whose TotalMemory admits
// exactly one default-ask job of n records.
func admissionEngine(t *testing.T, n int64) (*Engine, int64) {
	t.Helper()
	const p, mem, z = 2, 256, 16
	ask := n * z
	e, err := NewEngine(EngineConfig{
		Config:      Config{Procs: p, MemPerProc: mem, RecordSize: z},
		TotalMemory: ask,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, ask
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineAdmissionQueuesThenRuns pins the FIFO admission contract: a
// job over the remaining budget queues while the budget is held and runs
// to completion once it frees.
// TestConcurrentScatterShapesShareFreeLists runs a Subblock job and an
// M-columnsort job at once on one engine, again and again. Their scatter
// passes draw table sets and sort scratch from the same process-wide free
// lists, each job building into sets the other's shape left, so each output
// must still be byte-identical to the job's serial run.
func TestConcurrentScatterShapesShareFreeLists(t *testing.T) {
	const p, r, z, rounds = 4, 512, 16, 6
	e, err := NewEngine(EngineConfig{Config: Config{Procs: p, MemPerProc: r, RecordSize: z}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	algs := []Algorithm{Subblock, MColumn}
	inputs := make([][]byte, len(algs))
	serial := make([][]byte, len(algs))
	sortInto := func(i int, out *bytes.Buffer) error {
		res, err := e.Sort(context.Background(), FromBytes(inputs[i]), ToWriter(out), WithAlgorithm(algs[i]))
		if err != nil {
			return fmt.Errorf("%v: %w", algs[i], err)
		}
		res.Close()
		return nil
	}
	for i := range algs {
		inputs[i] = genRaw(16*r, z, record.Uniform{Seed: uint64(40 + i)})
		var out bytes.Buffer
		if err := sortInto(i, &out); err != nil {
			t.Fatal(err)
		}
		serial[i] = out.Bytes()
	}
	for round := 0; round < rounds; round++ {
		outs := make([]bytes.Buffer, len(algs))
		var wg sync.WaitGroup
		for i := range algs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := sortInto(i, &outs[i]); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for i := range algs {
			if !bytes.Equal(outs[i].Bytes(), serial[i]) {
				t.Fatalf("round %d: %v's output beside %v differs from its serial run", round, algs[i], algs[1-i])
			}
		}
	}
}

func TestEngineAdmissionQueuesThenRuns(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n = 1024
	e, _ := admissionEngine(t, n)
	defer e.Close()

	holder := newGateSource(n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := e.Sort(context.Background(), holder, nil, WithPadding(PadNever))
		if err != nil {
			t.Errorf("holder job: %v", err)
			return
		}
		res.Close()
	}()
	<-holder.started // the holder is admitted and mid-ingest: budget fully leased

	var queuedRes *Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := e.Sort(context.Background(),
			Generate(record.Uniform{Seed: 2}, n), nil, WithPadding(PadNever))
		if err != nil {
			t.Errorf("queued job: %v", err)
			return
		}
		queuedRes = res
	}()
	waitFor(t, "the second job to queue", func() bool { return e.Stats().QueuedJobs == 1 })

	close(holder.gate) // release: the holder finishes, the queued job runs
	wg.Wait()
	if queuedRes == nil {
		t.Fatal("queued job produced no result")
	}
	defer queuedRes.Close()
	if err := queuedRes.Verify(); err != nil {
		t.Errorf("queued job's output failed verification: %v", err)
	}
	if st := e.Stats(); st.CompletedJobs != 2 || st.QueuedJobs != 0 || st.LeasedBytes != 0 {
		t.Errorf("post-drain stats: %+v", st)
	}
}

// TestEngineNoWait pins the fail-fast path: ErrBusy, immediately, with the
// budget held — and no side effects on the queue.
func TestEngineNoWait(t *testing.T) {
	const n = 1024
	e, _ := admissionEngine(t, n)
	defer e.Close()

	holder := newGateSource(n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if res, err := e.Sort(context.Background(), holder, nil, WithPadding(PadNever)); err == nil {
			res.Close()
		}
	}()
	<-holder.started

	_, err := e.Sort(context.Background(), Generate(record.Uniform{Seed: 3}, n), nil,
		WithPadding(PadNever), WithNoWait())
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("WithNoWait under full budget returned %v, want ErrBusy", err)
	}
	if st := e.Stats(); st.QueuedJobs != 0 {
		t.Fatalf("ErrBusy left %d jobs queued", st.QueuedJobs)
	}
	close(holder.gate)
	<-done
}

// TestEngineCancelWhileQueued pins prompt cancellation of a queued job:
// the Sort returns ctx.Err() without waiting for the budget, and the
// waiter is removed from the queue.
func TestEngineCancelWhileQueued(t *testing.T) {
	const n = 1024
	e, _ := admissionEngine(t, n)
	defer e.Close()

	holder := newGateSource(n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if res, err := e.Sort(context.Background(), holder, nil, WithPadding(PadNever)); err == nil {
			res.Close()
		}
	}()
	<-holder.started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.Sort(ctx, Generate(record.Uniform{Seed: 4}, n), nil, WithPadding(PadNever))
		errc <- err
	}()
	waitFor(t, "the job to queue", func() bool { return e.Stats().QueuedJobs == 1 })
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled queued Sort returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled queued Sort did not return promptly")
	}
	if st := e.Stats(); st.QueuedJobs != 0 {
		t.Fatalf("cancelled waiter still queued: %+v", st)
	}
	close(holder.gate)
	<-done
}

// TestEngineRejectsImpossibleAsk: an ask above TotalMemory can never be
// admitted and must fail with a descriptive permanent error, not ErrBusy.
func TestEngineRejectsImpossibleAsk(t *testing.T) {
	const n = 1024
	e, ask := admissionEngine(t, n)
	defer e.Close()
	_, err := e.Sort(context.Background(), Generate(record.Uniform{Seed: 5}, n), Discard(),
		WithMaxMemory(ask+1))
	if err == nil {
		t.Fatal("over-total ask admitted")
	}
	if errors.Is(err, ErrBusy) {
		t.Fatalf("over-total ask returned ErrBusy (a retryable condition): %v", err)
	}
}

// TestEngineClose pins the shutdown contract: queued jobs fail with
// ErrEngineClosed, Close waits for active jobs, and a closed engine
// rejects new jobs.
func TestEngineClose(t *testing.T) {
	const n = 1024
	e, _ := admissionEngine(t, n)

	holder := newGateSource(n)
	holderDone := make(chan error, 1)
	go func() {
		res, err := e.Sort(context.Background(), holder, nil, WithPadding(PadNever))
		if err == nil {
			res.Close()
		}
		holderDone <- err
	}()
	<-holder.started

	queuedErr := make(chan error, 1)
	go func() {
		_, err := e.Sort(context.Background(), Generate(record.Uniform{Seed: 6}, n), nil,
			WithPadding(PadNever))
		queuedErr <- err
	}()
	waitFor(t, "the job to queue", func() bool { return e.Stats().QueuedJobs == 1 })

	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	if err := <-queuedErr; !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("queued job under Close returned %v, want ErrEngineClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still active")
	case <-time.After(50 * time.Millisecond):
	}
	close(holder.gate)
	if err := <-holderDone; err != nil {
		t.Fatalf("active job failed across Close: %v", err)
	}
	<-closed
	if _, err := e.Sort(context.Background(), Generate(record.Uniform{Seed: 7}, n), nil); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Sort on closed engine returned %v, want ErrEngineClosed", err)
	}
}

// hierOpts forces a small hierarchical sort: a run cap that splits n into
// several spilled runs, so the spill/merge fault machinery engages, at a
// fan-in of 4, whose merges' 4 + 4 chunks of 64 records a 512-record cap
// holds.
func hierOpts(cap int64) []Option {
	return []Option{WithMaxMemory(cap), WithMergeFanIn(4)}
}

// TestConfigOptionPrecedence pins that fault injection is job-scoped: a job
// whose context carries an injector sees faults while a concurrent clean job
// on the same engine sees none, and after a chaotic job the next one — a
// context carrying a nil injector, the default spelled out — runs clean.
func TestConfigOptionPrecedence(t *testing.T) {
	const p, mem, z, n = 2, 256, 16, 4096
	cap := int64(512 * z) // run cap: forces the hierarchical path with several runs
	// FlipSpillRead=1 corrupts the first read of the first spill disk; the
	// CRC layer detects it and heals with a reread, so the sort succeeds
	// and the job's fault counters record the event.
	chaos := chaosCtx(faultinject.ChaosConfig{Seed: 11, FlipSpillRead: 1})

	t.Run("option-enables-chaos", func(t *testing.T) {
		e, err := NewEngine(EngineConfig{Config: Config{Procs: p, MemPerProc: mem, RecordSize: z}})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var cleanFaults FaultStats
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // a concurrent clean job: per-job isolation of the counters
			defer wg.Done()
			res, err := e.Sort(context.Background(), Generate(record.Uniform{Seed: 21}, n),
				Discard(), hierOpts(cap)...)
			if err != nil {
				t.Errorf("clean job: %v", err)
				return
			}
			cleanFaults = res.Faults
			res.Close()
		}()
		res, err := e.Sort(chaos, Generate(record.Uniform{Seed: 20}, n),
			Discard(), hierOpts(cap)...)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		if res.Faults.CorruptChunks == 0 {
			t.Errorf("an injector on a clean engine produced no corrupt chunks: %+v", res.Faults)
		}
		wg.Wait()
		if cleanFaults.Any() {
			t.Errorf("concurrent clean job absorbed the chaotic job's faults: %+v", cleanFaults)
		}
	})

	t.Run("option-disables-chaos", func(t *testing.T) {
		e, err := NewEngine(EngineConfig{Config: Config{Procs: p, MemPerProc: mem, RecordSize: z}})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res, err := e.Sort(chaos, Generate(record.Uniform{Seed: 22}, n),
			Discard(), hierOpts(cap)...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults.CorruptChunks == 0 {
			t.Errorf("the injector did not reach its job: %+v", res.Faults)
		}
		res.Close()
		// The next job's nil injector is no injection: nothing of the
		// chaotic job's injector outlives it.
		res, err = e.Sort(pdm.WithInjector(context.Background(), nil), Generate(record.Uniform{Seed: 23}, n),
			Discard(), hierOpts(cap)...)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		if res.Faults.Any() {
			t.Errorf("the nil-injector job still saw faults: %+v", res.Faults)
		}
	})
}

// TestBaselineRefusesSink: a baseline moves records without sorting them,
// so Sort refuses one that would emit output — before a record is read and
// before admission — while a baseline with a nil Sink runs.
func TestBaselineRefusesSink(t *testing.T) {
	e, err := NewEngine(EngineConfig{Config: Config{Procs: 2, MemPerProc: 256, RecordSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, alg := range []Algorithm{BaselineIO3, BaselineIO4} {
		src := &countingSource{Source: Generate(record.Uniform{Seed: 5}, 1024)}
		_, err := e.Sort(context.Background(), src, Discard(), WithAlgorithm(alg))
		want := fmt.Sprintf("colsort: WithAlgorithm(%v) with a Sink: a baseline moves records without sorting them", alg)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%v with a Sink: err = %v, want %q", alg, err, want)
		}
		if src.read != 0 {
			t.Errorf("%v with a Sink: %d records read before the refusal", alg, src.read)
		}
	}
	if st := e.Stats(); st.PeakLeasedBytes != 0 || st.CompletedJobs+st.FailedJobs != 0 {
		t.Errorf("a refused baseline reached admission: %+v", st)
	}
	res, err := e.Sort(context.Background(), Generate(record.Uniform{Seed: 5}, 1024), nil, WithAlgorithm(BaselineIO3))
	if err != nil {
		t.Fatalf("baseline with a nil Sink: %v", err)
	}
	res.Close()
}

// TestEngineStatsAccumulate pins the ledger: after a mix of jobs —
// single-run, hierarchical (a multi-level merge, and descending runs), a
// checkpointed job cancelled mid-merge and its resume, a job whose source
// fails, and a chaos-faulted job that heals — every cumulative EngineStats
// field is the sum over those jobs' Results (a failed job counts once and
// returns none; no failed job here runs under chaos, so none has faults to
// add), and the warm pool arena reports occupancy after jobs return their
// buffers.
func TestEngineStatsAccumulate(t *testing.T) {
	const z, n = 16, 4096
	dir := t.TempDir()
	e, err := NewEngine(EngineConfig{Config: Config{Procs: 2, MemPerProc: 256, RecordSize: z,
		Dir: filepath.Join(dir, "scratch")}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var want EngineStats
	fold := func(res *Result, err error) {
		t.Helper()
		if err != nil {
			want.FailedJobs++
			return
		}
		defer res.Close()
		want.CompletedJobs++
		want.Counters.Add(res.Result.TotalCounters())
		want.Faults.Add(res.Faults)
		if m := res.Merge; m != nil {
			want.RunsFormed += int64(m.Runs)
			want.DownRunsFormed += int64(m.DownRuns)
			want.RunRecordsFormed += res.RealRecords()
			want.MergeLevelsRun += int64(m.Levels)
			if m.ResumedRuns > 0 {
				want.JobsResumed++
				want.RunsResumed += int64(m.ResumedRuns)
			}
		}
	}
	ctx := context.Background()
	hier := []Option{WithMaxMemory(512 * z), WithMergeFanIn(4)} // several spilled runs of n; the cap holds a fan-in-4 merge
	for i := 0; i < 3; i++ {
		fold(e.Sort(ctx, Generate(record.Uniform{Seed: uint64(i)}, 1024), nil, WithPadding(PadNever)))
	}
	fold(e.Sort(ctx, Generate(record.Uniform{Seed: 3}, n), Discard(), append(hier, WithMergeFanIn(2))...))
	fold(e.Sort(ctx, Generate(record.NearlyReverse{Seed: 9, Window: 64}, n), Discard(), hier...))

	ckptDir := filepath.Join(dir, "ckpt")
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var once sync.Once
	res, err := e.Sort(cctx, Generate(record.Uniform{Seed: 4}, n), Discard(),
		append(hier, WithMergeFanIn(2), WithCheckpoint(ckptDir), WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		}))...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("checkpointed sort: err = %v, want context.Canceled", err)
	}
	fold(res, err)
	fold(e.Sort(ctx, Generate(record.Uniform{Seed: 4}, n), Discard(), append(hier, WithMergeFanIn(2), WithCheckpoint(ckptDir))...))

	short := make([]byte, 100*z)
	res, err = e.Sort(ctx, FromReader(bytes.NewReader(short), 1024), Discard())
	if err == nil {
		t.Fatal("a source 924 records short was sorted")
	}
	fold(res, err)
	fold(e.Sort(chaosCtx(faultinject.ChaosConfig{Seed: 11, FlipSpillRead: 1}),
		Generate(record.Uniform{Seed: 5}, n), Discard(), hier...))

	// The mix reaches every cumulative field, so a field the ledger dropped
	// or double-counted shows.
	for name, v := range map[string]int64{
		"CompletedJobs": want.CompletedJobs, "FailedJobs": want.FailedJobs,
		"Counters.CompareUnits": want.Counters.CompareUnits, "Faults.CorruptChunks": want.Faults.CorruptChunks,
		"RunsFormed": want.RunsFormed, "DownRunsFormed": want.DownRunsFormed,
		"RunRecordsFormed": want.RunRecordsFormed, "MergeLevelsRun": want.MergeLevelsRun,
		"JobsResumed": want.JobsResumed, "RunsResumed": want.RunsResumed,
	} {
		if v == 0 {
			t.Errorf("the job mix leaves %s at 0", name)
		}
	}
	st := e.Stats()
	if st.PoolFreeBuffers == 0 || st.PoolFreeBytes == 0 {
		t.Errorf("pool occupancy empty after the jobs: %+v buffers, %d bytes",
			st.PoolFreeBuffers, st.PoolFreeBytes)
	}
	if st.ActiveJobs != 0 || st.QueuedJobs != 0 || st.LeasedBytes != 0 {
		t.Errorf("live fields after every job returned: %+v", st)
	}
	// What remains once the live fields are cleared is the ledger.
	st.PeakLeasedBytes, st.TotalMemory, st.PoolFreeBuffers, st.PoolFreeBytes = 0, 0, 0, 0
	if !reflect.DeepEqual(st, want) {
		t.Errorf("cumulative stats differ from the sum over the jobs' Results:\n got %+v\nwant %+v", st, want)
	}
}
