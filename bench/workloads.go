package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"colsort"
	"colsort/internal/record"
)

// procs is P of every engine the benchmark builds.
const procs = 4

// sizing holds every size the workloads and the staged replay depend on, so
// the smoke test can run the same code on inputs a hundred times smaller.
type sizing struct {
	mem         int   // MemPerProc of the hier-* and server engines, records
	hierRecords int64 // input of the hier-* workloads
	hierCap     int64 // their WithMaxMemory cap, bytes: an eighth of the input

	boundMem        int   // MemPerProc of the bound-* engines
	subblockRecords int64 // boundMem × s, s a power of 4 past the threaded bound
	mcolumnRecords  int64 // (boundMem·P) × s

	bodyRecords    int64   // one server-stream request body
	warmSeconds    float64 // untimed closed loop before the server loop
	segmentSeconds float64 // closed-loop stretch between two probes
	minRequests    int     // timed requests the server loop makes at least

	setups  int // times set-up is repeated; setup_s is their median
	minReps int // timed repetitions a file workload makes at least

	traceSeconds float64 // the interposed trace alternates untraced and traced repetitions this long
	stageReps    int     // times the replay runs each stage; a stage's metric is their median

	coreMem     int   // MemPerProc of the core.Run replays
	coreRecords int64 // their store: coreMem × 16, which every algorithm plans
	kwayRecords int64 // records merged by the k=16 and k=64 merge replays
	scanExtents int   // 512 KiB extents per modeled disk in the async-overlap replay
}

// fullSizing is what BENCHMARK.json's command measures. The machine is the
// issue's (P=4, 16384-record column buffers, 64-byte records) for the hier-*
// and server workloads; sizes are set so that a run of --seconds 8 makes at
// least minReps repetitions and ends in about twenty seconds on two cores.
var fullSizing = sizing{
	mem:         16384,
	hierRecords: 1 << 20, // 64 MiB
	hierCap:     8 << 20, // runs of 8 MiB: the input is 8× the cap

	boundMem:        4096,
	subblockRecords: 4096 * 64,       // 16 MiB, 2× the threaded bound of this machine (4096×32)
	mcolumnRecords:  (4096 * 4) * 32, // 32 MiB, 4× that bound

	bodyRecords:    1 << 17, // 8 MiB
	warmSeconds:    0.5,
	segmentSeconds: 1.5,
	minRequests:    40,

	setups:  3,
	minReps: 5,

	traceSeconds: 2.5,
	stageReps:    3,

	coreMem:     16384,
	coreRecords: 16384 * 16, // 16 MiB
	kwayRecords: 1 << 18,    // 16 MiB
	scanExtents: 8,
}

// smokeSizing is the go test sizing: 1 MiB hierarchical inputs on a machine
// with 256-record column buffers, one repetition, a handful of requests.
var smokeSizing = sizing{
	mem:         256,
	hierRecords: 1 << 14, // 1 MiB
	hierCap:     128 << 10,

	boundMem:        256,
	subblockRecords: 256 * 16,      // threaded bound here is 256×8
	mcolumnRecords:  (256 * 4) * 8, // past 256×8 too

	bodyRecords:    1 << 11, // 128 KiB
	warmSeconds:    0,
	segmentSeconds: 0,
	minRequests:    4,

	setups:  1,
	minReps: 1,

	stageReps: 1,

	coreMem:     1024, // the smallest buffer whose ×16 store threaded columnsort plans
	coreRecords: 1024 * 16,
	kwayRecords: 1 << 12,
	scanExtents: 1,
}

// fileWorkload is one file-to-file sort configuration: every repetition is
// the same Engine.Sort(ctx, FromFile(in), ToFile(out), options...) on one
// long-lived engine, the way the CLI's -jobs mode and the server run it.
type fileWorkload struct {
	name    string
	mem     int
	records int64
	gen     func(seed uint64) record.Generator
	// config changes the engine's Config beyond the fixed machine; nil for none.
	config func(*colsort.Config)
	// options are the Sort call's options; checkpoint adds WithCheckpoint of
	// a directory under the workload's scratch.
	options    []colsort.Option
	checkpoint bool
	// hier says which path the sort must take: runs plus merge (Result.Merge
	// set) or one columnsort run of exactly the input's size.
	hier bool
	// oneRun requires the hierarchical sort to have formed a single run.
	oneRun bool
	// modeled says the sort waits on modeled disks: its time is their service
	// time, a wall-clock sleep the machine's speed does not enter, so it is
	// reported as measured (see timed). Measured in a loud hour: 1.8 % spread
	// between ten runs as measured, 12.7 % scaled by the probe.
	modeled bool
}

// timed is the package's timed for this workload's operations.
func (w fileWorkload) timed(op func() error) (timing, error) {
	if !w.modeled {
		return timed(op)
	}
	t0 := time.Now()
	err := op()
	d := time.Since(t0)
	return timing{raw: d, quiet: d}, err
}

func uniform(seed uint64) record.Generator { return record.Uniform{Seed: seed} }

func nearlySorted(seed uint64) record.Generator {
	return record.NearlySorted{Seed: seed, Window: 64}
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{
	"hier-uniform", "hier-nearly-sorted", "hier-checkpoint", "hier-modeled",
	"bound-subblock", "bound-mcolumn", serverStream,
}

// fileWorkloads builds the six file workloads at the given sizing. Why each
// exists is in BENCHMARK.json and, at length, in README.md.
func fileWorkloads(sz sizing) []fileWorkload {
	hier := []colsort.Option{colsort.WithAlgorithm(colsort.Threaded), colsort.WithMaxMemory(sz.hierCap)}
	single := func(alg colsort.Algorithm) []colsort.Option {
		return []colsort.Option{colsort.WithAlgorithm(alg), colsort.WithPadding(colsort.PadNever)}
	}
	return []fileWorkload{
		{
			name: "hier-uniform", mem: sz.mem, records: sz.hierRecords, gen: uniform,
			options: hier, hier: true,
		},
		{
			name: "hier-nearly-sorted", mem: sz.mem, records: sz.hierRecords, gen: nearlySorted,
			options: hier, hier: true, oneRun: true,
		},
		{
			name: "hier-checkpoint", mem: sz.mem, records: sz.hierRecords, gen: uniform,
			options: hier, hier: true, checkpoint: true,
		},
		{
			name: "hier-modeled", mem: sz.mem, records: sz.hierRecords, gen: uniform,
			config: func(c *colsort.Config) {
				c.Async, c.DiskSeekMicros, c.DiskMBps = true, 100, 64
			},
			options: hier, hier: true, modeled: true,
		},
		{
			name: "bound-subblock", mem: sz.boundMem, records: sz.subblockRecords, gen: uniform,
			options: single(colsort.Subblock),
		},
		{
			name: "bound-mcolumn", mem: sz.boundMem, records: sz.mcolumnRecords, gen: uniform,
			options: single(colsort.MColumn),
		},
	}
}

// fileRun is a file workload set up in this process: input on disk, engine
// built. out is rewritten by every repetition.
type fileRun struct {
	w       fileWorkload
	dir     string
	in, out string
	want    record.Checksum
	eng     *colsort.Engine
}

// start generates the workload's input from seed under dir and builds its
// engine, with file-backed scratch under the same directory.
func (w fileWorkload) start(dir string, seed uint64) (*fileRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &fileRun{w: w, dir: dir, in: filepath.Join(dir, "in.dat"), out: filepath.Join(dir, "out.dat")}
	var err error
	if r.want, err = writeInput(r.in, w.gen(seed), w.records); err != nil {
		return nil, fmt.Errorf("%s: generate input: %w", w.name, err)
	}
	cfg := colsort.Config{Procs: procs, MemPerProc: w.mem, RecordSize: recSize,
		Dir: filepath.Join(dir, "disks")}
	if w.config != nil {
		w.config(&cfg)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if r.eng, err = colsort.NewEngine(colsort.EngineConfig{Config: cfg}); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

func (r *fileRun) close() { r.eng.Close() }

func (r *fileRun) bytes() int64 { return r.w.records * recSize }

// sort runs one sort from src into dst on the workload's engine and returns
// the disk bytes the sort counted. A sort that took another path than the
// workload names is an error: a workload must never silently measure
// different code.
func (r *fileRun) sort(ctx context.Context, src colsort.Source, dst colsort.Sink, extra ...colsort.Option) (int64, error) {
	opts := append(append([]colsort.Option(nil), r.w.options...), extra...)
	if r.w.checkpoint {
		opts = append(opts, colsort.WithCheckpoint(filepath.Join(r.dir, "ckpt")))
	}
	res, err := r.eng.Sort(ctx, src, dst, opts...)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", r.w.name, err)
	}
	defer res.Close()
	switch {
	case r.w.hier && res.Merge == nil:
		return 0, fmt.Errorf("%s: sort took the single-run path", r.w.name)
	case r.w.hier && r.w.oneRun && res.Merge.Runs != 1:
		return 0, fmt.Errorf("%s: formed %d runs, want 1", r.w.name, res.Merge.Runs)
	case !r.w.hier && res.Merge != nil:
		return 0, fmt.Errorf("%s: sort took the hierarchical path", r.w.name)
	case !r.w.hier && res.Plan.N != r.w.records:
		return 0, fmt.Errorf("%s: planned %d records for an input of %d", r.w.name, res.Plan.N, r.w.records)
	}
	c := res.TotalCounters()
	return c.DiskReadBytes + c.DiskWriteBytes, nil
}

// prepare readies the scratch for one more sort, outside any timed region: a
// sort writes a new output file and a checkpoint directory belongs to one
// job, the page-cache pages the sort will take are pre-warmed (see prewarm),
// and the heap starts from a collection so that peak memory and the
// collector's work inside the sort do not depend on what ran before.
func (r *fileRun) prepare() error {
	os.Remove(r.out)
	os.RemoveAll(filepath.Join(r.dir, "ckpt"))
	runtime.GC()
	// What the sort will hold in new pages at once: the run spills and the
	// output, or — a single run — the output and two generations of pass
	// stores.
	if r.w.hier {
		return prewarm(r.dir, 2*r.bytes())
	}
	return prewarm(r.dir, 4*r.bytes())
}

// rep is one repetition as the workload defines it, file to file: the sort
// timed from the call to the sink closed, then — outside that time — the
// benchmark's own check of the output.
func (r *fileRun) rep(ctx context.Context) (s sample, err error) {
	if err := r.prepare(); err != nil {
		return s, err
	}
	resetPeakRSS()
	s.timing, err = r.w.timed(func() error {
		s.disk, err = r.sort(ctx, colsort.FromFile(r.in), colsort.ToFile(r.out))
		return err
	})
	s.rssMiB = peakRSSMiB()
	if err != nil {
		return s, err
	}
	return s, r.checkOutput()
}

// sample is what one repetition measured.
type sample struct {
	timing
	disk   int64   // bytes the sort counted on its disks
	rssMiB float64 // peak resident set during the sort
}

func (r *fileRun) checkOutput() error {
	if err := checkSortedFile(r.out, r.w.records, r.want); err != nil {
		return fmt.Errorf("%s: %w", r.w.name, err)
	}
	return nil
}

// tally counts operations whose outcome the benchmark checked.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
			fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) result(m metrics) result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// setUp sets the workload up sz.setups times — input generation, engine
// construction and one warm-up sort that fills the engine's pools — and keeps
// the last. It returns the median set-up time.
func (w fileWorkload) setUp(ctx context.Context, sz sizing, dir string, seed uint64, t *tally) (*fileRun, float64, error) {
	var run *fileRun
	var secs []float64
	for i := 0; i < sz.setups; i++ {
		if run != nil {
			run.close()
		}
		runtime.GC()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		if err := prewarm(dir, 3*w.records*recSize); err != nil { // input, spills or stores, output
			return nil, 0, err
		}
		tm, err := w.timed(func() (err error) {
			if run, err = w.start(dir, seed); err != nil {
				return err
			}
			_, err = run.sort(ctx, colsort.FromFile(run.in), colsort.ToFile(run.out))
			return err
		})
		if run == nil {
			return nil, 0, err
		}
		if err == nil {
			err = run.checkOutput()
		}
		t.add(err)
		if err != nil {
			run.close()
			return nil, 0, err
		}
		secs = append(secs, tm.quiet.Seconds())
	}
	return run, median(secs), nil
}

// measure runs the workload with tracing off: repetitions until seconds have
// passed and at least sz.minReps were made, every output checked.
func (w fileWorkload) measure(ctx context.Context, sz sizing, dir string, seed uint64, seconds float64) (result, error) {
	var t tally
	run, setup, err := w.setUp(ctx, sz, dir, seed, &t)
	if err != nil {
		return result{}, err
	}
	defer run.close()

	var reps timings
	var amps, rss []float64
	start := time.Now()
	for n := 0; n < sz.minReps || time.Since(start).Seconds() < seconds; n++ {
		if err := ctx.Err(); err != nil {
			return result{}, err
		}
		s, err := run.rep(ctx)
		t.add(err)
		if err == nil {
			reps.add(s.timing)
			amps = append(amps, float64(s.disk)/float64(2*run.bytes()))
			rss = append(rss, s.rssMiB)
		}
	}
	if len(reps.quiet) == 0 {
		return result{}, fmt.Errorf("%s: no repetition succeeded: %w", w.name, t.firstErr)
	}
	m := metrics{}
	p50 := durQuantile(reps.quiet, 0.5)
	m.set("sort_mb_s", unitMBps, mbPerSec(run.bytes(), p50))
	m.set("req_p50_ms", unitMs, ms(p50))
	m.set("io_amp", unitX, median(amps))
	m.set("peak_rss_mib", unitMiB, median(rss))
	m.set("setup_s", unitS, setup)
	fmt.Printf("%s: %d timed repetitions of %d MiB; median %.3fs at quiet-machine speed, %.3fs as measured\n",
		w.name, len(reps.quiet), run.bytes()>>20, p50.Seconds(), durQuantile(reps.raw, 0.5).Seconds())
	return t.result(m), nil
}
