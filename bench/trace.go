package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"colsort"
	"colsort/internal/record"
)

// span is one traced interval: a layer boundary seen from the benchmark's own
// files, around the calls into the layer. Times are seconds since the tracer
// started; Parent names the span that caused it.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Parent   string  `json:"parent"`
	Workload string  `json:"workload"`
}

// tracer keeps the spans of one traced pass in memory; dump writes them out
// when the pass has ended.
type tracer struct {
	t0       time.Time
	workload string
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{t0: time.Now(), workload: workload} }

func (t *tracer) add(name, parent string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedPass is the --trace 1 run of one workload: the interposed trace of
// the real sort (or of the server loop), then the staged replay of every
// layer. The replay is the same for every workload; the interposed metrics a
// workload's path does not have (a bound-* sort forms no runs, a hier-* sort
// runs no pass) read zero.
func tracedPass(ctx context.Context, sz sizing, file *fileWorkload, dir string, seed uint64, spansPath string) (result, error) {
	name := serverStream
	if file != nil {
		name = file.name
	}
	tr := newTracer(name)
	m := metrics{}
	var t tally
	var err error
	if file != nil {
		err = traceFile(ctx, sz, *file, filepath.Join(dir, "real"), seed, tr, m, &t)
	} else {
		err = traceServer(ctx, sz, seed, tr, m, &t)
	}
	if err != nil {
		return result{}, err
	}
	if err := replay(ctx, sz, filepath.Join(dir, "replay"), seed, tr, m, &t); err != nil {
		return result{}, err
	}
	if spansPath != "" {
		if err := tr.dump(spansPath); err != nil {
			return result{}, err
		}
	}
	return t.result(m), nil
}

// timedReader is the interposed source: it times the sort's reads of the
// input file.
type timedReader struct {
	r    io.Reader
	wait time.Duration
}

func (t *timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.wait += time.Since(t0)
	return n, err
}

// timedSink is the interposed sink: it times the sort's calls into the real
// sink, from Open to Close.
type timedSink struct {
	inner colsort.Sink
	wait  time.Duration
}

func (s *timedSink) Open(z int) (colsort.RecordWriter, error) {
	t0 := time.Now()
	w, err := s.inner.Open(z)
	s.wait += time.Since(t0)
	if err != nil {
		return nil, err
	}
	return &timedWriter{w: w, sink: s}, nil
}

type timedWriter struct {
	w    colsort.RecordWriter
	sink *timedSink
}

func (w *timedWriter) Write(recs record.Slice) error {
	t0 := time.Now()
	err := w.w.Write(recs)
	w.sink.wait += time.Since(t0)
	return err
}

func (w *timedWriter) Close() error {
	t0 := time.Now()
	err := w.w.Close()
	w.sink.wait += time.Since(t0)
	return err
}

// phaseClock timestamps the phase changes a sort announces through
// WithProgress: the first event of each pass, the last pass event, and the
// first merge event.
type phaseClock struct {
	mu         sync.Mutex
	firstPass  [5]time.Time // index = Progress.Pass, 1-based
	lastPass   time.Time
	firstMerge time.Time
}

func (c *phaseClock) on(p colsort.Progress) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case p.Pass > 0:
		if p.Pass < len(c.firstPass) && c.firstPass[p.Pass].IsZero() {
			c.firstPass[p.Pass] = now
		}
		c.lastPass = now
	case p.FormedRecords == 0 && c.firstMerge.IsZero():
		c.firstMerge = now
	}
}

// phaseNames are the interposed trace's span names, which are also the
// per-layer metric names (seconds).
var phaseNames = []string{
	"colsort.phase_form_s", "colsort.phase_merge_s",
	"colsort.phase_ingest_s", "core.pass1_s", "core.pass2_s", "core.pass3_s", "core.pass4_s",
	"colsort.phase_verify_drain_s",
}

// traceFile takes the interposed trace of one file workload: untraced and
// traced repetitions in turn, so that both see the same machine, until
// sz.traceSeconds have passed. A traced repetition's input goes through a
// timed reader, its sink is wrapped, and its progress events timestamp the
// phases; every metric is the median over the traced repetitions.
func traceFile(ctx context.Context, sz sizing, w fileWorkload, dir string, seed uint64, tr *tracer, m metrics, t *tally) error {
	sz.setups = 1
	run, _, err := w.setUp(ctx, sz, dir, seed, t)
	if err != nil {
		return err
	}
	defer run.close()
	var untraced, traced timings
	seconds := map[string][]float64{}
	var allocs, collections []float64
	start := time.Now()
	for n := 0; n < min(sz.minReps, 2) || time.Since(start).Seconds() < sz.traceSeconds; n++ {
		s, err := run.rep(ctx)
		t.add(err)
		if err != nil {
			return err
		}
		untraced.add(s.timing)
		ts, err := run.tracedRep(ctx, tr)
		t.add(err)
		if err != nil {
			return err
		}
		traced.add(ts.timing)
		for name, v := range ts.seconds {
			seconds[name] = append(seconds[name], v)
		}
		allocs = append(allocs, ts.allocMiB)
		collections = append(collections, ts.collections)
	}
	for name, vs := range seconds {
		m.set(name, unitS, median(vs))
	}
	m.set("colsort.alloc_mib_per_sort", unitMiB, median(allocs))
	m.set("colsort.gc_cycles_per_sort", unitCount, median(collections))
	ref := durQuantile(untraced.quiet, 0.5)
	m.set("trace.overhead_pct", unitPct, 100*float64(durQuantile(traced.quiet, 0.5)-ref)/float64(ref))
	return nil
}

// tracedSample is what one traced repetition measured: the phase and wait
// metrics in seconds, by name, and the heap's work.
type tracedSample struct {
	timing
	seconds     map[string]float64
	allocMiB    float64
	collections float64
}

// tracedRep is one repetition under the interposed trace; its spans go to tr.
func (r *fileRun) tracedRep(ctx context.Context, tr *tracer) (tracedSample, error) {
	ts := tracedSample{seconds: map[string]float64{}}
	if err := r.prepare(); err != nil {
		return ts, err
	}
	f, err := os.Open(r.in)
	if err != nil {
		return ts, err
	}
	defer f.Close()
	src := &timedReader{r: f}
	sink := &timedSink{inner: colsort.ToFile(r.out)}
	var clock phaseClock
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var start time.Time
	ts.timing, err = r.w.timed(func() error {
		start = time.Now()
		_, err := r.sort(ctx, colsort.FromReader(src, r.w.records), sink, colsort.WithProgress(clock.on))
		return err
	})
	end := start.Add(ts.raw)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return ts, err
	}
	if err := r.checkOutput(); err != nil {
		return ts, err
	}

	// Phase boundaries, in order; a boundary the sort never announced
	// collapses its phase to nothing.
	tr.add("sort", "", start, end)
	bounds := map[string][2]time.Time{}
	if r.w.hier {
		mid := clock.firstMerge
		if mid.IsZero() {
			mid = end
		}
		bounds["colsort.phase_form_s"] = [2]time.Time{start, mid}
		bounds["colsort.phase_merge_s"] = [2]time.Time{mid, end}
	} else {
		last := clock.lastPass
		if last.IsZero() {
			last = end
		}
		edge := start
		for p := 1; p < len(clock.firstPass); p++ {
			if clock.firstPass[p].IsZero() {
				continue
			}
			name := "colsort.phase_ingest_s"
			if p > 1 {
				name = fmt.Sprintf("core.pass%d_s", p-1)
			}
			bounds[name] = [2]time.Time{edge, clock.firstPass[p]}
			edge = clock.firstPass[p]
		}
		for p := len(clock.firstPass) - 1; p >= 1; p-- {
			if !clock.firstPass[p].IsZero() {
				bounds[fmt.Sprintf("core.pass%d_s", p)] = [2]time.Time{edge, last}
				break
			}
		}
		bounds["colsort.phase_verify_drain_s"] = [2]time.Time{last, end}
	}
	scale := float64(ts.quiet) / float64(ts.raw)
	for _, name := range phaseNames {
		b, ok := bounds[name]
		if ok {
			tr.add(name, "sort", b[0], b[1])
		}
		ts.seconds[name] = b[1].Sub(b[0]).Seconds() * scale
	}
	ts.seconds["colsort.source_wait_s"] = src.wait.Seconds() * scale
	ts.seconds["colsort.sink_wait_s"] = sink.wait.Seconds() * scale
	ts.allocMiB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	ts.collections = float64(m1.NumGC - m0.NumGC)
	return ts, nil
}

// traceServer is the traced pass of the server workload. Seen from outside,
// a request over HTTP shows no phases, so the phase metrics read zero; the
// allocation and collection counts are per request, and the overhead is the
// counted loop's median latency against an uncounted loop's.
func traceServer(ctx context.Context, sz sizing, seed uint64, tr *tracer, m metrics, t *tally) error {
	sz.setups = 1
	s, _, err := setUpServer(ctx, sz, seed, t)
	if err != nil {
		return err
	}
	defer s.close()
	plain := s.loop(ctx, sz, sz.minRequests/2, sz.segmentSeconds)
	t.merge(plain.tally)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	counted := s.loop(ctx, sz, sz.minRequests/2, sz.segmentSeconds)
	tr.add("loop", "", start, time.Now())
	runtime.ReadMemStats(&m1)
	t.merge(counted.tally)
	if len(plain.lat) == 0 || len(counted.lat) == 0 {
		return fmt.Errorf("%s: traced loop: no request succeeded: %w", serverStream, t.firstErr)
	}
	for _, name := range phaseNames {
		m.set(name, unitS, 0)
	}
	m.set("colsort.source_wait_s", unitS, 0)
	m.set("colsort.sink_wait_s", unitS, 0)
	n := float64(len(counted.lat))
	m.set("colsort.alloc_mib_per_sort", unitMiB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/n)
	m.set("colsort.gc_cycles_per_sort", unitCount, float64(m1.NumGC-m0.NumGC)/n)
	ref := durQuantile(plain.lat, 0.5)
	m.set("trace.overhead_pct", unitPct, 100*float64(durQuantile(counted.lat, 0.5)-ref)/float64(ref))
	return nil
}
