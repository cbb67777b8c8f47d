// Package server is the wire front-end of the colsort Engine: sort-as-a-
// service over HTTP. It turns the v1 Source/Sink boundary into the network
// boundary the API was designed for — a request body is a Source, a
// response body is a Sink — so an upload streams straight through
// source.FromReader into Engine.Sort and the sorted result streams back
// without the server ever buffering the full input or output.
//
// Surface (DESIGN.md §11 holds the wire contract):
//
//	POST   /v1/sort               streaming sort: body in, sorted body out
//	POST   /v1/jobs               async sort of server-side files
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job state + result summary
//	GET    /v1/jobs/{id}/progress SSE progress push (batch/pass/merge percent)
//	DELETE /v1/jobs/{id}          cancel (the job's ctx; queued or running)
//	GET    /metrics               Prometheus text format
//	GET    /healthz               200 ok; 503 while draining
//
// Sort options arrive as query parameters (or the job submission's
// "options" object), spelled through the table cmd/colsort's flags share:
// internal/optspell.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"colsort"
	"colsort/internal/optspell"
	"colsort/internal/record"
	"colsort/internal/wal"
)

// Config tunes the server around its engine.
type Config struct {
	// MaxJobs bounds the wire jobs in flight at once (streaming and file
	// jobs together). Submissions beyond the bound are refused with HTTP
	// 429 and a Retry-After header — the wire rendering of ErrBusy. 0
	// means unbounded: jobs then queue inside the engine's FIFO admission.
	MaxJobs int
	// DataDir is the root directory of server-side file jobs
	// (POST /v1/jobs): input and output paths are resolved under it and
	// may not escape it. Empty disables the file-job endpoint entirely —
	// the streaming endpoint never touches the server's filesystem.
	DataDir string
	// RetainJobs bounds the finished jobs kept for GET /v1/jobs/{id}
	// after completion (default 256). Live jobs are never evicted.
	RetainJobs int
	// WriteTimeout bounds each WRITE on streaming responses — sorted output
	// chunks and SSE events. The deadline is re-armed before every write,
	// so arbitrarily long transfers survive while a stalled client is cut
	// loose (an absolute http.Server.WriteTimeout would kill any sort
	// slower than the timeout). 0 disables the per-write deadline.
	WriteTimeout time.Duration
}

// Server serves one Engine over HTTP. Create with New, mount Handler, and
// call Drain on shutdown.
type Server struct {
	eng      *colsort.Engine
	cfg      Config
	recSize  int
	met      *metrics
	jobs     *jobRegistry
	mux      *http.ServeMux
	draining atomic.Bool
	slots    chan struct{} // MaxJobs semaphore; nil when unbounded

	// The boot-time recovery counters /metrics exposes (see wal.go).
	resumedJobs    atomic.Int64 // file jobs re-adopted from their directories at startup
	orphansCleaned atomic.Int64 // orphan job-scoped and pooled scratch files removed at startup
}

// New builds a Server over an engine the caller owns (Drain closes it),
// recovering durable job state first: the engine's scratch directory is
// swept of orphaned job files, and — when DataDir is set — every file job
// whose directory survived is re-adopted (resumed from its checkpoint
// manifest where one survived). A recovery error means the durable state
// could not be read, and nothing was touched; the engine itself is
// untouched by it.
func New(eng *colsort.Engine, cfg Config) (*Server, error) {
	s := &Server{
		eng:     eng,
		cfg:     cfg,
		recSize: eng.Config().RecordSize,
		met:     newMetrics(),
		jobs:    newJobRegistry(cfg.RetainJobs),
		mux:     http.NewServeMux(),
	}
	if cfg.MaxJobs > 0 {
		s.slots = make(chan struct{}, cfg.MaxJobs)
	}
	handle := func(method, pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(method+" "+pattern, s.met.instrument(method+" "+pattern, h))
	}
	handle("POST", "/v1/sort", s.handleSortStream)
	handle("POST", "/v1/jobs", s.handleJobSubmit)
	handle("GET", "/v1/jobs", s.handleJobList)
	handle("GET", "/v1/jobs/{id}", s.handleJobGet)
	handle("GET", "/v1/jobs/{id}/progress", s.handleJobProgress)
	handle("DELETE", "/v1/jobs/{id}", s.handleJobDelete)
	handle("GET", "/metrics", s.handleMetrics)
	handle("GET", "/healthz", s.handleHealthz)
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain stops admitting new jobs: /healthz flips to 503 (so load
// balancers stop routing), and new submissions on both sort endpoints are
// refused with 503. In-flight jobs keep running.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain performs the drain-aware shutdown: stop admitting, wait for the
// background file jobs to finish (cancelling any still running when ctx
// expires), then Close the engine — which itself blocks until its active
// jobs unwind. Streaming requests are owned by their HTTP handlers; the
// caller drains those with http.Server.Shutdown before calling Drain.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() { s.jobs.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.jobs.cancelAll()
		<-done
	}
	return s.eng.Close()
}

// acquireSlot takes one MaxJobs slot without blocking; ok=false means the
// server is saturated and the request must be refused with 429.
func (s *Server) acquireSlot() (release func(), ok bool) {
	if s.slots == nil {
		return func() {}, true
	}
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, true
	default:
		return nil, false
	}
}

// apiError is the JSON error envelope of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client is gone if this fails
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeBusy renders engine/server saturation: 429 with a Retry-After hint.
func writeBusy(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, format, args...)
}

// streamSink is the Sort call's Sink over the http.ResponseWriter: headers
// (including the exact Content-Length — the output of an n-record sort is
// exactly n·z bytes) go out with the first sorted chunk, and every chunk is
// flushed so the client streams instead of waiting for the handler to
// return. The stream's last record is held back until Sort closes the
// writer, which it does only once the output is verified: the egress
// compares the multiset only at end of stream, so a failure there must
// still leave the body short of its Content-Length.
type streamSink struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	total   int64
	jobID   string
	timeout time.Duration // per-write deadline; re-armed before every chunk
	started bool
	sent    int64  // body bytes sent
	tail    []byte // the body's last cap(tail) bytes, one record: sent by Close
}

// Open returns the sink itself: a streaming request runs one Sort.
func (sw *streamSink) Open(int) (colsort.RecordWriter, error) { return sw, nil }

func (sw *streamSink) Write(recs record.Slice) error {
	p := recs.Data
	if !sw.started {
		h := sw.w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Length", strconv.FormatInt(sw.total, 10))
		h.Set("X-Colsort-Job", sw.jobID)
		sw.w.WriteHeader(http.StatusOK)
		sw.started = true
	}
	// Send the bytes before the body's last record; hold back the rest.
	n := min(int64(len(p)), max(0, sw.total-int64(cap(sw.tail))-sw.sent))
	if err := sw.send(p[:n]); err != nil {
		return err
	}
	sw.tail = append(sw.tail, p[n:]...)
	return nil
}

// Close sends the held-back tail: Sort calls it once the output is verified.
func (sw *streamSink) Close() error { return sw.send(sw.tail) }

// send writes b to the client and flushes it.
func (sw *streamSink) send(b []byte) error {
	if sw.timeout > 0 {
		// Re-arm rather than set once: a long sort must survive, a stalled
		// client must not hold the handler hostage.
		sw.rc.SetWriteDeadline(time.Now().Add(sw.timeout)) //nolint:errcheck // unsupported writer: no deadline
	}
	n, err := sw.w.Write(b)
	sw.sent += int64(n)
	if err == nil {
		err = sw.rc.Flush()
	}
	if err != nil {
		return fmt.Errorf("server: write response: %w", err)
	}
	return nil
}

// handleSortStream is the tentpole endpoint: POST /v1/sort streams the
// request body through FromReader into Engine.Sort and the sorted records
// back through the response body — no full-input buffering anywhere in
// the HTTP layer. The record count comes from Content-Length (or the
// records query parameter for chunked uploads). Client disconnect cancels
// the request context, which is the job's context: the engine unwinds its
// processors, async disk workers and scratch files.
func (s *Server) handleSortStream(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	z := int64(s.recSize)
	n, err := streamRecords(r, z)
	var opts []colsort.Option
	if err == nil {
		opts, err = optspell.Parse(r.URL.Query(), "records")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	release, ok := s.acquireSlot()
	if !ok {
		writeBusy(w, "server at its -jobs bound (%d wire jobs in flight); retry later", s.cfg.MaxJobs)
		return
	}
	defer release()

	// The request context IS the job context: client disconnect (or an
	// http.Server.Shutdown deadline) cancels the sort.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	entry := s.jobs.add(s.jobs.nextID(), jobInfo{Streaming: true}, cancel)
	opts = append(opts, colsort.WithProgress(entry.onProgress))

	sink := &streamSink{w: w, rc: http.NewResponseController(w), total: n * z,
		jobID: entry.info.ID, timeout: s.cfg.WriteTimeout, tail: make([]byte, 0, z)}
	res, err := s.eng.Sort(ctx, colsort.FromReader(r.Body, n), sink, opts...)
	if err != nil {
		entry.finish(nil, err)
		if sink.started {
			// Sorted bytes already left: the status line is spent. Abort
			// the connection so the client sees a truncated body — at
			// least the held-back last record is missing, and the
			// advertised Content-Length makes that detectable — rather
			// than a plausible-looking output. The Sink contract says
			// exactly this: on error, discard.
			panic(http.ErrAbortHandler)
		}
		switch {
		case errors.Is(err, colsort.ErrBusy):
			writeBusy(w, "%v", err)
		case errors.Is(err, colsort.ErrEngineClosed):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case ctx.Err() != nil:
			// Client gone (or shutdown): nobody is reading the response.
			panic(http.ErrAbortHandler)
		default:
			// The engine refused or failed the job before emitting a byte:
			// short input, bad key spec, unplannable shape... The error
			// text names the cause either way.
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	// A body short of its Content-Length cannot happen while the library
	// honors its Sink contract; if it did, net/http would close the
	// connection, so the truncation would still be detectable.
	sum := res.Summary()
	res.Close()
	entry.finish(&sum, nil)
}

// streamRecords is the record count of a streaming sort of z-byte records:
// ?records=N, or Content-Length over z; when both are given they must agree.
func streamRecords(r *http.Request, z int64) (int64, error) {
	v := r.URL.Query().Get("records")
	if v == "" {
		switch {
		case r.ContentLength < 0:
			return 0, fmt.Errorf("chunked upload without a record count: pass ?records=N (records are %d bytes each)", z)
		case r.ContentLength == 0 || r.ContentLength%z != 0:
			return 0, fmt.Errorf("Content-Length %d is not a positive multiple of the record size %d", r.ContentLength, z)
		}
		return r.ContentLength / z, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	switch {
	case err != nil || n < 1:
		return 0, fmt.Errorf("records=%q is not a positive integer", v)
	case n > math.MaxInt64/z:
		return 0, fmt.Errorf("records=%d overflows a 64-bit byte count at %d bytes a record", n, z)
	case r.ContentLength >= 0 && r.ContentLength != n*z:
		return 0, fmt.Errorf("records=%d disagrees with Content-Length %d (want %d×%d = %d bytes)", n, r.ContentLength, n, z, n*z)
	}
	return n, nil
}

// jobRequest is the POST /v1/jobs submission body.
type jobRequest struct {
	// Input and Output are paths relative to the server's -data directory.
	Input  string `json:"input"`
	Output string `json:"output"`
	// Options uses the same keys and values as the /v1/sort query
	// parameters (see DESIGN.md §11's table).
	Options map[string]string `json:"options,omitempty"`
}

// valuesFromMap adapts a job submission's options object to the query
// parameter mapping, so both entry points share one reader.
func valuesFromMap(m map[string]string) url.Values {
	q := make(url.Values, len(m))
	for k, v := range m {
		q.Set(k, v)
	}
	return q
}

// resolveDataPath resolves a submitted path under the data directory,
// refusing absolute paths and any traversal out of it.
func (s *Server) resolveDataPath(p string) (string, error) {
	if p == "" {
		return "", fmt.Errorf("empty path")
	}
	if filepath.IsAbs(p) || !filepath.IsLocal(p) {
		return "", fmt.Errorf("path %q must be relative and stay inside the server's data directory", p)
	}
	return filepath.Join(s.cfg.DataDir, p), nil
}

// handleJobSubmit accepts an asynchronous sort of server-side files: the
// job runs in the background under its own context; the response is 202
// with the job's id, once its job file is durable. Progress, state, result
// summary and cancellation are all served off the registry entry.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.cfg.DataDir == "" {
		writeError(w, http.StatusForbidden, "server-side file jobs are disabled (start the server with -data)")
		return
	}
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad job request: %v", err)
		return
	}
	in, err := s.resolveDataPath(req.Input)
	if err != nil {
		writeError(w, http.StatusBadRequest, "input: %v", err)
		return
	}
	out, err := s.resolveDataPath(req.Output)
	if err != nil {
		writeError(w, http.StatusBadRequest, "output: %v", err)
		return
	}
	if _, err := os.Stat(in); err != nil {
		writeError(w, http.StatusBadRequest, "input: %v", err)
		return
	}
	opts, err := optspell.Parse(valuesFromMap(req.Options))
	if err == nil {
		err = s.planFileJob(in, opts)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	release, ok := s.acquireSlot()
	if !ok {
		writeBusy(w, "server at its -jobs bound (%d wire jobs in flight); retry later", s.cfg.MaxJobs)
		return
	}

	// Durability point: the submission is recorded — with everything needed
	// to restart it — before the job runs. A crash from here on re-adopts
	// the job at the next boot; a job that cannot be recorded never runs.
	id := s.jobs.nextID()
	if err := wal.Rewrite(filepath.Join(s.ckptDir(id), jobFileName), []jobRequest{req}); err != nil {
		release()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "job %s not accepted: writing its job file: %v", id, err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	entry := s.jobs.add(id, jobInfo{Input: req.Input, Output: req.Output}, cancel)
	s.launchFileJob(ctx, cancel, entry, in, out, opts, release)
	info, _ := entry.snapshot()
	writeJSON(w, http.StatusAccepted, info)
}

// planFileJob asks the resolver Sort itself asks what sorting the file would
// execute — the record count is the one the run would open — so a job the
// library would refuse is refused at submit, with the library's sentence,
// instead of failing after its 202.
func (s *Server) planFileJob(in string, opts []colsort.Option) error {
	n, rd, err := colsort.FromFile(in).Open(s.recSize)
	if err != nil {
		return err
	}
	rd.Close() //nolint:errcheck // opened read-only, nothing to lose
	_, err = s.eng.PlanSort(n, opts...)
	return err
}

// launchFileJob runs one file job in the background, a Sort under the job's
// own checkpoint directory — so a re-adopted job continues from whatever
// that directory holds, adopting the durable runs the dead process
// verified. A done or failed job's directory is removed — before the
// registry shows the terminal state — except when a drain cancels the
// job, which deliberately leaves it so the next boot picks the job back up
// from its checkpoint.
func (s *Server) launchFileJob(ctx context.Context, cancel context.CancelFunc, entry *jobEntry, in, out string, opts []colsort.Option, release func()) {
	id := entry.info.ID
	ckpt := s.ckptDir(id)
	opts = append(opts, colsort.WithProgress(entry.onProgress), colsort.WithCheckpoint(ckpt))
	s.jobs.wg.Add(1)
	go func() {
		defer s.jobs.wg.Done()
		defer release()
		defer cancel()
		// ToFile leaves out as it was if the sort fails: it publishes nothing.
		res, err := s.eng.Sort(ctx, colsort.FromFile(in), colsort.ToFile(out), opts...)
		var sum *colsort.ResultSummary
		switch {
		case err == nil:
			rs := res.Summary()
			res.Close()
			sum = &rs
		case errors.Is(err, context.Canceled) && s.draining.Load():
			// Shutdown interrupted the job, not the job itself: keep its
			// directory, so the next boot resumes instead of rerunning.
			entry.finish(nil, err)
			return
		}
		os.RemoveAll(ckpt) //nolint:errcheck // left behind, the job re-runs once at the next boot, to the same output
		entry.finish(sum, err)
	}()
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.list())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	entry := s.jobs.get(r.PathValue("id"))
	if entry == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	info, _ := entry.snapshot()
	writeJSON(w, http.StatusOK, info)
}

// handleJobDelete cancels the job's context — running or still queued for
// engine admission (the cancel-while-queued path) — and reports the state
// it observed. Cancelling a finished job is a harmless no-op.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	entry := s.jobs.get(r.PathValue("id"))
	if entry == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	entry.cancel()
	info, _ := entry.snapshot()
	writeJSON(w, http.StatusOK, info)
}

// sseHeartbeat keeps idle SSE connections alive through proxies.
const sseHeartbeat = 15 * time.Second

// handleJobProgress pushes the job's progress as Server-Sent Events:
// "progress" events carry the latest coalesced progressEvent (batch, pass
// and merge percent), and one final "done" event carries the terminal
// jobInfo (result summary or error). Slow consumers coalesce — the server
// never buffers more than the latest event per subscriber.
func (s *Server) handleJobProgress(w http.ResponseWriter, r *http.Request) {
	entry := s.jobs.get(r.PathValue("id"))
	if entry == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	send := func(event string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if s.cfg.WriteTimeout > 0 {
			// Per-write deadline, re-armed per event: an SSE stream lives as
			// long as the job, but a stalled subscriber must not pin the
			// handler (and its registry wakeups) forever.
			rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //nolint:errcheck // unsupported writer: no deadline
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return err
		}
		return rc.Flush()
	}

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	var lastSent int64 = -1
	for {
		wake := entry.wait()
		info, seq := entry.snapshot()
		if seq != lastSent && info.Progress != nil {
			if err := send("progress", info.Progress); err != nil {
				return
			}
			lastSent = seq
		}
		if info.State == jobDone || info.State == jobFailed {
			send("done", info) //nolint:errcheck // terminal either way
			return
		}
		select {
		case <-wake:
		case <-heartbeat.C:
			if s.cfg.WriteTimeout > 0 {
				rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //nolint:errcheck // unsupported writer: no deadline
			}
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, s.eng.Stats(), s.draining.Load(), s.met, s.resumedJobs.Load(), s.orphansCleaned.Load())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
