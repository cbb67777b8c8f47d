// Command colsort-server serves the colsort Engine over HTTP: sort over
// the wire. An upload to POST /v1/sort streams through the engine and the
// sorted records stream back in the same request — the v1 Source/Sink
// boundary applied to the network (request body = Source, response body =
// Sink), with no full-input buffering in the HTTP layer.
//
//	colsort-server -listen :8080 -p 4 -mem 16384 -z 64 -dir /tmp/colsort \
//	        -async -jobs 4 -total-memory-mib 256
//
//	# stream-sort a file over the wire (asc on bytes [16,24), descending)
//	curl --data-binary @input.dat -o sorted.dat \
//	  'http://localhost:8080/v1/sort?key-offset=16&key-width=8&order=desc'
//
// With -data DIR, POST /v1/jobs submits asynchronous sorts of files under
// DIR; GET /v1/jobs/{id} reports state and the result summary,
// GET /v1/jobs/{id}/progress pushes batch/pass/merge progress as
// Server-Sent Events, and DELETE /v1/jobs/{id} cancels. GET /metrics
// exposes the engine's stats and the fault/sim counters in Prometheus text
// format; GET /healthz is the load-balancer check.
//
// -jobs bounds the wire jobs in flight (excess submissions get HTTP 429
// with Retry-After); -total-memory-mib is the engine's admission budget —
// jobs admitted by the server but over the remaining budget queue FIFO
// inside the engine, exactly as library callers do.
//
// SIGTERM/SIGINT drain: /healthz flips to 503, new submissions are
// refused, in-flight sorts finish (bounded by -drain-timeout, then
// cancelled), the engine closes, and the listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"colsort"
	"colsort/internal/server"
)

func main() {
	listen := flag.String("listen", ":8080", "address to serve HTTP on")
	p := flag.Int("p", 4, "processors (power of 2)")
	d := flag.Int("d", 0, "disks (default P)")
	mem := flag.Int("mem", 1<<14, "records of column buffer per processor")
	z := flag.Int("z", 64, "record size in bytes")
	dir := flag.String("dir", "", "back disks with files under this directory (default: in memory)")
	async := flag.Bool("async", false, "asynchronous disk layer: prefetch read-ahead + write-behind")
	diskSeekUS := flag.Int("disk-seek-us", 0, "model: microseconds per discontiguous disk access (0: off)")
	diskMBps := flag.Int("disk-mbps", 0, "model: sustained disk bandwidth in MiB/s (0: off)")
	jobs := flag.Int("jobs", 4, "wire jobs in flight at once; excess submissions get HTTP 429 (0: unbounded)")
	totalMemMiB := flag.Int64("total-memory-mib", 0, "engine-wide record-buffer budget in MiB; admitted jobs over the remaining budget queue FIFO (0: unlimited)")
	dataDir := flag.String("data", "", "root directory for server-side file jobs via POST /v1/jobs (empty: endpoint disabled)")
	retainJobs := flag.Int("retain-jobs", 0, "finished jobs kept for GET /v1/jobs/{id} (0: default 256)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for in-flight jobs before cancelling them")
	writeTimeout := flag.Duration("write-timeout", time.Minute, "per-write deadline on streaming responses and SSE pushes (0: none)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout (0: none)")
	flag.Parse()
	// A count of MiB whose byte count overflows int64 is a bad flag value, not
	// a wrapped (and silently accepted) budget.
	if limit := int64(math.MaxInt64 >> 20); *totalMemMiB > limit || *totalMemMiB < -limit {
		fmt.Fprintf(os.Stderr, "invalid value %d for flag -total-memory-mib: want an integer in [-%d, %d]\n", *totalMemMiB, limit, limit)
		os.Exit(2)
	}

	eng, err := colsort.NewEngine(colsort.EngineConfig{
		Config: colsort.Config{
			Procs: *p, Disks: *d, MemPerProc: *mem, RecordSize: *z, Dir: *dir,
			Async: *async, DiskSeekMicros: *diskSeekUS, DiskMBps: *diskMBps,
		},
		TotalMemory: *totalMemMiB << 20,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	srv, err := server.New(eng, server.Config{
		MaxJobs:      *jobs,
		DataDir:      *dataDir,
		RetainJobs:   *retainJobs,
		WriteTimeout: *writeTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		eng.Close()
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "colsort-server: serving on %s (p=%d mem=%d z=%d, %d wire jobs)\n",
			*listen, *p, *mem, *z, *jobs)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		// The listener failed outright (bad address, port in use).
		fmt.Fprintln(os.Stderr, err)
		eng.Close()
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain: stop admitting first (healthz 503 pulls us out of rotation),
	// then let the in-flight streaming handlers finish under the deadline,
	// then the background file jobs and the engine itself.
	fmt.Fprintln(os.Stderr, "colsort-server: draining...")
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "colsort-server: shutdown:", err)
	}
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "colsort-server: drain:", err)
	}
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "colsort-server: drained; served %d jobs (%d failed), peak lease %d MiB\n",
		st.CompletedJobs, st.FailedJobs, st.PeakLeasedBytes>>20)
}
