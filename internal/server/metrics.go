package server

// The observability surface: a hand-rolled Prometheus text-format
// (version 0.0.4) encoder over the engine's Stats snapshot plus the
// server's own per-endpoint request/latency accounting. No client library
// — the exposition format is a few lines of printf, and keeping the
// encoder in-tree means the metric name catalogue (DESIGN.md §11) is the
// single source of truth. TestMetricsPrometheusFormat validates every
// emitted line against the format's grammar.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"colsort"
)

// metrics accumulates per-endpoint request counts (by status code) and
// latency sums. Endpoints are keyed by their route pattern — bounded
// cardinality by construction (no raw URLs).
type metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

type endpointMetrics struct {
	requests map[int]int64 // by HTTP status code
	durSum   float64       // seconds
	durCount int64
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointMetrics)}
}

func (m *metrics) observe(route string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.endpoints[route]
	if ep == nil {
		ep = &endpointMetrics{requests: make(map[int]int64)}
		m.endpoints[route] = ep
	}
	ep.requests[code]++
	ep.durSum += d.Seconds()
	ep.durCount++
}

// statusRecorder captures the status code a handler writes while keeping
// the Flusher path alive for the streaming and SSE endpoints.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

// Flush forwards to the wrapped writer so http.ResponseController (used by
// the streaming sink and the SSE push) finds a Flusher through the wrap.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request/latency accounting under the
// given route label.
func (m *metrics) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		// Observed from a deferred frame so that an aborted handler
		// (http.ErrAbortHandler on client disconnect mid-stream) still
		// counts; the panic keeps unwinding past it.
		defer func() {
			code := rec.code
			if code == 0 {
				code = http.StatusOK
			}
			m.observe(route, code, time.Since(start))
		}()
		h(rec, r)
	}
}

// writeMetrics renders the whole surface: engine gauges, cumulative sim
// and fault counters, the server's drain state and durability counters, and
// per-endpoint HTTP accounting. Metric names are the catalogue DESIGN.md
// §11 documents. readopted and orphansCleaned are the boot-recovery
// counters: file jobs restarted at startup from their directories' job.json,
// and orphan job-scoped and pooled scratch files swept.
func writeMetrics(w io.Writer, st colsort.EngineStats, draining bool, m *metrics, readopted, orphansCleaned int64) {
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatValue(v))
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, formatValue(v))
	}

	gauge("colsort_engine_active_jobs", "Jobs currently running on the engine.", float64(st.ActiveJobs))
	gauge("colsort_engine_queued_jobs", "Jobs waiting for admission against the memory budget.", float64(st.QueuedJobs))
	counter("colsort_engine_completed_jobs_total", "Jobs finished successfully over the engine's lifetime.", float64(st.CompletedJobs))
	counter("colsort_engine_failed_jobs_total", "Jobs finished with an error (cancellations included).", float64(st.FailedJobs))
	gauge("colsort_engine_leased_bytes", "Memory currently leased to admitted jobs.", float64(st.LeasedBytes))
	gauge("colsort_engine_peak_leased_bytes", "Lifetime high-water mark of leased memory.", float64(st.PeakLeasedBytes))
	gauge("colsort_engine_total_memory_bytes", "Engine-wide admission budget (0 = unlimited).", float64(st.TotalMemory))
	gauge("colsort_engine_pool_free_buffers", "Idle buffers held by the warm per-processor pools.", float64(st.PoolFreeBuffers))
	gauge("colsort_engine_pool_free_bytes", "Capacity of the idle pool buffers.", float64(st.PoolFreeBytes))

	c := st.Counters
	for _, mc := range []struct {
		name, help string
		v          int64
	}{
		{"colsort_sim_disk_read_bytes_total", "Bytes read from the simulated disks by completed jobs.", c.DiskReadBytes},
		{"colsort_sim_disk_write_bytes_total", "Bytes written to the simulated disks by completed jobs.", c.DiskWriteBytes},
		{"colsort_sim_disk_read_ops_total", "Contiguous disk segments read (approximately seeks).", c.DiskReadOps},
		{"colsort_sim_disk_write_ops_total", "Contiguous disk segments written (approximately seeks).", c.DiskWriteOps},
		{"colsort_sim_net_bytes_total", "Bytes sent across the simulated interconnect.", c.NetBytes},
		{"colsort_sim_net_msgs_total", "Messages sent across the simulated interconnect.", c.NetMsgs},
		{"colsort_sim_local_bytes_total", "Bytes of self-destined (local) messages.", c.LocalBytes},
		{"colsort_sim_local_msgs_total", "Self-destined (local) messages.", c.LocalMsgs},
		{"colsort_sim_compare_units_total", "Approximate comparison work of completed jobs.", c.CompareUnits},
		{"colsort_sim_moved_bytes_total", "Record bytes copied by sorts, permutes and message packing.", c.MovedBytes},
		{"colsort_sim_rounds_total", "Pipeline rounds participated in by completed jobs.", c.Rounds},
	} {
		counter(mc.name, mc.help, float64(mc.v))
	}

	for _, mc := range []struct {
		name, help string
		v          int64
	}{
		{"colsort_merge_runs_formed_total", "Sorted runs spilled by hierarchical jobs.", st.RunsFormed},
		{"colsort_merge_down_runs_formed_total", "Descending runs formed by replacement selection.", st.DownRunsFormed},
		{"colsort_merge_run_records_total", "Records that streamed through hierarchical run formation.", st.RunRecordsFormed},
		{"colsort_merge_levels_total", "Merge-tree levels executed by hierarchical jobs.", st.MergeLevelsRun},
	} {
		counter(mc.name, mc.help, float64(mc.v))
	}

	// Durability: checkpoint/resume work saved and recovered (DESIGN.md §13).
	counter("colsort_engine_jobs_resumed_total", "Jobs that adopted durable runs from a checkpoint manifest instead of re-sorting them.", float64(st.JobsResumed))
	counter("colsort_engine_runs_resumed_total", "Durable spilled runs adopted by resumed jobs without re-sorting.", float64(st.RunsResumed))
	counter("colsort_server_jobs_readopted_total", "Interrupted file jobs re-adopted from their job directories' job.json at startup.", float64(readopted))
	counter("colsort_orphan_scratch_cleaned_total", "Orphaned job-scoped and pooled scratch files removed by the startup sweep.", float64(orphansCleaned))

	f := st.Faults
	for _, mc := range []struct {
		name, help string
		v          int64
	}{
		{"colsort_faults_corrupt_chunks_total", "Spill-run chunks that failed CRC32C verification.", f.CorruptChunks},
		{"colsort_faults_chunk_rereads_total", "Corrupt chunks healed by an invalidate-and-reread.", f.ChunkRereads},
		{"colsort_faults_batch_redos_total", "Formed runs re-spilled onto a fresh disk.", f.BatchRedos},
	} {
		counter(mc.name, mc.help, float64(mc.v))
	}

	gauge("colsort_server_draining", "1 while the server is draining (no new jobs admitted).", b(draining))

	// Per-endpoint HTTP accounting, rendered in sorted label order so the
	// exposition is deterministic.
	m.mu.Lock()
	defer m.mu.Unlock()
	routes := make([]string, 0, len(m.endpoints))
	for r := range m.endpoints {
		routes = append(routes, r)
	}
	sort.Strings(routes)

	fmt.Fprintf(w, "# HELP colsort_http_requests_total Requests served, by route pattern and status code.\n# TYPE colsort_http_requests_total counter\n")
	for _, r := range routes {
		ep := m.endpoints[r]
		codes := make([]int, 0, len(ep.requests))
		for code := range ep.requests {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "colsort_http_requests_total{route=%q,code=\"%d\"} %d\n", r, code, ep.requests[code])
		}
	}
	fmt.Fprintf(w, "# HELP colsort_http_request_duration_seconds Request latency, by route pattern.\n# TYPE colsort_http_request_duration_seconds summary\n")
	for _, r := range routes {
		ep := m.endpoints[r]
		fmt.Fprintf(w, "colsort_http_request_duration_seconds_sum{route=%q} %s\n", r, formatValue(ep.durSum))
		fmt.Fprintf(w, "colsort_http_request_duration_seconds_count{route=%q} %d\n", r, ep.durCount)
	}
}

// formatValue renders a sample value the way Prometheus expects: integral
// values without an exponent, fractional ones in shortest round-trip form.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
