package server

// TestMetricsPrometheusFormat validates the whole /metrics exposition —
// after real traffic — against the Prometheus text format (version 0.0.4)
// grammar: every non-comment line must be a well-formed sample, every
// sample's family must be TYPEd (and HELPed) before its first sample, and
// the catalogue DESIGN.md §11 documents must actually be present.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"colsort"
)

var (
	helpRe = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) \S.*$`)
	typeRe = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
	// metric_name{label="value",...} value — label values in the catalogue
	// contain no quotes or backslashes, so the simple quoted form suffices.
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|NaN|[+-]Inf)$`)
)

func TestMetricsPrometheusFormat(t *testing.T) {
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(t.TempDir(), "scratch"))}, Config{})

	// Generate traffic first so the per-endpoint series exist: one
	// successful sort and one rejected request.
	input := makeInput(500, 3)
	resp, err := env.ts.Client().Post(env.ts.URL+"/v1/sort", "application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic sort: status %d", resp.StatusCode)
	}
	bad, err := env.ts.Client().Post(env.ts.URL+"/v1/sort?colour=red", "application/octet-stream",
		bytes.NewReader(make([]byte, testZ)))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close() //nolint:errcheck

	scrape, err := env.ts.Client().Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer scrape.Body.Close()
	if ct := scrape.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type %q, want the version 0.0.4 text format", ct)
	}
	body, err := io.ReadAll(scrape.Body)
	if err != nil {
		t.Fatal(err)
	}

	typed := map[string]string{} // family -> counter/gauge/summary
	helped := map[string]bool{}
	samples := map[string]bool{} // full sample line prefix (name + labels)
	for i, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		where := fmt.Sprintf("line %d: %q", i+1, line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			m := helpRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("%s: malformed HELP", where)
			}
			helped[m[1]] = true
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("%s: malformed TYPE", where)
			}
			if _, dup := typed[m[1]]; dup {
				t.Errorf("%s: duplicate TYPE for %s", where, m[1])
			}
			typed[m[1]] = m[2]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("%s: comment that is neither HELP nor TYPE", where)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("%s: not a well-formed sample", where)
			}
			family := m[1]
			// Summaries sample through their _sum/_count series.
			if base, ok := strings.CutSuffix(family, "_sum"); ok && typed[base] == "summary" {
				family = base
			} else if base, ok := strings.CutSuffix(family, "_count"); ok && typed[base] == "summary" {
				family = base
			}
			if typed[family] == "" {
				t.Errorf("%s: sample of %s precedes its TYPE", where, family)
			}
			if !helped[family] {
				t.Errorf("%s: sample of %s has no HELP", where, family)
			}
			if ty := typed[family]; ty == "counter" && strings.HasPrefix(m[4], "-") {
				t.Errorf("%s: negative counter", where)
			}
			samples[m[1]+m[2]] = true
		}
	}

	// The documented catalogue must be present in full.
	for _, name := range []string{
		"colsort_engine_active_jobs",
		"colsort_engine_queued_jobs",
		"colsort_engine_completed_jobs_total",
		"colsort_engine_failed_jobs_total",
		"colsort_engine_leased_bytes",
		"colsort_engine_peak_leased_bytes",
		"colsort_engine_total_memory_bytes",
		"colsort_engine_pool_free_buffers",
		"colsort_engine_pool_free_bytes",
		"colsort_sim_disk_read_bytes_total",
		"colsort_sim_disk_write_bytes_total",
		"colsort_sim_net_bytes_total",
		"colsort_sim_compare_units_total",
		"colsort_sim_moved_bytes_total",
		"colsort_faults_chunk_rereads_total",
		"colsort_faults_corrupt_chunks_total",
		"colsort_faults_batch_redos_total",
		"colsort_server_draining",
	} {
		if !samples[name] {
			t.Errorf("catalogue metric %s missing from the exposition", name)
		}
	}
	// Per-endpoint accounting saw both the 200 and the 400.
	for _, want := range []string{
		`colsort_http_requests_total{route="POST /v1/sort",code="200"}`,
		`colsort_http_requests_total{route="POST /v1/sort",code="400"}`,
		`colsort_http_request_duration_seconds_sum{route="POST /v1/sort"}`,
		`colsort_http_request_duration_seconds_count{route="POST /v1/sort"}`,
	} {
		if !samples[want] {
			t.Errorf("expected series %s missing (have %d series)", want, len(samples))
		}
	}
	// The completed sort is visible in the engine gauges.
	if !strings.Contains(string(body), "colsort_engine_completed_jobs_total 1") {
		t.Error("completed_jobs_total does not reflect the sorted job")
	}
}
