package server

// Tests of the server's durable-job layer (DESIGN.md §13): the job file
// (its format, the 503 when it cannot be written, the boot scan over job
// directories and the refusal of an older build's jobs.wal), boot-time
// re-adoption of interrupted file jobs — both a queued job restarted from
// scratch and a mid-merge job resumed from its checkpoint manifest — the
// orphan scratch sweep, and the wire mapping of the deadline option. A "crash" here is durable state written by one
// engine/server and recovered by a fresh one over the same directories; the
// process-level SIGKILL version of the same contract lives in
// scripts/crash_resume_e2e.sh.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"colsort"
	"colsort/internal/optspell"
	"colsort/internal/wal"
)

// writeJobFile writes the job file a submit of req as job id leaves behind.
func writeJobFile(t *testing.T, data, id string, req jobRequest) {
	t.Helper()
	if err := wal.Rewrite(filepath.Join(data, serverStateDir, "ckpt", id, jobFileName), []jobRequest{req}); err != nil {
		t.Fatal(err)
	}
}

// TestBootScansJobDirectories boots a server over three job directories: one
// with a job file is re-adopted and runs to done; one without — a submit
// that died before its job file was durable — is removed; one whose input is
// gone finishes failed, and a second boot does not retry it. Fresh ids
// continue past the directories boot found.
func TestBootScansJobDirectories(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	ckpt := func(id string) string { return filepath.Join(data, serverStateDir, "ckpt", id) }
	if err := os.MkdirAll(ckpt("j000004"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckpt("j000004"), jobFileName+".tmp"), []byte(`{"input":"in`), 0o644); err != nil {
		t.Fatal(err)
	}
	input := makeInput(4096, 12)
	if err := os.WriteFile(filepath.Join(data, "in.dat"), input, 0o644); err != nil {
		t.Fatal(err)
	}
	writeJobFile(t, data, "j000002", jobRequest{Input: "in.dat", Output: "out.dat", Options: map[string]string{"order": "desc"}})
	writeJobFile(t, data, "j000005", jobRequest{Input: "gone.dat", Output: "gone.out"})

	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))}, Config{DataDir: data})
	waitJobState(t, env, "j000002", jobDone)
	got, err := os.ReadFile(filepath.Join(data, "out.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refSort(t, dir, input, colsort.WithKeySpec(colsort.KeySpec{Order: colsort.Descending}))) {
		t.Error("re-adopted job's output differs from the reference")
	}
	if failed := waitJobState(t, env, "j000005", jobFailed); !strings.Contains(failed.Error, "gone.dat") {
		t.Errorf("job with a missing input failed with %q, want the input named", failed.Error)
	}
	for _, id := range []string{"j000002", "j000004", "j000005"} {
		if _, err := os.Stat(ckpt(id)); !os.IsNotExist(err) {
			t.Errorf("directory %s survived boot and its job (stat err %v)", id, err)
		}
	}
	if line := scrapeMetric(t, env, "colsort_server_jobs_readopted_total"); line != "colsort_server_jobs_readopted_total 1" {
		t.Errorf("readopted metric: %q", line)
	}
	body, _ := json.Marshal(jobRequest{Input: "in.dat", Output: "out2.dat"})
	resp, err := env.ts.Client().Post(env.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info jobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if jobIDNum(info.ID) <= 5 {
		t.Errorf("fresh submission minted %s, inside the id space boot found", info.ID)
	}
	waitJobState(t, env, info.ID, jobDone)

	// A second boot finds nothing to re-adopt: the failure was not retried.
	eng, err := colsort.NewEngine(colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch2"))})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Config{DataDir: data})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	if n, jobs := srv.resumedJobs.Load(), srv.jobs.list(); n != 0 || len(jobs) != 0 {
		t.Errorf("second boot re-adopted %d jobs and lists %+v, want none", n, jobs)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	if n := jobIDNum("j000042"); n != 42 {
		t.Errorf("jobIDNum(j000042) = %d", n)
	}
	if n := jobIDNum("weird"); n != 0 {
		t.Errorf("jobIDNum(weird) = %d, want 0", n)
	}
}

// scrapeMetric fetches /metrics and returns the named sample's value line.
func scrapeMetric(t *testing.T, env *testEnv, name string) string {
	t.Helper()
	resp, err := env.ts.Client().Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	t.Fatalf("metric %s absent from /metrics", name)
	return ""
}

// TestBootReadoptsQueuedJob writes the durable state a crash leaves behind a
// job that never started — its job file and the input file — and boots a
// server over it: the job must run to completion under its ORIGINAL id, the
// output must match a reference sort with the persisted options, and fresh
// submissions must mint ids beyond the re-adopted one.
func TestBootReadoptsQueuedJob(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		t.Fatal(err)
	}
	input := makeInput(4096, 77)
	if err := os.WriteFile(filepath.Join(data, "in.dat"), input, 0o644); err != nil {
		t.Fatal(err)
	}
	writeJobFile(t, data, "j000007", jobRequest{Input: "in.dat", Output: "out.dat", Options: map[string]string{"order": "desc"}})

	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))},
		Config{DataDir: data})
	final := waitJobState(t, env, "j000007", jobDone)
	if final.Input != "in.dat" || final.Output != "out.dat" {
		t.Errorf("re-adopted job lost its paths: %+v", final)
	}
	want := refSort(t, dir, input, colsort.WithKeySpec(colsort.KeySpec{Order: colsort.Descending}))
	got, err := os.ReadFile(filepath.Join(data, "out.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("re-adopted job's output differs from the reference (persisted options not honored?)")
	}
	if line := scrapeMetric(t, env, "colsort_server_jobs_readopted_total"); line != "colsort_server_jobs_readopted_total 1" {
		t.Errorf("readopted metric: %q", line)
	}

	// The id sequence was seeded past the re-adopted id.
	body, _ := json.Marshal(jobRequest{Input: "in.dat", Output: "out2.dat"})
	resp, err := env.ts.Client().Post(env.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info jobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if jobIDNum(info.ID) <= 7 {
		t.Errorf("fresh submission minted %s, colliding with the re-adopted id space", info.ID)
	}
	waitJobState(t, env, info.ID, jobDone)
}

// TestBootResumesMidMergeJob is the strongest recovery claim over the wire:
// a checkpointed hierarchical job cancelled mid-merge (durable manifest, all
// runs spilled) is re-adopted at boot as the same checkpointed Sort, which
// continues from the manifest — finishing with the
// engine reporting adopted runs and the output byte-identical to the
// uninterrupted reference.
func TestBootResumesMidMergeJob(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	const id = "j000003"
	ckpt := filepath.Join(data, serverStateDir, "ckpt", id)
	if err := os.MkdirAll(data, 0o755); err != nil {
		t.Fatal(err)
	}

	// Interrupt a checkpointed sort mid-merge on a throwaway engine with the
	// SAME shape and options the server will boot with (a checkpoint is
	// continued only by the job that began it).
	eng1, err := colsort.NewEngine(colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch1"))})
	if err != nil {
		t.Fatal(err)
	}
	bound := eng1.MaxRecords(colsort.Threaded)
	n := 4 * bound
	input := makeInput(n, 99)
	if err := os.WriteFile(filepath.Join(data, "in.dat"), input, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	_, err = eng1.Sort(ctx, colsort.FromFile(filepath.Join(data, "in.dat")), colsort.Discard(),
		colsort.WithMergeFanIn(2), colsort.WithCheckpoint(ckpt),
		colsort.WithProgress(func(ev colsort.Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sort: err = %v, want context.Canceled", err)
	}
	eng1.Close()
	if ents, err := os.ReadDir(ckpt); len(ents) == 0 {
		t.Fatalf("no checkpoint survived the interruption (%v)", err)
	}

	writeJobFile(t, data, id, jobRequest{Input: "in.dat", Output: "out.dat", Options: map[string]string{"merge-fanin": "2"}})

	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch2"))},
		Config{DataDir: data})
	waitJobState(t, env, id, jobDone)

	want := refSort(t, dir, input)
	got, err := os.ReadFile(filepath.Join(data, "out.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed job's output differs from the uninterrupted reference")
	}
	st := env.eng.Stats()
	if st.JobsResumed != 1 || st.RunsResumed == 0 {
		t.Errorf("engine stats JobsResumed=%d RunsResumed=%d after a mid-merge re-adoption", st.JobsResumed, st.RunsResumed)
	}
	if line := scrapeMetric(t, env, "colsort_engine_runs_resumed_total"); line == "colsort_engine_runs_resumed_total 0" {
		t.Errorf("runs-resumed metric stayed zero: %q", line)
	}
	// Success removes the job's directory.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint directory survived the completed resume (stat err %v)", err)
	}
}

// TestDrainCancelledJobResumesAtBoot: a job a drain cancels is not over. Its
// directory — job file and checkpoint — stays, and the next boot re-adopts
// it under the same id and finishes it to the reference output. The first
// engine's disks are modeled slow enough that the job outlasts the drain.
func TestDrainCancelledJobResumesAtBoot(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		t.Fatal(err)
	}
	slow := testBase(filepath.Join(dir, "scratch1"))
	slow.DiskSeekMicros, slow.DiskMBps = 20000, 1
	eng, err := colsort.NewEngine(colsort.EngineConfig{Config: slow})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Config{DataDir: data})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	input := makeInput(3*eng.MaxRecords(colsort.Threaded), 21)
	if err := os.WriteFile(filepath.Join(data, "in.dat"), input, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"input":"in.dat","output":"out.dat"}`)))
	var info jobInfo
	if err := json.NewDecoder(rec.Body).Decode(&info); err != nil || rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d, err %v", rec.Code, err)
	}
	entry := srv.jobs.get(info.ID)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if snap, _ := entry.snapshot(); snap.Progress != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the job never started")
		}
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(expired); err != nil {
		t.Fatal(err)
	}
	if final, _ := entry.snapshot(); final.State != jobFailed || !strings.Contains(final.Error, "context canceled") {
		t.Fatalf("drained job ended %q (%q), want failed by cancellation", final.State, final.Error)
	}
	if _, err := os.Stat(filepath.Join(data, serverStateDir, "ckpt", info.ID, jobFileName)); err != nil {
		t.Fatalf("the drain-cancelled job lost its job file: %v", err)
	}

	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch2"))}, Config{DataDir: data})
	waitJobState(t, env, info.ID, jobDone)
	got, err := os.ReadFile(filepath.Join(data, "out.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refSort(t, dir, input)) {
		t.Error("the resumed job's output differs from the reference")
	}
}

// TestHugeMergeFanInFileJob: a fan-in whose product with the record size
// wraps is a legal wire value, so a file job carrying it passes the 202 and
// runs on a background goroutine with no recover. It must reach a terminal
// state — done, byte-identical to the reference — with the server still
// answering, not take the process down (and, re-adopted from its job
// directory, down again at every boot).
func TestHugeMergeFanInFileJob(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		t.Fatal(err)
	}
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))}, Config{DataDir: data})
	input := makeInput(3*env.eng.MaxRecords(colsort.Threaded), 5)
	if err := os.WriteFile(filepath.Join(data, "in.dat"), input, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := map[string]string{"merge-fanin": strconv.Itoa(1<<59 - 4), "max-memory-mib": "1"} // (2⁵⁹)·testZ wraps to 0
	body, _ := json.Marshal(jobRequest{Input: "in.dat", Output: "out.dat", Options: opts})
	resp, err := env.ts.Client().Post(env.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info jobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d, err %v", resp.StatusCode, err)
	}
	waitJobState(t, env, info.ID, jobDone)
	got, err := os.ReadFile(filepath.Join(data, "out.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refSort(t, dir, input)) {
		t.Error("huge fan-in job's output differs from the reference")
	}
	resp, err = env.ts.Client().Get(env.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the job: status %d", resp.StatusCode)
	}
}

// TestBootSweepsOrphanScratch drops dead-process scratch into the engine's
// scratch directory and boots a server over it: the job-namespaced files
// and the pooled file must be gone, anything else untouched, and the sweep
// counted on /metrics.
func TestBootSweepsOrphanScratch(t *testing.T) {
	dir := t.TempDir()
	scratch := filepath.Join(dir, "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	orphans := []string{"job00001-disk000-g00001.dat", "job00042-store.dat", "pool-g00007.dat"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(scratch, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"unrelated.txt", "pool-g00007.dat.bak"} {
		if err := os.WriteFile(filepath.Join(scratch, name), []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	env := newEnv(t, colsort.EngineConfig{Config: testBase(scratch)}, Config{})
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(scratch, name)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the boot sweep (stat err %v)", name, err)
		}
	}
	for _, name := range []string{"unrelated.txt", "pool-g00007.dat.bak"} {
		if _, err := os.Stat(filepath.Join(scratch, name)); err != nil {
			t.Errorf("sweep removed a file it does not own: %v", err)
		}
	}
	if line := scrapeMetric(t, env, "colsort_orphan_scratch_cleaned_total"); line != "colsort_orphan_scratch_cleaned_total 3" {
		t.Errorf("orphan sweep metric: %q", line)
	}
}

// TestDeadlineParam covers the wire spelling of WithDeadline (what a
// deadline may be is the library's rule: TestRuleBook), and a streaming sort whose 1 ms deadline must
// fail cleanly before any output byte leaves.
func TestDeadlineParam(t *testing.T) {
	if _, err := optspell.Parse(url.Values{"deadline-ms": {"soon"}}); err == nil {
		t.Error(`deadline-ms="soon" accepted`)
	}
	if opts, err := optspell.Parse(url.Values{"deadline-ms": {"30000"}}); err != nil || len(opts) != 1 {
		t.Errorf("deadline-ms=30000: opts=%d err=%v", len(opts), err)
	}

	dir := t.TempDir()
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))}, Config{})
	input := makeInput(1<<15, 5)
	resp, err := env.ts.Client().Post(env.ts.URL+"/v1/sort?deadline-ms=1",
		"application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("a 1 ms deadline sorted %d records successfully?", 1<<15)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("error body does not name the deadline: %s", body)
	}
	// The engine survives the deadline to serve the next request.
	resp2, err := env.ts.Client().Post(env.ts.URL+"/v1/sort",
		"application/octet-stream", bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("sort after a deadline failure: status %d", resp2.StatusCode)
	}
	got, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := refSort(t, dir, input); !bytes.Equal(got, want) {
		t.Error("sort after a deadline failure is not byte-identical to the reference")
	}
}

// TestJobFileFormatPin holds a job file exactly as the submit handler writes
// it: the bytes must decode to the same request, re-encode through the same
// write path to the same bytes, and boot into a re-adopted job that
// finishes with the persisted options honored.
func TestJobFileFormatPin(t *testing.T) {
	const pinned = `{"input":"a.dat","output":"a.out","options":{"deadline-ms":"30000","order":"desc"}}` + "\n"
	want := jobRequest{Input: "a.dat", Output: "a.out", Options: map[string]string{"deadline-ms": "30000", "order": "desc"}}
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	path := filepath.Join(data, serverStateDir, "ckpt", "j000001", jobFileName)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(pinned), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readJobFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pinned job file decodes to %+v, want %+v", got, want)
	}
	rewritten := filepath.Join(dir, "rewritten", jobFileName)
	if err := wal.Rewrite(rewritten, []jobRequest{got}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(rewritten); err != nil || string(b) != pinned {
		t.Errorf("re-encoded job file differs from the pinned bytes (err %v):\n got %s\nwant %s", err, b, pinned)
	}

	input := makeInput(4096, 3)
	if err := os.WriteFile(filepath.Join(data, "a.dat"), input, 0o644); err != nil {
		t.Fatal(err)
	}
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))}, Config{DataDir: data})
	waitJobState(t, env, "j000001", jobDone)
	out, err := os.ReadFile(filepath.Join(data, "a.out"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, refSort(t, dir, input, colsort.WithKeySpec(colsort.KeySpec{Order: colsort.Descending}))) {
		t.Error("the pinned job's output differs from the reference")
	}
}

// TestSubmitAnswers503WhenJobFileFails: a submission whose job file cannot
// be written is refused with 503 and Retry-After, naming the write, and never
// runs; its slot is released, so the same submission is accepted once the
// write can succeed. A regular file where ckpt/ belongs stops the write
// (permission bits would not stop root).
func TestSubmitAnswers503WhenJobFileFails(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	ckpt := filepath.Join(data, serverStateDir, "ckpt")
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatal(err)
	}
	input := makeInput(4096, 8)
	if err := os.WriteFile(filepath.Join(data, "in.dat"), input, 0o644); err != nil {
		t.Fatal(err)
	}
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))}, Config{DataDir: data, MaxJobs: 1})
	if err := os.WriteFile(ckpt, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	submit := func() *http.Response {
		t.Helper()
		resp, err := env.ts.Client().Post(env.ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"input":"in.dat","output":"out.dat"}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := submit()
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
		!strings.Contains(string(body), "job file") {
		t.Fatalf("submit over an unwritable ckpt/: status %d, Retry-After %q, body %s; want 503 naming the job file",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if jobs := env.srv.jobs.list(); len(jobs) != 0 {
		t.Errorf("a job that was never recorded is listed: %+v", jobs)
	}
	if _, err := os.Stat(filepath.Join(data, "out.dat")); !os.IsNotExist(err) {
		t.Errorf("a job that was never recorded wrote its output (stat err %v)", err)
	}

	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	resp = submit()
	var info jobInfo
	err := json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after the write can succeed: status %d, err %v (was the slot released?)", resp.StatusCode, err)
	}
	waitJobState(t, env, info.ID, jobDone)
}

// TestBootRefusesJobsWAL: an older build's jobs.wal is not read, and
// server.New refuses to start while one exists, naming the file and the last
// build that reads it, with every file left as it was.
func TestBootRefusesJobsWAL(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	old := filepath.Join(data, serverStateDir, "jobs.wal")
	orphan := filepath.Join(data, serverStateDir, "ckpt", "j000003")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte(`{"id":"j000003","state":"queued","input":"a.dat","output":"a.out"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := colsort.NewEngine(colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = New(eng, Config{DataDir: data})
	if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "83a821b") {
		t.Fatalf("New over a jobs.wal: err = %v, want a refusal naming %s and the last build that reads it", err, old)
	}
	for _, p := range []string{old, orphan} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("the refused boot touched %s: %v", p, err)
		}
	}
}
