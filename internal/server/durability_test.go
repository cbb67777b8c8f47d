package server

// Tests of the server's durable-job layer (DESIGN.md §13): the jobs WAL's
// replay and compaction, boot-time re-adoption of interrupted file jobs —
// both a queued job restarted from scratch and a mid-merge job resumed from
// its checkpoint manifest — the orphan scratch sweep, and the wire mapping
// of the deadline option. A "crash" here is durable state written by one
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
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"colsort"
	"colsort/internal/optspell"
	"colsort/internal/wal"
)

func TestJobsWALReplayAndCompaction(t *testing.T) {
	data := t.TempDir()
	jw, err := wal.Open(jobsWALPath(data))
	if err != nil {
		t.Fatal(err)
	}
	recs := []walRecord{
		{ID: "j000001", State: jobQueued, Input: "a.dat", Output: "a.out", Options: map[string]string{"order": "desc"}},
		{ID: "j000001", State: jobRunning},
		{ID: "j000002", State: jobQueued, Input: "b.dat", Output: "b.out"},
		{ID: "j000001", State: jobDone},
		{ID: "j000003", State: jobQueued, Input: "c.dat", Output: "c.out"},
		{ID: "j000003", State: jobRunning},
		{ID: "j000003", State: jobFailed, Error: "boom"},
	}
	for _, r := range recs {
		if err := jw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	jw.Close()
	path := filepath.Join(data, serverStateDir, jobsWALName)

	// A torn final line — the crash hit mid-append — must be ignored.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"j000004","state":"que`)
	f.Close()

	got, err := foldJobsWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("replay returned %d jobs, want 3: %+v", len(got), got)
	}
	// First-seen order, last state, queued record's restart parameters kept.
	if got[0].ID != "j000001" || got[0].State != jobDone || got[0].Input != "a.dat" || got[0].Options["order"] != "desc" {
		t.Errorf("job 1 folded wrong: %+v", got[0])
	}
	if got[1].ID != "j000002" || got[1].State != jobQueued {
		t.Errorf("job 2 folded wrong: %+v", got[1])
	}
	if got[2].ID != "j000003" || got[2].State != jobFailed || got[2].Error != "boom" {
		t.Errorf("job 3 folded wrong: %+v", got[2])
	}

	// Compaction keeps exactly the pending set.
	if err := wal.Rewrite(path, []walRecord{got[1]}); err != nil {
		t.Fatal(err)
	}
	after, err := foldJobsWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0].ID != "j000002" || after[0].Input != "b.dat" {
		t.Fatalf("compacted WAL replays %+v, want only j000002", after)
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
// job that never started — a WAL queued record and the input file — and
// boots a server over it: the job must run to completion under its ORIGINAL
// id, the output must match a reference sort with the persisted options, and
// fresh submissions must mint ids beyond the re-adopted one. The record
// carries options older binaries persisted — "run-formation", "fabric",
// "chaos=off" and chaos-* keys — which no request may carry any more: they
// must not fail the re-adoption.
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
	jw, err := wal.Open(jobsWALPath(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Append(walRecord{ID: "j000007", State: jobQueued,
		Input: "in.dat", Output: "out.dat",
		Options: map[string]string{"order": "desc", "run-formation": "fixed-batch", "fabric": "copying", "chaos": "off",
			"chaos-seed": "7", "chaos-p-transient": "0.01", "chaos-dead-after-kib": "4"}}); err != nil {
		t.Fatal(err)
	}
	jw.Close()

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

	// The id sequence was seeded past the WAL's ids.
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

	jw, err := wal.Open(jobsWALPath(data))
	if err != nil {
		t.Fatal(err)
	}
	jw.Append(walRecord{ID: id, State: jobQueued, Input: "in.dat", Output: "out.dat",
		Options: map[string]string{"merge-fanin": "2"}})
	jw.Append(walRecord{ID: id, State: jobRunning})
	jw.Close()

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
	// Success retires the checkpoint directory.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint directory survived the completed resume (stat err %v)", err)
	}
}

// TestHugeMergeFanInFileJob: a fan-in whose product with the record size
// wraps is a legal wire value, so a file job carrying it passes the 202 and
// runs on a background goroutine with no recover. It must reach a terminal
// state — done, byte-identical to the reference — with the server still
// answering, not take the process down (and, re-adopted from the jobs WAL,
// down again at every boot).
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

// TestJobsWALFormatPin holds one jobs.wal line of every state exactly as
// the commit before internal/wal existed wrote them: a job log left by any
// earlier build must be re-adopted by this one, so each line has to decode
// to the same record and re-encode — through both write paths, Append and
// the compaction Rewrite — to the same bytes.
func TestJobsWALFormatPin(t *testing.T) {
	lines := []string{
		`{"id":"j000001","state":"queued","input":"a.dat","output":"a.out","options":{"deadline":"30s","order":"desc"}}`,
		`{"id":"j000001","state":"running"}`,
		`{"id":"j000001","state":"done"}`,
		`{"id":"j000002","state":"queued","input":"b.dat","output":"b.out"}`,
		`{"id":"j000002","state":"failed","error":"boom"}`,
	}
	pinned := strings.Join(lines, "\n") + "\n"
	path := jobsWALPath(t.TempDir())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(pinned), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := foldJobsWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []walRecord{
		{ID: "j000001", State: jobDone, Input: "a.dat", Output: "a.out", Options: map[string]string{"deadline": "30s", "order": "desc"}},
		{ID: "j000002", State: jobFailed, Input: "b.dat", Output: "b.out", Error: "boom"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pinned log folds to %+v, want %+v", got, want)
	}

	var recs []walRecord
	for i, line := range lines {
		var rec walRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		recs = append(recs, rec)
	}
	appended, rewritten := jobsWALPath(t.TempDir()), jobsWALPath(t.TempDir())
	jw, err := wal.Open(appended)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := jw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jw.Close()
	if err := wal.Rewrite(rewritten, recs); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{appended, rewritten} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != pinned {
			t.Errorf("re-encoded jobs.wal differs from the pinned bytes:\n got %s\nwant %s", b, pinned)
		}
	}
}
