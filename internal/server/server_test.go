package server

// Loopback end-to-end tests of the wire front-end: every test boots a real
// HTTP server (httptest) over a real Engine and talks to it with a real
// client, so the streaming, disconnect and drain behavior under test is the
// net/http behavior production sees — not a ResponseRecorder approximation.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"colsort"
	"colsort/internal/faultinject"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// Small enough to keep the suite fast, small enough that 3× the columnsort
// bound (the hierarchical path) is still only a few MiB over the wire.
const testZ = 32

func testBase(scratch string) colsort.Config {
	return colsort.Config{Procs: 2, MemPerProc: 256, RecordSize: testZ, Async: true, Dir: scratch}
}

type testEnv struct {
	srv     *Server
	ts      *httptest.Server
	eng     *colsort.Engine
	scratch string
}

// newEnv boots an engine and a loopback HTTP server over it, tearing both
// down (listener first, then a full drain) when the test finishes.
func newEnv(t *testing.T, ecfg colsort.EngineConfig, scfg Config) *testEnv {
	t.Helper()
	eng, err := colsort.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close() // waits for in-flight handlers, closes idle client conns
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return &testEnv{srv: srv, ts: ts, eng: eng, scratch: ecfg.Dir}
}

// makeInput builds n seeded records of testZ bytes.
func makeInput(n int64, seed uint64) []byte {
	raw := record.Make(int(n), testZ)
	record.Fill(raw, record.Uniform{Seed: seed}, 0)
	return raw.Data
}

// refSort sorts input on a private local Sorter — the reference the wire
// path must match byte for byte.
func refSort(t *testing.T, dir string, input []byte, opts ...colsort.Option) []byte {
	t.Helper()
	cfg := testBase(filepath.Join(dir, "ref-scratch"))
	s, err := colsort.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res, err := s.Sort(context.Background(),
		colsort.FromReader(bytes.NewReader(input), int64(len(input)/testZ)),
		colsort.ToWriter(&out), opts...)
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	return out.Bytes()
}

// getJob fetches one job's state over the wire.
func getJob(t *testing.T, env *testEnv, id string) jobInfo {
	t.Helper()
	resp, err := env.ts.Client().Get(env.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d", id, resp.StatusCode)
	}
	var info jobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// waitJobState polls until the job reaches the wanted state (failing fast
// if it lands on a different terminal state).
func waitJobState(t *testing.T, env *testEnv, id, want string) jobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := getJob(t, env, id)
		if info.State == want {
			return info
		}
		if info.State == jobDone || info.State == jobFailed {
			t.Fatalf("job %s reached %q (error %q), want %q", id, info.State, info.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, info.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamSortRoundTrip is the tentpole acceptance test: POST /v1/sort
// streams the body through the engine and back, byte-identical to a local
// reference sort — below the bound (single columnsort) and 3× above it
// (the hierarchical spill-and-merge path), ascending and descending.
func TestStreamSortRoundTrip(t *testing.T) {
	dir := t.TempDir()
	scratch := filepath.Join(dir, "scratch")
	env := newEnv(t, colsort.EngineConfig{Config: testBase(scratch)}, Config{})
	bound := env.eng.MaxRecords(colsort.Threaded)

	descKey := colsort.KeySpec{Offset: 8, Width: 8, Order: colsort.Descending}
	cases := []struct {
		name  string
		n     int64
		query string
		opts  []colsort.Option
		hier  bool
	}{
		{"below-bound asc", 1000, "", nil, false},
		{"below-bound desc", 1000, "?key-offset=8&key-width=8&order=desc", []colsort.Option{colsort.WithKeySpec(descKey)}, false},
		{"above-bound asc", 3 * bound, "", nil, true},
		{"above-bound desc", 3 * bound, "?key-offset=8&key-width=8&order=desc", []colsort.Option{colsort.WithKeySpec(descKey)}, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			input := makeInput(tc.n, uint64(200+i))
			want := refSort(t, filepath.Join(dir, fmt.Sprintf("ref%d", i)), input, tc.opts...)

			resp, err := env.ts.Client().Post(env.ts.URL+"/v1/sort"+tc.query,
				"application/octet-stream", bytes.NewReader(input))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if got := resp.ContentLength; got != tc.n*testZ {
				t.Errorf("Content-Length %d, want %d", got, tc.n*testZ)
			}
			jobID := resp.Header.Get("X-Colsort-Job")
			if jobID == "" {
				t.Error("no X-Colsort-Job header")
			}
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("wire output differs from local reference (%d vs %d bytes)", len(got), len(want))
			}

			// The registry's view: done, with a result summary whose shape
			// matches the path taken.
			info := getJob(t, env, jobID)
			if info.State != jobDone || !info.Streaming || info.Result == nil {
				t.Fatalf("job after success: %+v", info)
			}
			if info.Result.Records != tc.n {
				t.Errorf("summary records %d, want %d", info.Result.Records, tc.n)
			}
			if hier := info.Result.Merge != nil; hier != tc.hier {
				t.Errorf("hierarchical=%v, want %v (merge stats %+v)", hier, tc.hier, info.Result.Merge)
			}
		})
	}
}

// TestStreamSortLateFailureTruncates: below the bound, seeded bit flips on
// the store's reads make sorts fail in the drain, most of them only at the
// end-of-stream multiset comparison — after every other record has been
// sent. The client must never read a complete body from a failed sort: a
// 200 whose body reads to its Content-Length is the reference output, and
// a failed job's body ends short, with a read error.
func TestStreamSortLateFailureTruncates(t *testing.T) {
	dir := t.TempDir()
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))}, Config{})
	n := env.eng.MaxRecords(colsort.Threaded)
	input := makeInput(n, 9)
	want := refSort(t, filepath.Join(dir, "ref"), input)
	// The server's handler under the fault model: each request's Sort runs
	// under bit flips seeded by the loop's current seed.
	var seed atomic.Uint64
	h := env.srv.Handler()
	chaos := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inj := faultinject.Injector(faultinject.ChaosConfig{Seed: seed.Load(), PBitFlip: 0.2})
		h.ServeHTTP(w, r.WithContext(pdm.WithInjector(r.Context(), inj)))
	}))
	t.Cleanup(chaos.Close)
	late := 0
	for s := uint64(1); s <= 8; s++ {
		seed.Store(s)
		resp, err := chaos.Client().Post(chaos.URL+"/v1/sort", "application/octet-stream", bytes.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusOK {
			continue // refused before the first byte
		}
		// The handler records a success once the last record is sent.
		info := getJob(t, env, resp.Header.Get("X-Colsort-Job"))
		for info.State != jobDone && info.State != jobFailed {
			time.Sleep(time.Millisecond)
			info = getJob(t, env, info.ID)
		}
		switch {
		case info.State == jobDone:
			if rerr != nil || !bytes.Equal(body, want) {
				t.Errorf("seed %d: a successful sort's body (%d bytes, read err %v) differs from the reference", s, len(body), rerr)
			}
		case rerr == nil || int64(len(body)) >= n*testZ:
			t.Errorf("seed %d: the failed sort (%s) sent a complete %d-byte body", s, info.Error, len(body))
		case strings.Contains(info.Error, "multiset"):
			late++
		}
	}
	if late == 0 {
		t.Fatal("no seed failed at the end-of-stream multiset comparison; the late case went untested")
	}
}

// TestStreamSortRejections covers the strict request validation of the
// streaming endpoint: every bad request is refused with 400 and a JSON
// error before a single record enters the engine.
func TestStreamSortRejections(t *testing.T) {
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(t.TempDir(), "scratch"))}, Config{})

	post := func(query string, body io.Reader) *http.Response {
		t.Helper()
		resp, err := env.ts.Client().Post(env.ts.URL+"/v1/sort"+query, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := []struct {
		name    string
		query   string
		body    io.Reader
		wantMsg string
	}{
		{"length not a record multiple", "", bytes.NewReader(make([]byte, testZ+1)), "not a positive multiple"},
		{"empty body", "", bytes.NewReader(nil), "not a positive multiple"},
		{"records disagrees with length", "?records=3", bytes.NewReader(make([]byte, testZ)), "disagrees with Content-Length"},
		{"records not positive", "?records=0", bytes.NewReader(make([]byte, testZ)), "not a positive integer"},
		// (2⁵⁹+1)·32 wraps to 32 in int64: a one-record body must not pass
		// for 2⁵⁹+1 records.
		{"records overflows the byte count", "?records=576460752303423489", bytes.NewReader(make([]byte, testZ)), "records=576460752303423489 overflows"},
		{"unknown option", "?colour=red", bytes.NewReader(make([]byte, testZ)), "unknown option"},
		{"conflicting options", "?alg=threaded&group=2", bytes.NewReader(make([]byte, testZ)), `option "group" only applies to alg=hybrid`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(tc.query, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e apiError
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, tc.wantMsg) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantMsg)
			}
		})
	}

	// A chunked upload (unknown length) must name the ?records= escape hatch.
	pr, pw := io.Pipe()
	pw.Close() //nolint:errcheck // empty chunked body
	resp := post("", pr)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("chunked without records: status %d, want 400", resp.StatusCode)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "records=N") {
		t.Errorf("chunked error %q does not point at ?records=N", e.Error)
	}
}

// TestBaselineRefusedOnTheWire: the wire spells the baselines, and Sort
// refuses one with a Sink — a baseline moves records without sorting them.
// POST /v1/sort answers 400 with that sentence before asking for the body
// (Expect: 100-continue); a POST /v1/jobs file job is accepted, then fails
// with the same sentence without admission or an output file.
func TestBaselineRefusedOnTheWire(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))}, Config{DataDir: data})
	const want = "colsort: WithAlgorithm(baseline-io-3pass) with a Sink: a baseline moves records without sorting them"

	client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: time.Minute}}
	defer client.CloseIdleConnections()
	req, err := http.NewRequest("POST", env.ts.URL+"/v1/sort?records=1024&alg=baseline-io-3pass", unsent{t})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Expect", "100-continue")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(e.Error, want) {
		t.Errorf("POST /v1/sort?alg=baseline-io-3pass: %d %q, want 400 %q", resp.StatusCode, e.Error, want)
	}

	if err := os.MkdirAll(data, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(data, "in.dat"), makeInput(1024, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(jobRequest{Input: "in.dat", Output: "out.dat", Options: map[string]string{"alg": "baseline-io-3pass"}})
	resp, err = env.ts.Client().Post(env.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info jobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d, want 202", resp.StatusCode)
	}
	if final := waitJobState(t, env, info.ID, jobFailed); !strings.HasPrefix(final.Error, want) {
		t.Errorf("job failed with %q, want %q", final.Error, want)
	}
	if _, err := os.Stat(filepath.Join(data, "out.dat")); !os.IsNotExist(err) {
		t.Errorf("the refused job left an output file (stat err %v)", err)
	}
	if st := env.eng.Stats(); st.PeakLeasedBytes != 0 {
		t.Errorf("a refused baseline was admitted: %+v", st)
	}
}

// unsent is a request body the client must never be asked to send: the
// refusal has to come first.
type unsent struct{ t *testing.T }

func (b unsent) Read([]byte) (int, error) {
	b.t.Error("the endpoint asked for the body of a refused job")
	return 0, io.EOF
}

// TestClientDisconnectCancelsSort is the leak acceptance test: a client
// that aborts its upload mid-stream must cancel the job promptly, and the
// server must release everything — goroutines AND the scratch files the
// hierarchical path had already spilled. CheckLeaks is registered before
// the engine exists, so the post-drain world must look exactly like the
// pre-test world.
func TestClientDisconnectCancelsSort(t *testing.T) {
	dir := t.TempDir()
	scratch := filepath.Join(dir, "scratch")
	testutil.CheckLeaks(t, scratch)
	env := newEnv(t, colsort.EngineConfig{Config: testBase(scratch)}, Config{})
	bound := env.eng.MaxRecords(colsort.Threaded)

	cases := []struct {
		name string
		n    int64
		// A below-bound sort ingests its whole input before the first
		// progress event, so a half-parked upload never leaves "queued";
		// the hierarchical path has finished (and spilled) batch 1 by the
		// half-way mark, so there we insist on observing "running".
		waitState string
	}{
		{"below-bound", 1000, jobQueued},
		// 3× the bound with ~half uploaded: batch 1 has been sorted and
		// spilled to scratch when the client vanishes.
		{"above-bound", 3 * bound, jobRunning},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			input := makeInput(tc.n, uint64(300+i))
			half := (tc.n / 2) * testZ

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pr, pw := io.Pipe()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				env.ts.URL+fmt.Sprintf("/v1/sort?records=%d", tc.n), pr)
			if err != nil {
				t.Fatal(err)
			}

			errCh := make(chan error, 1)
			go func() {
				resp, err := env.ts.Client().Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()              //nolint:errcheck
					err = fmt.Errorf("request unexpectedly succeeded with status %d", resp.StatusCode)
				}
				errCh <- err
			}()
			if _, err := pw.Write(input[:half]); err != nil {
				t.Fatal(err)
			}

			// Wait until the job is as far along as a parked upload lets it
			// get, so the abort lands mid-sort, not pre-registration.
			var id string
			deadline := time.Now().Add(30 * time.Second)
			for id == "" {
				for _, info := range env.srv.jobs.list() {
					if info.Streaming && (info.State == tc.waitState || info.State == jobRunning) {
						id = info.ID
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("job never reached %q", tc.waitState)
				}
				time.Sleep(2 * time.Millisecond)
			}

			// Abort the HTTP request mid-stream. The pipe must fail, not end: a
			// clean EOF would let the transport finish the chunked upload, and
			// the server could answer the short body (400) before the transport
			// saw the cancel.
			cancel()
			pw.CloseWithError(context.Canceled) //nolint:errcheck // unblock any writer-side copy

			select {
			case err := <-errCh:
				if err == nil || !strings.Contains(err.Error(), "context canceled") {
					t.Fatalf("client error %v, want context canceled", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("aborted request did not return within the deadline")
			}
			entry := env.srv.jobs.get(id)
			timeout := time.After(30 * time.Second)
			for {
				wake := entry.wait()
				if info, _ := entry.snapshot(); info.Finished != nil {
					break
				}
				select {
				case <-wake:
				case <-timeout:
					t.Fatal("job did not reach a terminal state after the disconnect")
				}
			}
			if info, _ := entry.snapshot(); info.State != jobFailed {
				t.Fatalf("job state %q after disconnect, want failed", info.State)
			}
		})
	}
	// The deferred drain + CheckLeaks now assert no goroutine and no
	// scratch file survived either abort.
}

// TestStreamSortBusy pins the saturation contract: with -jobs 1 and one
// upload parked mid-stream, the next submission is refused with 429 and a
// Retry-After header, and the parked job still completes correctly.
func TestStreamSortBusy(t *testing.T) {
	dir := t.TempDir()
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))}, Config{MaxJobs: 1})

	const n = int64(1000)
	input := makeInput(n, 42)
	want := refSort(t, dir, input)

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, env.ts.URL+fmt.Sprintf("/v1/sort?records=%d", n), pr)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		body []byte
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := env.ts.Client().Do(req)
		if err != nil {
			resCh <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			resCh <- result{nil, fmt.Errorf("status %d", resp.StatusCode)}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resCh <- result{body, err}
	}()

	// Park the upload mid-stream: the slot is held once the handler passed
	// validation, which we observe through the semaphore itself.
	if _, err := pw.Write(input[:n/2*testZ]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(env.srv.slots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first upload never took the jobs slot")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := env.ts.Client().Post(env.ts.URL+"/v1/sort", "application/octet-stream",
		bytes.NewReader(makeInput(10, 7)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submission: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}

	// Release the parked upload and verify it was unharmed by the refusal.
	if _, err := pw.Write(input[n/2*testZ:]); err != nil {
		t.Fatal(err)
	}
	pw.Close() //nolint:errcheck
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !bytes.Equal(res.body, want) {
		t.Fatal("parked upload's output differs from the reference")
	}
}

// TestFileJobLifecycle walks the asynchronous job API end to end: submit a
// server-side file sort, watch it through the states, and verify the output
// file matches the local reference; then the rejection surface.
func TestFileJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		t.Fatal(err)
	}
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))},
		Config{DataDir: data})
	bound := env.eng.MaxRecords(colsort.Threaded)

	n := 3 * bound // hierarchical, so progress has both sort and merge phases
	input := makeInput(n, 77)
	if err := os.WriteFile(filepath.Join(data, "in.dat"), input, 0o644); err != nil {
		t.Fatal(err)
	}
	descKey := colsort.KeySpec{Offset: 8, Width: 8, Order: colsort.Descending}
	want := refSort(t, dir, input, colsort.WithKeySpec(descKey))

	submit := func(body string) *http.Response {
		t.Helper()
		resp, err := env.ts.Client().Post(env.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := submit(`{"input":"in.dat","output":"out.dat","options":{"key-offset":"8","key-width":"8","order":"desc"}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var info jobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Input != "in.dat" || info.Output != "out.dat" {
		t.Fatalf("submitted job: %+v", info)
	}

	final := waitJobState(t, env, info.ID, jobDone)
	if final.Result == nil || final.Result.Records != n || final.Result.Merge == nil {
		t.Fatalf("final result summary: %+v", final.Result)
	}
	got, err := os.ReadFile(filepath.Join(data, "out.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("file job output differs from local reference")
	}

	// The listing includes the job.
	listResp, err := env.ts.Client().Get(env.ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list []jobInfo
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, li := range list {
		found = found || li.ID == info.ID
	}
	if !found {
		t.Errorf("GET /v1/jobs does not list %s", info.ID)
	}

	// Rejection surface: traversal, absolute paths, missing inputs, bad
	// options, unknown ids.
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"traversal", `{"input":"../in.dat","output":"out.dat"}`, http.StatusBadRequest},
		{"absolute", `{"input":"/etc/passwd","output":"out.dat"}`, http.StatusBadRequest},
		{"missing input", `{"input":"nope.dat","output":"out.dat"}`, http.StatusBadRequest},
		{"empty output", `{"input":"in.dat","output":""}`, http.StatusBadRequest},
		{"bad option", `{"input":"in.dat","output":"o.dat","options":{"alg":"quicksort"}}`, http.StatusBadRequest},
		{"unknown field", `{"input":"in.dat","output":"o.dat","priority":9}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := submit(tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	for _, path := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/progress"} {
		resp, err := env.ts.Client().Get(env.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestFileJobCancelledMidMergeLeavesNoOutput: a file job cancelled through
// DELETE while its final merge streams into the output publishes nothing —
// ToFile removes its partial file itself, so no out file and no partial file
// is left in the data directory. The disks are modeled slow enough that the
// merge outlasts the DELETE.
func TestFileJobCancelledMidMergeLeavesNoOutput(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := testBase(filepath.Join(dir, "scratch"))
	cfg.DiskSeekMicros, cfg.DiskMBps = 20000, 1
	env := newEnv(t, colsort.EngineConfig{Config: cfg}, Config{DataDir: data})
	n := 3 * env.eng.MaxRecords(colsort.Threaded)
	if err := os.WriteFile(filepath.Join(data, "in.dat"), makeInput(n, 5), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := env.ts.Client().Post(env.ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"input":"in.dat","output":"out.dat"}`))
	if err != nil {
		t.Fatal(err)
	}
	var info jobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		t.Fatal(err)
	}
	entry := env.srv.jobs.get(info.ID)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if snap, _ := entry.snapshot(); snap.Progress != nil && snap.Progress.Phase == "merge" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the job never reached its merge")
		}
	}
	req, err := http.NewRequest(http.MethodDelete, env.ts.URL+"/v1/jobs/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := env.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close() //nolint:errcheck
	final := waitJobState(t, env, info.ID, jobFailed)
	if !strings.Contains(final.Error, "context canceled") {
		t.Fatalf("job error %q, want a context cancellation", final.Error)
	}
	if left := testutil.StrayFiles(data, "out.dat"); len(left) > 0 {
		t.Errorf("the cancelled job left %v in the data directory", left)
	}
}

// TestFileJobsDisabled: without -data the endpoint refuses outright — the
// streaming endpoint is the only surface that exists by default.
func TestFileJobsDisabled(t *testing.T) {
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(t.TempDir(), "scratch"))}, Config{})
	resp, err := env.ts.Client().Post(env.ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"input":"a","output":"b"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status %d, want 403", resp.StatusCode)
	}
}

// TestCancelWhileQueued exercises DELETE against a job the engine has NOT
// admitted yet: a parked streaming upload holds the engine's whole memory
// budget, a file job queues behind it, and cancelling the queued job must
// fail it promptly — without disturbing the job holding the lease.
func TestCancelWhileQueued(t *testing.T) {
	dir := t.TempDir()
	scratch := filepath.Join(dir, "scratch")
	testutil.CheckLeaks(t, scratch)
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		t.Fatal(err)
	}

	base := testBase(scratch)
	probe, err := colsort.New(base)
	if err != nil {
		t.Fatal(err)
	}
	bound := probe.MaxRecords(colsort.Threaded)
	// Budget = exactly one hierarchical lease: the second job must queue.
	env := newEnv(t, colsort.EngineConfig{Config: base, TotalMemory: bound * testZ},
		Config{DataDir: data})

	n := 3 * bound
	input := makeInput(n, 11)
	want := refSort(t, dir, input)
	if err := os.WriteFile(filepath.Join(data, "queued-in.dat"), makeInput(1000, 12), 0o644); err != nil {
		t.Fatal(err)
	}

	// Job 1: a streaming upload parked halfway — admitted (it holds the
	// lease and has spilled batch 1) but unable to finish until we let it.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, env.ts.URL+fmt.Sprintf("/v1/sort?records=%d", n), pr)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		body []byte
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := env.ts.Client().Do(req)
		if err != nil {
			resCh <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		resCh <- result{body, err}
	}()
	if _, err := pw.Write(input[:(n/2)*testZ]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		running := false
		for _, info := range env.srv.jobs.list() {
			running = running || (info.Streaming && info.State == jobRunning)
		}
		if running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parked upload never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Job 2 queues behind the exhausted budget...
	resp, err := env.ts.Client().Post(env.ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"input":"queued-in.dat","output":"queued-out.dat"}`))
	if err != nil {
		t.Fatal(err)
	}
	var queued jobInfo
	err = json.NewDecoder(resp.Body).Decode(&queued)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		t.Fatal(err)
	}
	if info := getJob(t, env, queued.ID); info.State != jobQueued {
		t.Fatalf("second job state %q, want queued (budget should be exhausted)", info.State)
	}

	// ...and DELETE fails it promptly, straight out of the queue.
	delReq, err := http.NewRequest(http.MethodDelete, env.ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := env.ts.Client().Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close() //nolint:errcheck
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", delResp.StatusCode)
	}
	final := waitJobState(t, env, queued.ID, jobFailed)
	if !strings.Contains(final.Error, "context canceled") {
		t.Errorf("cancelled-while-queued error %q, want a context cancellation", final.Error)
	}
	if _, err := os.Stat(filepath.Join(data, "queued-out.dat")); !os.IsNotExist(err) {
		t.Errorf("cancelled job left an output file behind (stat err %v)", err)
	}

	// The lease holder was untouched: release it and verify its output.
	if _, err := pw.Write(input[(n/2)*testZ:]); err != nil {
		t.Fatal(err)
	}
	pw.Close() //nolint:errcheck
	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !bytes.Equal(res.body, want) {
		t.Fatal("lease-holding upload's output differs from the reference")
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	event string
	data  string
}

// readSSE consumes an SSE stream until the "done" event (or EOF).
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	// SSE is line-oriented: "event: X", "data: Y", blank line dispatches.
	br := newLineReader(r)
	for {
		line, err := br.line()
		if err != nil {
			return events
		}
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				events = append(events, cur)
				if cur.event == "done" {
					return events
				}
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"): // comment / keepalive
		default:
			t.Errorf("unexpected SSE line %q", line)
		}
	}
}

// lineReader wraps bufio so a final chunk delivered together with EOF
// (common on a closing SSE stream) still yields its complete lines.
type lineReader struct{ br *bufio.Reader }

func newLineReader(r io.Reader) *lineReader { return &lineReader{br: bufio.NewReader(r)} }

func (l *lineReader) line() (string, error) {
	s, err := l.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(s, "\r\n"), nil
}

// TestJobProgressSSE subscribes to a hierarchical job's progress push and
// expects sort-phase events, merge-phase events, and the terminal "done"
// event carrying the result summary; a late subscriber to the same
// finished job gets "done" immediately. The job is a streaming upload
// parked on a pipe so the subscription deterministically lands mid-sort —
// the push coalesces to the LATEST event, so a subscriber that arrives
// after completion would only ever see the final one.
func TestJobProgressSSE(t *testing.T) {
	dir := t.TempDir()
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(dir, "scratch"))}, Config{})
	bound := env.eng.MaxRecords(colsort.Threaded)
	n := 3 * bound
	input := makeInput(n, 5)

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, env.ts.URL+fmt.Sprintf("/v1/sort?records=%d", n), pr)
	if err != nil {
		t.Fatal(err)
	}
	upErr := make(chan error, 1)
	go func() {
		resp, err := env.ts.Client().Do(req)
		if err != nil {
			upErr <- err
			return
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		upErr <- err
	}()

	// Park the upload half way: batch 1 is sorted and spilled, so the
	// latest coalesced event is a sort-phase one, and the merge cannot
	// start until we release the rest.
	if _, err := pw.Write(input[:(n/2)*testZ]); err != nil {
		t.Fatal(err)
	}
	var info jobInfo
	deadline := time.Now().Add(30 * time.Second)
	for info.ID == "" {
		for _, li := range env.srv.jobs.list() {
			if li.Streaming && li.State == jobRunning {
				info = li
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("parked upload never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	sub, err := env.ts.Client().Get(env.ts.URL + "/v1/jobs/" + info.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	if ct := sub.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	// Release the rest of the input and read the push to completion.
	if _, err := pw.Write(input[(n/2)*testZ:]); err != nil {
		t.Fatal(err)
	}
	pw.Close() //nolint:errcheck
	events := readSSE(t, sub.Body)
	if err := <-upErr; err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[len(events)-1].event != "done" {
		t.Fatalf("SSE stream ended without a done event (%d events)", len(events))
	}
	phases := map[string]int{}
	for _, ev := range events[:len(events)-1] {
		if ev.event != "progress" {
			t.Fatalf("unexpected event %q before done", ev.event)
		}
		var pe progressEvent
		if err := json.Unmarshal([]byte(ev.data), &pe); err != nil {
			t.Fatalf("progress data %q: %v", ev.data, err)
		}
		if pe.Percent < 0 || pe.Percent > 100 {
			t.Errorf("percent %v out of range in %q", pe.Percent, ev.data)
		}
		phases[pe.Phase]++
	}
	if phases["sort"] == 0 || phases["merge"] == 0 {
		t.Errorf("hierarchical job pushed phases %v, want both sort and merge", phases)
	}
	var done jobInfo
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &done); err != nil {
		t.Fatal(err)
	}
	if done.State != jobDone || done.Result == nil || done.Result.Records != n {
		t.Fatalf("done event payload: %+v", done)
	}

	// Late subscriber: the job is finished; done arrives immediately.
	late, err := env.ts.Client().Get(env.ts.URL + "/v1/jobs/" + info.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	lateEvents := readSSE(t, late.Body)
	if len(lateEvents) == 0 || lateEvents[len(lateEvents)-1].event != "done" {
		t.Fatalf("late subscriber got %d events, want a terminal done", len(lateEvents))
	}
}

// TestDrain pins the shutdown semantics: BeginDrain flips /healthz to 503
// and refuses new work on both sort endpoints while /metrics stays up (so
// the last scrape still lands), and Drain completes, closing the engine.
func TestDrain(t *testing.T) {
	env := newEnv(t, colsort.EngineConfig{Config: testBase(filepath.Join(t.TempDir(), "scratch"))}, Config{})

	hz, err := env.ts.Client().Get(env.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close() //nolint:errcheck
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", hz.StatusCode)
	}

	env.srv.BeginDrain()
	for _, tc := range []struct {
		method, path string
		body         io.Reader
		want         int
	}{
		{http.MethodGet, "/healthz", nil, http.StatusServiceUnavailable},
		{http.MethodPost, "/v1/sort", bytes.NewReader(make([]byte, testZ)), http.StatusServiceUnavailable},
		{http.MethodPost, "/v1/jobs", strings.NewReader(`{"input":"a","output":"b"}`), http.StatusServiceUnavailable},
		{http.MethodGet, "/metrics", nil, http.StatusOK},
	} {
		req, err := http.NewRequest(tc.method, env.ts.URL+tc.path, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := env.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s while draining: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
		if tc.path == "/metrics" && !strings.Contains(string(body), "colsort_server_draining 1") {
			t.Error("metrics while draining do not report colsort_server_draining 1")
		}
	}

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Engine closed: a sort through it fails with ErrEngineClosed.
	_, err = env.eng.Sort(context.Background(),
		colsort.FromReader(bytes.NewReader(make([]byte, testZ)), 1),
		colsort.ToWriter(io.Discard))
	if err == nil {
		t.Fatal("engine accepted a sort after Drain")
	}
}
