package colsort_test

// The rule book is ONE: what a job may ask for is stated once, in the
// library's resolver, and every front end only spells options. One table of
// refusals, asserted three ways — Engine.PlanSort and Engine.Sort return the
// same error, and both server endpoints answer 400 with that sentence before
// a body byte or a 202 leaves. (cmd/colsort is the fourth speller: CI's
// examples job runs the same refusals through it.)

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"colsort"
	"colsort/internal/record"
	"colsort/internal/server"
)

func TestRuleBook(t *testing.T) {
	// P = 4 so a hybrid group of 2 exists; the smallest run of every
	// algorithm holds 2 MiB, so a 1 MiB cap — the wire's unit — sizes the
	// runs of a hierarchical sort instead.
	const z, mem = 64, 1 << 13
	const mib = 1 << 20
	const smallest = 4 * mem // the smallest threaded and hybrid run: 2 MiB
	dir := t.TempDir()
	eng, err := colsort.NewEngine(colsort.EngineConfig{Config: colsort.Config{Procs: 4, MemPerProc: mem, RecordSize: z}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(eng, server.Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	// post sends one request and returns its status and JSON error sentence.
	// The client announces every body with Expect: 100-continue and sends it
	// only when the handler asks for it (or after a minute: never, here).
	client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: time.Minute}}
	defer client.CloseIdleConnections()
	post := func(path, contentType string, body io.Reader) (int, string) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Expect", "100-continue")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct{ Error string }
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // a sorted reply, drained
		return resp.StatusCode, e.Error
	}
	// inputOf names a server-side input file of n records (sparse: a refused
	// job never reads it).
	inputOf := func(n int64) string {
		name := fmt.Sprintf("in-%d.dat", n)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.Truncate(n * z); err != nil {
			t.Fatal(err)
		}
		return name
	}

	hybridCap := func(capMiB int64) []colsort.Option {
		return []colsort.Option{colsort.WithHybridGroup(2), colsort.WithMaxMemory(capMiB * mib)}
	}
	exactCap := func(capMiB int64) []colsort.Option {
		return []colsort.Option{colsort.WithPadding(colsort.PadNever), colsort.WithMaxMemory(capMiB * mib)}
	}
	for row, tc := range []struct {
		name  string
		n     int64
		opts  []colsort.Option // the Go spelling; nil where Go cannot misspell it
		query string           // the wire spelling; "" where the wire cannot spell it
		want  string           // the sentence; "" = the job is accepted
	}{
		{"negative cap", 1000, []colsort.Option{colsort.WithMaxMemory(-mib)}, "max-memory-mib=-1",
			"colsort: WithMaxMemory(-1048576): the cap must be ≥ 0"},
		{"fan-in of one", 1000, []colsort.Option{colsort.WithMergeFanIn(1)}, "merge-fanin=1",
			"colsort: WithMergeFanIn(1): the fan-in must be ≥ 2"},
		{"negative fan-in", 1000, []colsort.Option{colsort.WithMergeFanIn(-3)}, "merge-fanin=-3",
			"colsort: WithMergeFanIn(-3): the fan-in must be ≥ 2"},
		{"negative deadline", 1000, []colsort.Option{colsort.WithDeadline(-5 * time.Millisecond)}, "deadline-ms=-5",
			"colsort: WithDeadline(-5ms): the deadline must be ≥ 0"},
		{"key field past the record's end", 1000, []colsort.Option{colsort.WithKeySpec(colsort.KeySpec{Offset: 60, Width: 8})}, "key-offset=60&key-width=8",
			"colsort: record: key field [60:68) outside 64-byte record"},
		{"group without hybrid", 1000, nil, "group=2",
			`option "group" only applies to alg=hybrid`},
		{"hybrid without group: the wire", 1000, nil, "alg=hybrid",
			"alg=hybrid requires a group size: pass group=G"},
		{"hybrid without group: Go", 1000, []colsort.Option{colsort.WithAlgorithm(colsort.Hybrid)}, "",
			"core: hybrid group size g=0 must be a power of 2 with 2 ≤ g ≤ P/2=2"},
		{"hybrid group of 3", 1000, []colsort.Option{colsort.WithHybridGroup(3)}, "alg=hybrid&group=3",
			"core: hybrid group size g=3 must be a power of 2 with 2 ≤ g ≤ P/2=2"},
		{"cap below the smallest run", smallest + 1, []colsort.Option{colsort.WithMaxMemory(mib)}, "max-memory-mib=1", ""},
		{"cap below the merge floor", 300 * mib / z, []colsort.Option{colsort.WithMaxMemory(mib), colsort.WithMergeFanIn(512)}, "max-memory-mib=1&merge-fanin=512",
			"WithMaxMemory(1048576) holds 16384 records of 64 B, fewer than a merge of 300 runs needs: 300 + 4 chunks of 64 records"},
		{"hierarchical + PadNever", 2 * smallest, exactCap(2), "padding=never&max-memory-mib=2",
			"colsort: WithMaxMemory(2097152): the one run of 65536 records holds 4194304 bytes, and cutting it into runs + merge needs PadAuto"},
		{"hybrid: cap below the smallest run", smallest, hybridCap(1), "alg=hybrid&group=2&max-memory-mib=1", ""},

		// The two combinations the wire used to refuse on sight are resolve's
		// to answer: they run whenever the one run fits the cap.
		{"hybrid under a cap that fits", smallest, hybridCap(64), "alg=hybrid&group=2&max-memory-mib=64", ""},
		{"PadNever under a cap that fits", smallest, exactCap(64), "padding=never&max-memory-mib=64", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sentence := tc.want
			if tc.opts != nil {
				_, perr := eng.PlanSort(tc.n, tc.opts...)
				res, serr := eng.Sort(context.Background(), colsort.Generate(record.Uniform{Seed: 3}, tc.n), colsort.Discard(), tc.opts...)
				if res != nil {
					res.Close()
				}
				if tc.want == "" {
					if perr != nil || serr != nil {
						t.Fatalf("PlanSort: %v; Sort: %v; want both to accept", perr, serr)
					}
				} else {
					if perr == nil || !strings.Contains(perr.Error(), tc.want) {
						t.Fatalf("PlanSort returned %v, want the sentence %q", perr, tc.want)
					}
					if serr == nil || serr.Error() != perr.Error() {
						t.Errorf("Sort returned %v, PlanSort %q: one rule book, one sentence", serr, perr)
					}
					if strings.Contains(tc.want, "fewer than a merge") != errors.Is(perr, colsort.ErrMemoryTooSmall) {
						t.Errorf("errors.Is(ErrMemoryTooSmall) = %v for %q", errors.Is(perr, colsort.ErrMemoryTooSmall), perr)
					}
					sentence = perr.Error() // the endpoints must return it whole
				}
			}
			if tc.query == "" {
				return
			}

			// POST /v1/sort: refused before the handler asks for a body byte
			// (the body fails the test if the client is ever told to send it),
			// or sorted.
			body, wantStatus := io.Reader(unsentBody{t}), http.StatusBadRequest
			if tc.want == "" {
				raw := record.Make(int(tc.n), z)
				record.Fill(raw, record.Uniform{Seed: 3}, 0)
				body, wantStatus = bytes.NewReader(raw.Data), http.StatusOK
			}
			status, got := post(fmt.Sprintf("/v1/sort?records=%d&%s", tc.n, tc.query), "application/octet-stream", body)
			if status != wantStatus || got != sentence {
				t.Errorf("POST /v1/sort?%s: %d %q, want %d %q", tc.query, status, got, wantStatus, sentence)
			}

			// POST /v1/jobs: refused before the 202, or accepted.
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			options := map[string]string{}
			for k := range q {
				options[k] = q.Get(k)
			}
			req, err := json.Marshal(map[string]any{"input": inputOf(tc.n), "output": fmt.Sprintf("out-%d.dat", row), "options": options})
			if err != nil {
				t.Fatal(err)
			}
			wantStatus = http.StatusBadRequest
			if tc.want == "" {
				wantStatus = http.StatusAccepted
			}
			status, got = post("/v1/jobs", "application/json", bytes.NewReader(req))
			if status != wantStatus || got != sentence {
				t.Errorf("POST /v1/jobs %v: %d %q, want %d %q", options, status, got, wantStatus, sentence)
			}
		})
	}
}

// unsentBody is a request body of unknown length the client must never be
// asked to send: the refusal has to come first.
type unsentBody struct{ t *testing.T }

func (b unsentBody) Read([]byte) (int, error) {
	b.t.Error("the endpoint asked for the body of a job the rule book refuses")
	return 0, io.EOF
}
