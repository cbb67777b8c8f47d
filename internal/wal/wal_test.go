package wal_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colsort"
	"colsort/internal/record"
	"colsort/internal/server"
	"colsort/internal/wal"
)

type entry struct {
	K string `json:"k"`
	V int    `json:"v"`
}

// replayLines collects the durable lines of the log at path.
func replayLines(path string) ([][]byte, error) {
	var lines [][]byte
	err := wal.Replay(path, func(line []byte) error {
		if !json.Valid(line) {
			return errors.New("not JSON")
		}
		lines = append(lines, append([]byte(nil), line...))
		return nil
	})
	return lines, err
}

// TestLogContract walks the contract the package comment states: appended
// entries replay in order, a torn tail is skipped on replay and truncated
// on open so the next entry is not glued onto it, a complete undecodable
// line is ErrCorrupt naming its line, and Rewrite replaces the log.
func TestLogContract(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state", "test.wal") // Open creates parents
	l, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b"} {
		if err := l.Append(entry{k, i}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	torn := func() {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(`{"k":"torn","v`)
		f.Close()
	}
	expect := func(want string) {
		t.Helper()
		lines, err := replayLines(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(bytes.Join(lines, []byte("\n"))); got != want {
			t.Fatalf("replay = %s, want %s", got, want)
		}
	}
	torn()
	expect(`{"k":"a","v":0}` + "\n" + `{"k":"b","v":1}`)

	// Reopen over the torn tail: the fragment goes, the new entry survives.
	if l, err = wal.Open(path); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entry{"c", 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	expect(`{"k":"a","v":0}` + "\n" + `{"k":"b","v":1}` + "\n" + `{"k":"c","v":2}`)

	// A complete line that does not decode is damage, not a tear — even
	// when it is the last line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{\"k\":\"bad\n")
	f.Close()
	if _, err := replayLines(path); !errors.Is(err, wal.ErrCorrupt) || !bytes.Contains([]byte(err.Error()), []byte("line 4")) {
		t.Fatalf("replay over a complete malformed line: err = %v, want ErrCorrupt naming line 4", err)
	}

	if err := wal.Rewrite(path, []entry{{"z", 9}}); err != nil {
		t.Fatal(err)
	}
	expect(`{"k":"z","v":9}`)

	// A nil log is a no-op, and a missing file is the os error.
	var none *wal.Log
	if err := none.Append(entry{}); err != nil || none.Close() != nil {
		t.Fatalf("nil log: Append err = %v", err)
	}
	if _, err := replayLines(path + ".absent"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("replay of a missing log: err = %v, want ErrNotExist", err)
	}
}

// FuzzReplay is the one fuzz target of both durable files read through
// Replay. It takes a real manifest.wal or a server job file (testdata/, as
// their owners write them), truncates it at an arbitrary offset — every
// crash a file can suffer — and/or flips one byte, then requires:
//
//   - nothing panics, in Replay or in either owner's reader;
//   - after a truncation alone, Replay yields exactly a prefix of the
//     original entries, and for the manifest Open + one Append replays as
//     that prefix plus the new entry (the torn tail neither hides nor
//     swallows it);
//   - after a flip, Replay returns a clean result or ErrCorrupt;
//   - both owners, driven through their entry points, return a clean result
//     or ErrCorrupt: the manifest fold is the first step of a Sort under
//     WithCheckpoint — called with the seed job's record count and options,
//     so an intact begin entry is this job's — and the job file, at
//     ckpt/j000001/job.json, is read by server.New's boot scan, which must
//     leave a file it refuses as it was. A flip that leaves the manifest's
//     JSON valid is the CRC sidecar's and reopenRuns' job to catch, not the
//     log's.
func FuzzReplay(f *testing.F) {
	seeds := map[bool][]byte{}
	for isJobs, name := range map[bool]string{false: "manifest.wal", true: "job.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		seeds[isJobs] = data
		f.Add(isJobs, uint16(len(data)), uint16(0), uint8(0))    // intact
		f.Add(isJobs, uint16(len(data)-9), uint16(0), uint8(0))  // torn mid-line
		f.Add(isJobs, uint16(len(data)), uint16(40), uint8(0x1)) // one flipped bit
		f.Add(isJobs, uint16(len(data)/2), uint16(7), uint8(0x80))
		f.Add(isJobs, uint16(len(data)-16), uint16(len(data)-40), uint8(0x1)) // torn, one more byte changed
	}
	engCfg := colsort.EngineConfig{Config: colsort.Config{Procs: 4, MemPerProc: 64, RecordSize: 16}}
	// The shape the manifest seed was written on: its 1024 records sort as
	// 256-record runs.
	eng, err := colsort.NewEngine(colsort.EngineConfig{Config: colsort.Config{Procs: 2, MemPerProc: 64, RecordSize: 16}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { eng.Close() })

	f.Fuzz(func(t *testing.T, isJobs bool, cut, flipAt uint16, xor uint8) {
		orig := seeds[isJobs]
		data := append([]byte(nil), orig[:min(int(cut), len(orig))]...)
		flipped := xor != 0 && int(flipAt) < len(data)
		if flipped {
			data[flipAt] ^= xor
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "manifest.wal")
		if isJobs {
			path = filepath.Join(dir, ".colsort", "ckpt", "j000001", "job.json")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		got, err := replayLines(path)
		switch {
		case !flipped:
			prefix := bytes.SplitAfter(data, []byte("\n"))
			prefix = prefix[:len(prefix)-1] // the torn fragment (or "" after a final newline)
			if err != nil || len(got) != len(prefix) {
				t.Fatalf("replay of a truncated log: %d entries, err %v; want the %d whole lines", len(got), err, len(prefix))
			}
			for i := range got {
				if !bytes.Equal(got[i], bytes.TrimSuffix(prefix[i], []byte("\n"))) {
					t.Fatalf("entry %d = %s, want %s", i, got[i], prefix[i])
				}
			}
		case err != nil && !errors.Is(err, wal.ErrCorrupt):
			t.Fatalf("replay of a flipped log: untyped error %v", err)
		}

		if isJobs {
			// The boot scan re-adopts the job or refuses its file (the
			// seed's input does not exist, so re-adoption fails fast). The
			// server owns its engine.
			e, err := colsort.NewEngine(engCfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := server.New(e, server.Config{DataDir: dir})
			if err != nil {
				e.Close()
				if !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), path) {
					t.Fatalf("boot over a damaged job file: err %v, want ErrCorrupt naming %s", err, path)
				}
				if left, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(left, data) {
					t.Fatalf("boot refused the job file but did not leave it as it was (read err %v)", rerr)
				}
				return
			}
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			return
		}
		if !flipped {
			l, err := wal.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(entry{"new", 1}); err != nil {
				t.Fatal(err)
			}
			l.Close()
			again, err := replayLines(path)
			if err != nil || len(again) != len(got)+1 || string(again[len(got)]) != `{"k":"new","v":1}` {
				t.Fatalf("after Open+Append: err %v, %d entries (had %d): %s", err, len(again), len(got), again)
			}
			return
		}
		// The manifest's run files do not exist, so the sort may refuse the
		// log, or sort afresh where the log says there is nothing to adopt —
		// what must not happen is a panic, or a Result that adopted runs
		// the log names but nothing holds.
		res, err := eng.Sort(context.Background(), colsort.Generate(record.Uniform{Seed: 1}, 1024), colsort.Discard(),
			colsort.WithMergeFanIn(2), colsort.WithMaxMemory(1<<20),
			colsort.WithKeySpec(colsort.KeySpec{Offset: 4, Width: 8, Order: colsort.Descending}),
			colsort.WithCheckpoint(dir))
		if err == nil {
			defer res.Close()
			if res.Merge == nil || res.Merge.ResumedRuns != 0 {
				t.Fatalf("Sort over a manifest whose runs do not exist: merge stats %+v, want a fresh hierarchical sort", res.Merge)
			}
		}
	})
}
