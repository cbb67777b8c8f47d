package colsort

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"colsort/internal/record"
	"colsort/internal/testutil"
)

// TestAsyncMatchesSync is the acceptance check of the async layer: a
// file-backed async run must produce byte-identical output AND identical
// exact operation counts to the synchronous path — the wrapper moves
// completion off the issuing goroutine, never the logical access pattern.
func TestAsyncMatchesSync(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n, p, mem, z = 1 << 14, 4, 1 << 10, 32
	for _, alg := range []Algorithm{Threaded, Subblock, MColumn} {
		t.Run(alg.String(), func(t *testing.T) {
			run := func(async bool) ([]byte, interface{}) {
				s, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z,
					Dir: t.TempDir(), Async: async})
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 42}, n), nil,
					WithAlgorithm(alg), WithPadding(PadNever))
				if err != nil {
					t.Fatal(err)
				}
				defer res.Close()
				if err := res.Verify(); err != nil {
					t.Fatal(err)
				}
				snap, err := res.Output.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				return append([]byte(nil), snap.Data...), res.TotalCounters()
			}
			syncOut, syncCnt := run(false)
			asyncOut, asyncCnt := run(true)
			if !bytes.Equal(syncOut, asyncOut) {
				t.Fatal("async output differs from sync output")
			}
			if syncCnt != asyncCnt {
				t.Fatalf("operation counts differ:\n sync  %+v\n async %+v", syncCnt, asyncCnt)
			}
		})
	}
}

// TestSortFile round-trips a real on-disk file (a non-power-of-two record
// count, so the padding path is exercised) through the async file-backed
// sorter and checks the output file is a sorted permutation of the input.
func TestSortFile(t *testing.T) {
	const n, z = 1000, 16
	dir := t.TempDir()
	testutil.CheckLeaks(t, filepath.Join(dir, "scratch"))
	in := filepath.Join(dir, "input.dat")
	out := filepath.Join(dir, "sorted.dat")

	src := record.Make(n, z)
	record.Fill(src, record.Uniform{Seed: 9}, 0)
	if err := os.WriteFile(in, src.Data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: z,
		Dir: filepath.Join(dir, "scratch"), Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Sort(context.Background(), FromFile(in), ToFile(out), WithAlgorithm(Threaded))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.RealRecords() != n {
		t.Fatalf("RealRecords = %d, want %d", res.RealRecords(), n)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != n*z {
		t.Fatalf("output file holds %d bytes, want %d", len(data), n*z)
	}
	got := record.NewSlice(data, z)
	if !got.IsSorted() {
		t.Fatal("output file not sorted")
	}
	var want, have record.Checksum
	want.AddSlice(src)
	have.AddSlice(got)
	if !have.Equal(want) {
		t.Fatal("output file is not a permutation of the input")
	}
}

// TestSortFileRejectsRaggedInput covers the input-validation path.
func TestSortFileRejectsRaggedInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "ragged.dat")
	if err := os.WriteFile(in, make([]byte, 100), 0o644); err != nil { // 100 % 16 != 0
		t.Fatal(err)
	}
	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sort(context.Background(), FromFile(in), ToFile(filepath.Join(dir, "out.dat"))); err == nil {
		t.Fatal("ragged input accepted")
	}
	if _, err := s.Sort(context.Background(), FromFile(filepath.Join(dir, "missing.dat")), ToFile(filepath.Join(dir, "out.dat"))); err == nil {
		t.Fatal("missing input accepted")
	}
}
