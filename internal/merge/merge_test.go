package merge

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"testing"

	"colsort/internal/faultinject"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// buildRun spills the records of recs (sorted here for convenience) onto a
// fresh disk of the given machine and returns the run.
func buildRun(t testing.TB, m pdm.Machine, recs record.Slice, chunkRecs int) *Run {
	t.Helper()
	sortSlice(recs)
	d, err := m.NewSpillDisk(0)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(d, recs.Size, chunkRecs)
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func sortSlice(s record.Slice) {
	n := s.Len()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return bytes.Compare(s.Record(idx[a]), s.Record(idx[b])) < 0
	})
	out := record.Make(n, s.Size)
	for i, j := range idx {
		out.CopyRecord(i, s, j)
	}
	copy(s.Data, out.Data)
}

// genRuns cuts n generated records into k runs of uneven sizes.
func genRuns(t testing.TB, m pdm.Machine, n, k, z, chunkRecs int, seed uint64) ([]*Run, record.Slice) {
	t.Helper()
	all := record.Make(n, z)
	record.Fill(all, record.Uniform{Seed: seed}, 0)
	runs := make([]*Run, 0, k)
	at := 0
	for i := 0; i < k; i++ {
		end := at + n/k
		if i%2 == 1 { // uneven: stress run bookkeeping
			end += n / (4 * k)
		}
		if i == k-1 || end > n {
			end = n
		}
		part := record.Make(end-at, z)
		part.Copy(all.Sub(at, end))
		runs = append(runs, buildRun(t, m, part, chunkRecs))
		at = end
	}
	ref := record.Make(n, z)
	ref.Copy(all)
	sortSlice(ref)
	return runs, ref
}

func collect(t *testing.T, ctx context.Context, runs []*Run, z int, opt Options) (record.Slice, record.Checksum, Stats, error) {
	t.Helper()
	var out bytes.Buffer
	cs, st, err := Merge(ctx, runs, func(c record.Slice) error {
		out.Write(c.Data)
		return nil
	}, opt)
	return record.NewSlice(out.Bytes(), z), cs, st, err
}

func TestMergeMatchesReference(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n, z = 5000, 16
	for _, k := range []int{1, 2, 3, 7, 16} {
		m := pdm.Machine{P: 1, D: 1}
		runs, ref := genRuns(t, m, n, k, z, 64, uint64(k))
		got, cs, st, err := collect(t, context.Background(), runs, z, Options{ChunkRecs: 64})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !bytes.Equal(got.Data, ref.Data) {
			t.Fatalf("k=%d: merged output differs from reference sort", k)
		}
		var want record.Checksum
		want.AddSlice(ref)
		if !cs.Equal(want) {
			t.Fatalf("k=%d: merge checksum does not match the emitted multiset", k)
		}
		if st.BytesWritten != int64(n*z) {
			t.Fatalf("k=%d: stats %+v, want %d bytes written", k, st, n*z)
		}
		for _, r := range runs {
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMergeAsyncFileBacked runs the same merge on async file-backed spill
// disks: prefetch + write-behind must not change a single byte.
func TestMergeAsyncFileBacked(t *testing.T) {
	dir := t.TempDir()
	testutil.CheckLeaks(t, dir)
	const n, z, k = 4096, 32, 5
	m := pdm.Machine{P: 1, D: 1, Backend: pdm.FileBackend{Dir: dir}, Async: &pdm.AsyncConfig{}}
	runs, ref := genRuns(t, m, n, k, z, 128, 9)
	got, _, _, err := collect(t, context.Background(), runs, z, Options{ChunkRecs: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, ref.Data) {
		t.Fatal("async file-backed merge differs from reference")
	}
	for _, r := range runs {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeToRunLevels chains MergeToRun into a two-level tree and checks
// the final output survives intact.
func TestMergeToRunLevels(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n, z = 6000, 16
	m := pdm.Machine{P: 1, D: 1}
	runs, ref := genRuns(t, m, n, 6, z, 64, 3)
	var mid []*Run
	for i := 0; i < len(runs); i += 2 {
		d, err := m.NewSpillDisk(100 + i)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := MergeToRun(context.Background(), runs[i:i+2], NewWriter(d, runs[i].RecSize, 64), Options{ChunkRecs: 64})
		if err != nil {
			t.Fatal(err)
		}
		runs[i].Close()
		runs[i+1].Close()
		mid = append(mid, out)
	}
	got, _, _, err := collect(t, context.Background(), mid, z, Options{ChunkRecs: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, ref.Data) {
		t.Fatal("two-level merge differs from reference")
	}
	for _, r := range mid {
		r.Close()
	}
}

// TestMergeInjectedFault wires a FaultDisk under one run: the injected read
// error must abort the merge, surface via errors.Is(err, faultinject.ErrInjected),
// and leave no goroutines behind (the verify and emit stages are joined).
func TestMergeInjectedFault(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n, z, k = 4096, 16, 4
	m := pdm.Machine{P: 1, D: 1}
	runs, _ := genRuns(t, m, n, k, z, 64, 5)
	// Budget passes the first chunk of run 1 and fails afterwards.
	runs[1].Disk = &faultinject.FaultDisk{Inner: runs[1].Disk, Budget: 64 * z}
	_, _, _, err := collect(t, context.Background(), runs, z, Options{ChunkRecs: 64})
	if err == nil {
		t.Fatal("merge over a faulting run reported success")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want errors.Is(err, faultinject.ErrInjected)", err)
	}
	for _, r := range runs {
		r.Close()
	}
}

// TestMergeInjectedFaultAsync repeats the injection below an AsyncDisk: the
// failure of a background prefetch must still surface on the consuming read.
func TestMergeInjectedFaultAsync(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n, z, k = 4096, 16, 3
	m := pdm.Machine{P: 1, D: 1}
	runs, _ := genRuns(t, m, n, k, z, 64, 6)
	runs[0].Disk = pdm.NewAsyncDisk(&faultinject.FaultDisk{Inner: runs[0].Disk, Budget: 64 * z}, pdm.AsyncConfig{})
	_, _, _, err := collect(t, context.Background(), runs, z, Options{ChunkRecs: 64})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want errors.Is(err, faultinject.ErrInjected)", err)
	}
	for _, r := range runs {
		r.Close()
	}
}

// TestMergeCancel cancels mid-merge via the progress hook; the merge must
// stop with the context's error and join its verify and emit stages.
func TestMergeCancel(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n, z = 8192, 16
	m := pdm.Machine{P: 1, D: 1}
	runs, _ := genRuns(t, m, n, 4, z, 64, 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{ChunkRecs: 64, Progress: func(merged int64) {
		if merged >= n/4 {
			cancel()
		}
	}}
	_, _, _, err := collect(t, ctx, runs, z, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, r := range runs {
		r.Close()
	}
}

// TestMergeDetectsUnsortedRun pins the streaming order verification: a run
// that lies about being sorted must fail with ErrOrder, not emit garbage
// silently.
func TestMergeDetectsUnsortedRun(t *testing.T) {
	testutil.CheckGoroutines(t)
	const z = 16
	m := pdm.Machine{P: 1, D: 1}
	d, err := m.NewSpillDisk(0)
	if err != nil {
		t.Fatal(err)
	}
	recs := record.Make(128, z)
	record.Fill(recs, record.Reverse{Seed: 1}, 0) // descending: NOT sorted
	w := NewWriter(d, z, 32)
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	_, _, _, err = collect(t, context.Background(), []*Run{run}, z, Options{ChunkRecs: 32})
	if !errors.Is(err, ErrOrder) {
		t.Fatalf("err = %v, want ErrOrder", err)
	}
}

// TestMergeEmitError propagates a failing sink and joins the worker.
func TestMergeEmitError(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n, z = 4096, 16
	m := pdm.Machine{P: 1, D: 1}
	runs, _ := genRuns(t, m, n, 3, z, 64, 8)
	boom := errors.New("sink exploded")
	emitted := 0
	_, _, err := Merge(context.Background(), runs, func(c record.Slice) error {
		emitted += c.Len()
		if emitted > n/2 {
			return boom
		}
		return nil
	}, Options{ChunkRecs: 64})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	for _, r := range runs {
		r.Close()
	}
}

// TestWriterReaderRoundTrip pins the chunk-boundary arithmetic of the spill
// layer for sizes that do not divide the chunk.
func TestWriterReaderRoundTrip(t *testing.T) {
	const z = 24
	for _, n := range []int{1, 31, 32, 33, 100} {
		m := pdm.Machine{P: 1, D: 1}
		recs := record.Make(n, z)
		record.Fill(recs, record.Uniform{Seed: uint64(n)}, 0)
		run := buildRun(t, m, recs, 32)
		rd := NewReader(run, nil)
		if err := rd.Prime(); err != nil {
			t.Fatal(err)
		}
		got := record.Make(n, z)
		for i := 0; i < n; i++ {
			rec := rd.Cur()
			if rec == nil {
				t.Fatalf("n=%d: reader exhausted at record %d", n, i)
			}
			copy(got.Record(i), rec)
			if err := rd.Advance(); err != nil {
				t.Fatal(err)
			}
		}
		if rd.Cur() != nil {
			t.Fatalf("n=%d: reader has records beyond the run", n)
		}
		if !bytes.Equal(got.Data, recs.Data) {
			t.Fatalf("n=%d: round trip corrupted records", n)
		}
		run.Close()
	}
}
