package merge

import (
	"bytes"
	"context"
	"testing"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// buildDescRun spills recs in DESCENDING order and marks the run as such.
func buildDescRun(t *testing.T, m pdm.Machine, recs record.Slice, chunkRecs int) *Run {
	t.Helper()
	sortSlice(recs)
	n := recs.Len()
	rev := record.Make(n, recs.Size)
	for i := 0; i < n; i++ {
		rev.CopyRecord(i, recs, n-1-i)
	}
	d, err := m.NewSpillDisk(1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(d, rev.Size, chunkRecs)
	if err := w.Append(rev); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	run.Descending = true
	return run
}

// TestReverseReaderRoundTrip pins the backwards chunk-grid arithmetic for
// run sizes that do not divide the chunk: a descending spill must read back
// exactly ascending.
func TestReverseReaderRoundTrip(t *testing.T) {
	const z = 24
	for _, n := range []int{1, 31, 32, 33, 100} {
		m := pdm.Machine{P: 1, D: 1}
		recs := record.Make(n, z)
		record.Fill(recs, record.Uniform{Seed: uint64(n)}, 0)
		run := buildDescRun(t, m, recs, 32)
		sortSlice(recs) // ascending reference
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
			if rd.Key() != record.Key(rec) {
				t.Fatalf("n=%d: cached key %x != record key %x", n, rd.Key(), record.Key(rec))
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
			t.Fatalf("n=%d: reverse round trip is not the ascending order", n)
		}
		if rd.BytesRead() != run.Bytes() {
			t.Fatalf("n=%d: BytesRead = %d, want %d", n, rd.BytesRead(), run.Bytes())
		}
		run.Close()
	}
}

// TestMergeMixedDirections merges ascending and descending runs together:
// the loser tree must see only ascending streams and the output must match
// the reference sort byte for byte.
func TestMergeMixedDirections(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n, z = 6000, 16
	m := pdm.Machine{P: 1, D: 1}
	all := record.Make(n, z)
	record.Fill(all, record.Uniform{Seed: 11}, 0)
	var runs []*Run
	at := 0
	for i := 0; i < 4; i++ {
		end := at + n/4
		if i == 3 {
			end = n
		}
		part := record.Make(end-at, z)
		part.Copy(all.Sub(at, end))
		if i%2 == 1 {
			runs = append(runs, buildDescRun(t, m, part, 64))
		} else {
			runs = append(runs, buildRun(t, m, part, 64))
		}
		at = end
	}
	ref := record.Make(n, z)
	ref.Copy(all)
	sortSlice(ref)
	got, _, _, err := collect(t, context.Background(), runs, z, Options{ChunkRecs: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, ref.Data) {
		t.Fatal("mixed-direction merge differs from reference")
	}
	for _, r := range runs {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReverseReaderAsyncPrefetch runs the reversed reader over an async
// file-backed disk: the backwards prefetch hints must not change a byte.
func TestReverseReaderAsyncPrefetch(t *testing.T) {
	dir := t.TempDir()
	testutil.CheckLeaks(t, dir)
	const n, z = 4096, 32
	m := pdm.Machine{P: 1, D: 1, Backend: pdm.FileBackend{Dir: dir}, Async: &pdm.AsyncConfig{}}
	recs := record.Make(n, z)
	record.Fill(recs, record.Uniform{Seed: 5}, 0)
	run := buildDescRun(t, m, recs, 128)
	ref := record.Make(n, z)
	ref.Copy(recs)
	sortSlice(ref)
	got, _, _, err := collect(t, context.Background(), []*Run{run}, z, Options{ChunkRecs: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, ref.Data) {
		t.Fatal("async reversed read differs from reference")
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzReverseReader throws arbitrary record bytes, chunk geometries and a
// walk direction at the one Reader: whatever Writer spilled, a Descending
// run must read back in exactly the spill order reversed and an ascending
// one in spill order, account every byte, and never read off the frame
// grid (readFrameVerified rejects unaligned framed reads).
func FuzzReverseReader(f *testing.F) {
	f.Add(uint8(0), uint8(3), true, []byte("0123456789abcdef0123456789abcdef"))
	f.Add(uint8(1), uint8(1), false, []byte("hello world, this is a run payload!!"))
	f.Add(uint8(2), uint8(7), true, make([]byte, 200))
	f.Fuzz(func(t *testing.T, zSel, chunkSel uint8, desc bool, data []byte) {
		z := 8 * (1 + int(zSel)%4) // 8, 16, 24, 32
		writeChunk := 1 + int(chunkSel)%7
		n := len(data) / z
		if n == 0 {
			return
		}
		recs := record.NewSlice(data[:n*z], z)
		m := pdm.Machine{P: 1, D: 1}
		d, err := m.NewSpillDisk(0)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(d, z, writeChunk)
		if err := w.Append(recs); err != nil {
			t.Fatal(err)
		}
		run, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		defer run.Close()
		run.Descending = desc

		rd := NewReader(run, nil)
		if err := rd.Prime(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			i := k // spill position the k-th read must yield
			if desc {
				i = n - 1 - k
			}
			rec := rd.Cur()
			if rec == nil {
				t.Fatalf("exhausted with %d records left", n-k)
			}
			if !bytes.Equal(rec, recs.Record(i)) {
				t.Fatalf("read %d differs from spill record %d (descending=%v)", k, i, desc)
			}
			if rd.Key() != record.Key(rec) {
				t.Fatalf("cached key %x != record key %x", rd.Key(), record.Key(rec))
			}
			if err := rd.Advance(); err != nil {
				t.Fatal(err)
			}
		}
		if rd.Cur() != nil {
			t.Fatal("reader yields records beyond the run")
		}
		if rd.BytesRead() != run.Bytes() {
			t.Fatalf("BytesRead = %d, want %d", rd.BytesRead(), run.Bytes())
		}
	})
}
