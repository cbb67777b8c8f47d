package merge

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// TestMergeOrderViolationStopsBeforeEmit pins the verify stage: a record
// smaller than its predecessor — inside a chunk, or at a chunk's first record
// where the predecessor is the previous chunk's last; by its key prefix, or
// by its payload under a tied prefix — fails with ErrOrder naming its index
// in the stream, and the sink receives a prefix of the chunks before the
// violating one, never that chunk or any after it.
func TestMergeOrderViolationStopsBeforeEmit(t *testing.T) {
	const n, z, chunk = 256, 16, 32
	for _, tc := range []struct {
		bad  int
		tied bool
	}{{41, false}, {64, false}, {1, false}, {41, true}, {64, true}} { // inside chunk 1; first record of chunk 2; inside chunk 0
		t.Run(fmt.Sprintf("record=%d/tied=%v", tc.bad, tc.tied), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			bad := tc.bad
			recs := record.Make(n, z)
			record.Fill(recs, record.Uniform{Seed: 3}, 0)
			for i := 0; tc.tied && i < n; i++ {
				clear(recs.Record(i)[:record.KeyBytes]) // every key prefix ties
			}
			sortSlice(recs)
			tmp := make([]byte, z)
			copy(tmp, recs.Record(bad-1))
			copy(recs.Record(bad-1), recs.Record(bad))
			copy(recs.Record(bad), tmp)
			d, err := pdm.Machine{P: 1, D: 1}.NewSpillDisk(0)
			if err != nil {
				t.Fatal(err)
			}
			w := NewWriter(d, z, chunk)
			if err := w.Append(recs); err != nil {
				t.Fatal(err)
			}
			run, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			defer run.Close()

			got, _, _, err := collect(t, context.Background(), []*Run{run}, z, Options{ChunkRecs: chunk})
			if !errors.Is(err, ErrOrder) || err.Error() != fmt.Sprintf("%v at record %d", ErrOrder, bad) {
				t.Fatalf("err = %v, want ErrOrder at record %d", err, bad)
			}
			if first := bad / chunk * chunk; got.Len() > first || got.Len()%chunk != 0 {
				t.Fatalf("the sink received %d records, want whole chunks before record %d", got.Len(), first)
			}
			if !bytes.Equal(got.Data, recs.Data[:len(got.Data)]) {
				t.Fatal("the sink received records that are not the stream's prefix")
			}
		})
	}
}

// TestMergeCancelWithSinkBlocked cancels a merge whose sink blocks on its
// first chunk: the merge loop, out of free chunks, must stop waiting for
// one, and Merge must return the context's error once the sink returns.
func TestMergeCancelWithSinkBlocked(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n, z = 4096, 16
	runs, _ := genRuns(t, pdm.Machine{P: 1, D: 1}, n, 3, z, 64, 11)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	_, _, err := Merge(ctx, runs, func(record.Slice) error {
		calls++
		cancel()
		<-ctx.Done()
		return nil
	}, Options{ChunkRecs: 64})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("the sink was called %d times after the cancel, want once", calls)
	}
	for _, r := range runs {
		r.Close()
	}
}

// BenchmarkMerge is the merge layer alone, over file-backed runs: k runs of
// 2¹⁸ 64-byte records in all, into a sink that discards — the layer-level
// twin of the benchmark's merge.merge_mb_s.
func BenchmarkMerge(b *testing.B) {
	const n, z = 1 << 18, 64
	for _, k := range []int{1, 5, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			m := pdm.Machine{P: 1, D: 1, Backend: pdm.FileBackend{Dir: b.TempDir()}}
			runs, _ := genRuns(b, m, n, k, z, DefaultChunkRecs, uint64(k))
			defer func() {
				for _, r := range runs {
					r.Close()
				}
			}()
			pool := record.NewPool()
			b.SetBytes(n * z)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Merge(context.Background(), runs, func(record.Slice) error { return nil },
					Options{Pool: pool}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
