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

// driveStages runs the merge loop's side of the stages over chunks of
// chunk records, numbering chunk i by its first byte, until next refuses a
// chunk or n chunks have been sent; hold, when non-nil, runs on chunk 2
// before it is sent.
func driveStages(p *stages, n int, hold func()) error {
	for i := 0; i < n; i++ {
		c, ok := p.next()
		if !ok {
			break
		}
		c.Data[0] = byte(i)
		if i == 2 && hold != nil {
			hold()
		}
		p.toCheck <- c
	}
	return p.wait()
}

func stageBufs() []record.Slice {
	bufs := make([]record.Slice, emitDepth)
	for i := range bufs {
		bufs[i] = record.Make(4, 8)
	}
	return bufs
}

// TestStagesFirstFailureWins pins that when emit fails on one chunk while
// the verify stage fails on a later one, Merge's pipeline returns whichever
// failure came first, and emit never sees the chunk that failed
// verification.
func TestStagesFirstFailureWins(t *testing.T) {
	errEmit := errors.New("sink failed")
	errOrder := fmt.Errorf("%w at record 4", ErrOrder)
	for _, emitFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("emitFirst=%v", emitFirst), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			var p *stages
			checking, emitting := make(chan struct{}), make(chan struct{})
			var emitted []byte
			check := func(c record.Slice) error {
				if c.Data[0] != 1 {
					return nil
				}
				close(checking)
				if emitFirst {
					<-p.ctx.Done() // emit's failure is recorded
				} else {
					<-emitting
				}
				return errOrder
			}
			emit := func(c record.Slice) error {
				emitted = append(emitted, c.Data[0])
				if c.Data[0] != 0 {
					return nil
				}
				close(emitting)
				if emitFirst {
					<-checking
				} else {
					<-p.ctx.Done() // the order failure is recorded
				}
				return errEmit
			}
			p = startStages(context.Background(), stageBufs(), check, emit)
			err := driveStages(p, 8, nil)
			want := errOrder
			if emitFirst {
				want = errEmit
			}
			if err != want {
				t.Fatalf("err = %v, want %v", err, want)
			}
			if !bytes.Equal(emitted, []byte{0}) {
				t.Fatalf("emit saw chunks %v, want only chunk 0", emitted)
			}
		})
	}
}

// TestStagesCancelWhileEveryStageHolds cancels while emit holds chunk 0,
// the verify stage chunk 1 and the merge loop chunk 2 — every buffer there
// is: the pipeline must return the context's error with every goroutine
// joined, and emit must see the chunks it does see in order.
func TestStagesCancelWhileEveryStageHolds(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	held := make(chan struct{}, 2)
	hold := func(c record.Slice, i byte) {
		if c.Data[0] == i {
			held <- struct{}{}
			<-ctx.Done()
		}
	}
	var emitted []byte
	p := startStages(ctx, stageBufs(), func(c record.Slice) error {
		hold(c, 1)
		return nil
	}, func(c record.Slice) error {
		emitted = append(emitted, c.Data[0])
		hold(c, 0)
		return nil
	})
	err := driveStages(p, 1<<20, func() {
		<-held
		<-held
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, c := range emitted {
		if int(c) != i {
			t.Fatalf("emit saw chunks %v, want a prefix of the stream", emitted)
		}
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
