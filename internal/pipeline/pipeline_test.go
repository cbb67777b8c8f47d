package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colsort/internal/testutil"
)

// rounds is a source emitting the integers [0, n).
func rounds(n int) func(emit func(int) error) error {
	return func(emit func(int) error) error {
		for t := 0; t < n; t++ {
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestOrderPreserved(t *testing.T) {
	testutil.CheckGoroutines(t)
	var got []int
	double := func(x int) (int, error) { return x * 2, nil }
	inc := func(x int) (int, error) { return x + 1, nil }
	err := Run(context.Background(), 1, rounds(100),
		func(x int) error { got = append(got, x); return nil },
		double, inc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("sink saw %d items", len(got))
	}
	for i, x := range got {
		if x != i*2+1 {
			t.Fatalf("item %d = %d, want %d", i, x, i*2+1)
		}
	}
}

func TestNoStages(t *testing.T) {
	testutil.CheckGoroutines(t)
	sum := 0
	err := Run(context.Background(), 0, rounds(10), func(x int) error { sum += x; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if sum != 45 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestStagesOverlap(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Two stages that sleep must overlap: total wall time for n items
	// through 2 stages of d delay each must be well under serial 2·n·d.
	const n, d = 8, 10 * time.Millisecond
	slow := func(x int) (int, error) { time.Sleep(d); return x, nil }
	start := time.Now()
	err := Run(context.Background(), 1, rounds(n), func(int) error { return nil }, slow, slow)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	serial := 2 * n * d
	if elapsed > serial*3/4 {
		t.Fatalf("no overlap: %v vs serial %v", elapsed, serial)
	}
}

func TestStageErrorPropagates(t *testing.T) {
	testutil.CheckGoroutines(t)
	boom := errors.New("boom")
	err := Run(context.Background(), 1, rounds(1000),
		func(int) error { return nil },
		func(x int) (int, error) {
			if x == 5 {
				return 0, boom
			}
			return x, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	testutil.CheckGoroutines(t)
	boom := errors.New("src")
	err := Run(context.Background(), 1, func(emit func(int) error) error { return boom },
		func(int) error { return nil },
		func(x int) (int, error) { return x, nil })
	if !errors.Is(err, boom) {
		t.Fatalf("want src error, got %v", err)
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	testutil.CheckGoroutines(t)
	boom := errors.New("sink")
	err := Run(context.Background(), 2, rounds(1000),
		func(x int) error {
			if x == 3 {
				return boom
			}
			return nil
		},
		func(x int) (int, error) { return x, nil })
	if !errors.Is(err, boom) {
		t.Fatalf("want sink error, got %v", err)
	}
}

func TestErrorUnblocksFastSource(t *testing.T) {
	testutil.CheckGoroutines(t)
	// The source emits many items into a tiny channel; an early sink error
	// must unblock the source promptly rather than deadlock.
	boom := errors.New("early")
	done := make(chan error, 1)
	go func() {
		done <- Run(context.Background(), 0, rounds(1_000_000),
			func(x int) error { return boom },
			func(x int) (int, error) { return x, nil })
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("want early error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline deadlocked on error")
	}
}

func TestNegativeCapacity(t *testing.T) {
	testutil.CheckGoroutines(t)
	if err := Run(context.Background(), -1, rounds(1), func(int) error { return nil }); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestBoundedInFlight(t *testing.T) {
	testutil.CheckGoroutines(t)
	// With capacity 1 and three stages, the number of rounds past the
	// source but not yet through the sink must stay bounded.
	var inFlight, maxInFlight int64
	enter := func(x int) (int, error) {
		v := atomic.AddInt64(&inFlight, 1)
		for {
			m := atomic.LoadInt64(&maxInFlight)
			if v <= m || atomic.CompareAndSwapInt64(&maxInFlight, m, v) {
				break
			}
		}
		return x, nil
	}
	leave := func(x int) error {
		atomic.AddInt64(&inFlight, -1)
		return nil
	}
	err := Run(context.Background(), 1, rounds(200), leave, enter,
		func(x int) (int, error) { time.Sleep(time.Microsecond); return x, nil },
		func(x int) (int, error) { return x, nil })
	if err != nil {
		t.Fatal(err)
	}
	// 3 stages + sink with cap 1 between: at most ~8 in flight.
	if m := atomic.LoadInt64(&maxInFlight); m > 10 {
		t.Fatalf("in-flight rounds not bounded: %d", m)
	}
}

func TestConcurrentPipelines(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Many pipelines in parallel (as P processors each run one) must not
	// interfere.
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sum := 0
			errs[k] = Run(context.Background(), 1, rounds(50),
				func(x int) error { sum += x; return nil },
				func(x int) (int, error) { return x + k, nil })
			if errs[k] == nil && sum != 50*49/2+50*k {
				errs[k] = errors.New("bad sum")
			}
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("pipeline %d: %v", k, err)
		}
	}
}

// TestChainFirstFailureWins fails the sink on item 0 while the stage fails
// on item 1, each waiting for the other to hold its item first: Wait
// returns whichever failure came first, and the sink never sees the item
// the stage failed on.
func TestChainFirstFailureWins(t *testing.T) {
	errSink, errStage := errors.New("sink failed"), errors.New("stage failed")
	for _, sinkFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("sinkFirst=%v", sinkFirst), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			g := NewGroup(context.Background())
			failed := g.Context().Done()
			staging, sinking := make(chan struct{}), make(chan struct{})
			var sunk []int
			stage := func(x int) (int, error) {
				if x != 1 {
					return x, nil
				}
				close(staging)
				if sinkFirst {
					<-failed // the sink's failure is recorded
				} else {
					<-sinking
				}
				return 0, errStage
			}
			sink := func(x int) error {
				sunk = append(sunk, x)
				if x != 0 {
					return nil
				}
				close(sinking)
				if sinkFirst {
					<-staging
				} else {
					<-failed // the stage's failure is recorded
				}
				return errSink
			}
			Chain(g, 3, rounds(8), sink, stage)
			err := g.Wait()
			want := errStage
			if sinkFirst {
				want = errSink
			}
			if !errors.Is(err, want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
			if len(sunk) != 1 || sunk[0] != 0 {
				t.Fatalf("the sink saw items %v, want only item 0", sunk)
			}
		})
	}
}

// TestChainCancelWhileEveryStageHolds cancels the parent while the sink
// holds item 0, the stage item 1 and the source item 2: Wait must return
// the parent's cause with every goroutine joined, and the sink must have
// seen a prefix of the stream.
func TestChainCancelWhileEveryStageHolds(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	held := make(chan struct{}, 2)
	hold := func(x, at int) {
		if x == at {
			held <- struct{}{}
			<-ctx.Done()
		}
	}
	source := func(emit func(int) error) error {
		for x := 0; ; x++ {
			if x == 2 {
				<-held
				<-held
				cancel()
			}
			if err := emit(x); err != nil {
				return err
			}
		}
	}
	var sunk []int
	g := NewGroup(ctx)
	Chain(g, 3, source, func(x int) error {
		sunk = append(sunk, x)
		hold(x, 0)
		return nil
	}, func(x int) (int, error) {
		hold(x, 1)
		return x, nil
	})
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, x := range sunk {
		if x != i {
			t.Fatalf("the sink saw items %v, want a prefix of the stream", sunk)
		}
	}
}

func TestGroupWaitNilOnSuccess(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := NewGroup(context.Background())
	var ran atomic.Int32
	for range 3 {
		g.Go(func() error { ran.Add(1); return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("%d of 3 goroutines ran", ran.Load())
	}
}

// TestGroupParentEndedFirst: a parent that ends first is the group's
// cause, not the failure a stage returns after it.
func TestGroupParentEndedFirst(t *testing.T) {
	testutil.CheckGoroutines(t)
	parent, cancel := context.WithCancelCause(context.Background())
	g := NewGroup(parent)
	g.Go(func() error {
		<-g.Context().Done()
		return errors.New("stage failed after the parent ended")
	})
	deadline := errors.New("deadline of the caller")
	cancel(deadline)
	if err := g.Wait(); !errors.Is(err, deadline) {
		t.Fatalf("err = %v, want the parent's cause", err)
	}
}

// TestSendRecvUnblockOnFail: a Send nobody receives and a Recv nobody sends
// to both return the group's cause once it fails; a Recv from a closed
// channel reports it with ok false and no error.
func TestSendRecvUnblockOnFail(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := NewGroup(context.Background())
	var sendErr, recvErr error
	g.Go(func() error {
		sendErr = Send(g.Context(), make(chan int), 1)
		return nil
	})
	g.Go(func() error {
		_, _, recvErr = Recv(g.Context(), make(chan int))
		return nil
	})
	boom := errors.New("boom")
	g.Fail(boom)
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	if !errors.Is(sendErr, boom) || !errors.Is(recvErr, boom) {
		t.Fatalf("Send = %v, Recv = %v, want boom from both", sendErr, recvErr)
	}
	closed := make(chan int)
	close(closed)
	if _, ok, err := Recv(context.Background(), closed); ok || err != nil {
		t.Fatalf("Recv on a closed channel = ok %v, err %v", ok, err)
	}
}

// TestFreeListCycles: two buffers carry ten items through a two-stage
// chain — the source waits for the sink to put one back. After a clean
// run both are back on the list; after a failed one some may be held by a
// stage that stopped, and Release still sees each buffer exactly once. A
// Get on an empty list ends with the group.
func TestFreeListCycles(t *testing.T) {
	testutil.CheckGoroutines(t)
	boom := errors.New("boom")
	for _, failAt := range []int{-1, 6} {
		made := 0
		l := NewFreeList(2, func() *int { made++; return new(int) })
		var got []int
		g := NewGroup(context.Background())
		Chain(g, 2, func(send func(*int) error) error {
			for i := 0; i < 10; i++ {
				b, err := l.Get(g.Context())
				if err != nil {
					return err
				}
				*b = i
				if err := send(b); err != nil {
					return err
				}
			}
			return nil
		}, l.Sink(func(b *int) error {
			if *b == failAt {
				return boom
			}
			got = append(got, *b)
			return nil
		}), func(b *int) (*int, error) { return b, nil })
		err := g.Wait()
		if failAt < 0 && (err != nil || len(got) != 10 || len(l.free) != 2) ||
			failAt >= 0 && (!errors.Is(err, boom) || len(got) != failAt) {
			t.Fatalf("fail at %d: Wait = %v after %d items, %d buffers free", failAt, err, len(got), len(l.free))
		}
		seen := map[*int]bool{}
		l.Release(func(b *int) { seen[b] = true })
		if made != 2 || len(seen) != 2 {
			t.Fatalf("fail at %d: made %d buffers, released %d distinct ones; want 2 and 2", failAt, made, len(seen))
		}
	}
	l := NewFreeList(1, func() int { return 0 })
	g := NewGroup(context.Background())
	g.Go(func() error {
		for range 2 {
			if _, err := l.Get(g.Context()); err != nil {
				return err
			}
		}
		return nil
	})
	time.AfterFunc(10*time.Millisecond, func() { g.Fail(boom) })
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Get on an empty list: Wait = %v, want boom", err)
	}
}
