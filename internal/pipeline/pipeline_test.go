package pipeline

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
	var got []int
	double := func(x int) (int, error) { return x * 2, nil }
	inc := func(x int) (int, error) { return x + 1, nil }
	err := RunDrain(1, rounds(100),
		func(x int) error { got = append(got, x); return nil }, nil,
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
	sum := 0
	err := RunDrain(0, rounds(10), func(x int) error { sum += x; return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 45 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestStagesOverlap(t *testing.T) {
	// Two stages that sleep must overlap: total wall time for n items
	// through 2 stages of d delay each must be well under serial 2·n·d.
	const n, d = 8, 10 * time.Millisecond
	slow := func(x int) (int, error) { time.Sleep(d); return x, nil }
	start := time.Now()
	err := RunDrain(1, rounds(n), func(int) error { return nil }, nil, slow, slow)
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
	boom := errors.New("boom")
	err := RunDrain(1, rounds(1000),
		func(int) error { return nil }, nil,
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
	boom := errors.New("src")
	err := RunDrain(1, func(emit func(int) error) error { return boom },
		func(int) error { return nil }, nil,
		func(x int) (int, error) { return x, nil })
	if !errors.Is(err, boom) {
		t.Fatalf("want src error, got %v", err)
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	boom := errors.New("sink")
	err := RunDrain(2, rounds(1000),
		func(x int) error {
			if x == 3 {
				return boom
			}
			return nil
		}, nil,
		func(x int) (int, error) { return x, nil })
	if !errors.Is(err, boom) {
		t.Fatalf("want sink error, got %v", err)
	}
}

func TestErrorUnblocksFastSource(t *testing.T) {
	// The source emits many items into a tiny channel; an early sink error
	// must unblock the source promptly rather than deadlock.
	boom := errors.New("early")
	done := make(chan error, 1)
	go func() {
		done <- RunDrain(0, rounds(1_000_000),
			func(x int) error { return boom }, nil,
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
	if err := RunDrain(-1, rounds(1), func(int) error { return nil }, nil); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestBoundedInFlight(t *testing.T) {
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
	err := RunDrain(1, rounds(200), leave, nil, enter,
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
	// Many pipelines in parallel (as P processors each run one) must not
	// interfere.
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sum := 0
			errs[k] = RunDrain(1, rounds(50),
				func(x int) error { sum += x; return nil }, nil,
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

func TestRunDrainCalledAfterSink(t *testing.T) {
	var mu sync.Mutex
	var consumed int
	drained := false
	err := RunDrain(1, rounds(5),
		func(int) error {
			mu.Lock()
			defer mu.Unlock()
			if drained {
				t.Error("drain ran before the sink finished")
			}
			consumed++
			return nil
		},
		func() error {
			mu.Lock()
			defer mu.Unlock()
			if consumed != 5 {
				t.Errorf("drain ran after %d of 5 items", consumed)
			}
			drained = true
			return nil
		},
		func(x int) (int, error) { return x, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("drain never ran")
	}
}

func TestRunDrainErrorPropagates(t *testing.T) {
	want := errors.New("deferred write failure")
	err := RunDrain(1, rounds(3),
		func(int) error { return nil },
		func() error { return want })
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want drain error", err)
	}
}

func TestRunDrainSkippedOnFailure(t *testing.T) {
	boom := errors.New("stage failure")
	var drainRan atomic.Bool
	err := RunDrain(1, rounds(10),
		func(int) error { return nil },
		func() error { drainRan.Store(true); return nil },
		func(x int) (int, error) {
			if x == 2 {
				return 0, boom
			}
			return x, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want stage error", err)
	}
	if drainRan.Load() {
		t.Fatal("drain ran on a failed pipeline")
	}
}
