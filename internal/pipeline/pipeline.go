// Package pipeline provides the asynchronous staged pipeline that structures
// every out-of-core columnsort pass.
//
// The paper's threaded implementation [CC02] gives each processor a small
// set of threads (read/write I/O, sort, communicate, permute) connected into
// a pipeline so that at any moment each stage can be working on a different
// round. The Go port runs each stage as a goroutine connected to its
// neighbours by bounded channels; bounded capacity is what bounds the number
// of in-flight rounds and therefore the memory in use, exactly as the
// paper's fixed buffer pools do.
package pipeline

import (
	"fmt"
	"sync"
)

// Stage transforms one in-flight item (a pipeline round). Stages run
// concurrently with each other; a given stage sees items in source order.
type Stage[T any] func(item T) (T, error)

// RunDrain drives items from source through the stages into sink.
//
// source calls emit once per item and returns; each stage runs in its own
// goroutine; sink consumes items in order. chanCap bounds the items queued
// between adjacent stages (the paper's buffer-pool depth); the total number
// of in-flight rounds is at most (stages+1)·(chanCap+1).
//
// drain, when non-nil, is the I/O-completion hook: after the sink has
// consumed every item of an otherwise error-free run, it is invoked inside
// the pipeline scope, so its error — typically a write-behind Flush
// surfacing a deferred disk failure — is reported as the pipeline's error.
//
// The first error from any stage, the source, the sink or drain cancels the
// whole pipeline and is returned.
func RunDrain[T any](chanCap int, source func(emit func(T) error) error, sink func(T) error, drain func() error, stages ...Stage[T]) error {
	if chanCap < 0 {
		return fmt.Errorf("pipeline: negative channel capacity %d", chanCap)
	}
	done := make(chan struct{})
	var once sync.Once
	var firstErr error
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			close(done)
		})
	}

	chans := make([]chan T, len(stages)+1)
	for i := range chans {
		chans[i] = make(chan T, chanCap)
	}

	var wg sync.WaitGroup

	// Source.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chans[0])
		emit := func(item T) error {
			select {
			case chans[0] <- item:
				return nil
			case <-done:
				return firstErrLocked(&once, &firstErr)
			}
		}
		if err := source(emit); err != nil {
			fail(err)
		}
	}()

	// Stages.
	for i, st := range stages {
		wg.Add(1)
		go func(i int, st Stage[T]) {
			defer wg.Done()
			defer close(chans[i+1])
			for item := range chans[i] {
				out, err := st(item)
				if err != nil {
					fail(err)
					return
				}
				select {
				case chans[i+1] <- out:
				case <-done:
					return
				}
			}
		}(i, st)
	}

	// Sink.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for item := range chans[len(stages)] {
			if err := sink(item); err != nil {
				fail(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
		if drain != nil {
			select {
			case <-done: // a failure upstream: nothing left to complete
			default:
				if err := drain(); err != nil {
					fail(err)
				}
			}
		}
	}()

	wg.Wait()
	return firstErr
}

// firstErrLocked returns the recorded first error, ensuring a canceled
// emit reports the root cause rather than a generic message.
func firstErrLocked(once *sync.Once, firstErr *error) error {
	// By the time done is closed, firstErr has been written under once.
	if *firstErr != nil {
		return *firstErr
	}
	return fmt.Errorf("pipeline: canceled")
}
