// Package pipeline runs every staged pipeline of the engine: the
// out-of-core columnsort passes, run formation, the merges, and the ingest
// and drain of a single-run sort.
//
// The paper's threaded implementation [CC02] gives each processor a small
// set of threads (read/write I/O, sort, communicate, permute) connected into
// a pipeline so that at any moment each stage can be working on a different
// round. The Go port runs each stage as a goroutine of a Group, connected to
// its neighbours by bounded channels; bounded capacity is what bounds the
// number of in-flight rounds and therefore the memory in use, exactly as the
// paper's fixed buffer pools do. A wait on a neighbour that could outlive it
// is a Send or a Recv on the group's context, so it ends when the group does.
package pipeline

import (
	"context"
	"fmt"
	"sync"
)

// A Group runs stage goroutines that stop together: the first failure
// cancels the group's context with that failure as its cause, and Wait
// joins every goroutine the group started.
type Group struct {
	ctx  context.Context
	fail context.CancelCauseFunc
	wg   sync.WaitGroup
}

// NewGroup returns an empty group whose context derives from ctx.
func NewGroup(ctx context.Context) *Group {
	g := &Group{}
	g.ctx, g.fail = context.WithCancelCause(ctx)
	return g
}

// Context is done once a goroutine of the group has failed or the parent
// context is done; its cause is the first failure, or the parent's.
func (g *Group) Context() context.Context { return g.ctx }

// Go runs f on a new goroutine of the group; an error from f fails it.
func (g *Group) Go(f func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := f(); err != nil {
			g.fail(err)
		}
	}()
}

// Fail ends the group with err as its cause, unless it has already ended.
func (g *Group) Fail(err error) { g.fail(err) }

// Wait joins every goroutine of the group and returns the first failure,
// the parent's cause when the parent ended first, or nil.
func (g *Group) Wait() error {
	g.wg.Wait()
	err := context.Cause(g.ctx)
	g.fail(nil)
	return err
}

// Send sends v on ch, or returns ctx's cause once ctx is done first.
func Send[T any](ctx context.Context, ch chan<- T, v T) error {
	select {
	case ch <- v:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Recv receives from ch, or returns ctx's cause once ctx is done first; ok
// is false, with a nil error, when ch is closed.
func Recv[T any](ctx context.Context, ch <-chan T) (v T, ok bool, err error) {
	select {
	case v, ok = <-ch:
		return v, ok, nil
	case <-ctx.Done():
		return v, false, context.Cause(ctx)
	}
}

// Stage transforms one in-flight item (a pipeline round). Stages run
// concurrently with each other; a given stage sees items in source order.
type Stage[T any] func(item T) (T, error)

// Chain starts a linear pipeline on g: source calls emit once per item and
// returns; each stage runs on its own goroutine; sink consumes the items in
// order. chanCap (≥ 0) bounds the items queued between adjacent goroutines
// (the paper's buffer-pool depth); the total number of in-flight rounds is
// at most (stages+1)·(chanCap+1). Once the group has ended, no stage or
// sink takes another item, so an item a stage failed on never reaches the
// sink, and emit returns the group's cause.
func Chain[T any](g *Group, chanCap int, source func(emit func(T) error) error, sink func(T) error, stages ...Stage[T]) {
	ctx := g.Context()
	in := make(chan T, chanCap)
	first := in
	g.Go(func() error {
		defer close(first)
		return source(func(item T) error { return Send(ctx, first, item) })
	})
	for _, st := range stages {
		src, out := in, make(chan T, chanCap)
		g.Go(func() error {
			defer close(out)
			return each(ctx, src, func(item T) error {
				item, err := st(item)
				if err != nil {
					return err
				}
				return Send(ctx, out, item)
			})
		})
		in = out
	}
	last := in
	g.Go(func() error { return each(ctx, last, sink) })
}

// each calls f on the items of in, in order, until in is closed, f fails or
// ctx is done.
func each[T any](ctx context.Context, in <-chan T, f func(T) error) error {
	done := ctx.Done()
	for item := range in {
		select {
		case <-done:
			return nil // the group has ended; Wait reports why
		default:
		}
		if err := f(item); err != nil {
			return err
		}
	}
	return nil
}

// Run drives items from source through the stages into sink, as Chain on a
// group of its own, and returns the group's first failure once every
// goroutine has exited.
func Run[T any](ctx context.Context, chanCap int, source func(emit func(T) error) error, sink func(T) error, stages ...Stage[T]) error {
	if chanCap < 0 {
		return fmt.Errorf("pipeline: negative channel capacity %d", chanCap)
	}
	g := NewGroup(ctx)
	Chain(g, chanCap, source, sink, stages...)
	return g.Wait()
}

// A FreeList is a fixed set of buffers cycling through a Chain — the
// paper's fixed buffer pool: the source takes a free buffer with Get, the
// sink hands it back (Sink), and once the group has been joined Release
// returns every buffer to its owner, whatever the outcome. The list holds
// every buffer there is, so a put-back never blocks; only Get waits.
type FreeList[T any] struct {
	all  []T
	free chan T
}

// NewFreeList returns a list of n buffers made by alloc, all free.
func NewFreeList[T any](n int, alloc func() T) *FreeList[T] {
	l := &FreeList[T]{all: make([]T, n), free: make(chan T, n)}
	for i := range l.all {
		l.all[i] = alloc()
		l.free <- l.all[i]
	}
	return l
}

// Get takes a free buffer, waiting for one until ctx is done.
func (l *FreeList[T]) Get(ctx context.Context) (T, error) {
	v, _, err := Recv(ctx, l.free)
	return v, err
}

// Sink wraps a chain's sink so that every buffer it is handed goes back on
// the list after f, whatever f returns.
func (l *FreeList[T]) Sink(f func(T) error) func(T) error {
	return func(v T) error {
		err := f(v)
		l.free <- v
		return err
	}
}

// Release hands every buffer to put; call it after the group's Wait.
func (l *FreeList[T]) Release(put func(T)) {
	for _, v := range l.all {
		put(v)
	}
}
