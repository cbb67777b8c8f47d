package core

import (
	"context"
	"errors"
	"fmt"

	"colsort/internal/pdm"
	"colsort/internal/record"
)

// BatchRunner runs one plan on a sequence of inputs, each through Run. It
// keeps what the calls share — the context, the plan, and the machine with
// its per-processor pools, so every call after the first recycles warm
// buffers — and nothing else: Run is the one executor of a pass program.
//
// No product code calls it; the benchmark's staged replay (bench/replay.go,
// core.batch_mb_s) is written against these three calls.
type BatchRunner struct {
	ctx    context.Context
	pl     Plan
	m      pdm.Machine
	closed bool
}

// NewBatchRunner checks the machine against the plan and gives it pools of
// its own when it has none.
func NewBatchRunner(ctx context.Context, pl Plan, m pdm.Machine) (*BatchRunner, error) {
	if m.P != pl.P || m.D != pl.D {
		return nil, fmt.Errorf("core: machine P=%d D=%d does not match plan P=%d D=%d", m.P, m.D, pl.P, pl.D)
	}
	if m.Pools == nil {
		m.Pools = record.NewPools(pl.P)
	}
	return &BatchRunner{ctx: ctx, pl: pl, m: m}, nil
}

// Run is Run of the runner's plan on input, under the runner's context.
func (br *BatchRunner) Run(input *pdm.Store, hooks Hooks) (*Result, error) {
	if br.closed {
		return nil, errors.New("core: batch runner is closed")
	}
	return Run(br.ctx, br.pl, br.m, input, hooks)
}

// Close makes every later Run fail. The runner holds no goroutine or file,
// so there is nothing to release and the error is always nil.
func (br *BatchRunner) Close() error {
	br.closed = true
	return nil
}
