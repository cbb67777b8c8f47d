package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

func batchPlan(t *testing.T) (Plan, pdm.Machine) {
	t.Helper()
	const p, mem, z = 4, 256, 16
	pl, err := NewPlan(Threaded, 1<<11, p, p, mem, z)
	if err != nil {
		t.Fatal(err)
	}
	return pl, pdm.Machine{P: p, D: p, Pools: record.NewPools(p)}
}

// TestBatchRunnerMatchesRun pins that B batches through one runner produce
// byte-identical outputs and identical counters to B independent core.Run
// calls, and that a closed runner refuses work.
func TestBatchRunnerMatchesRun(t *testing.T) {
	testutil.CheckGoroutines(t)
	pl, m := batchPlan(t)
	br, err := NewBatchRunner(context.Background(), pl, m)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	for b := 0; b < 3; b++ {
		gen := record.Uniform{Seed: uint64(100 + b)}
		in1, err := pl.NewInput(m, gen)
		if err != nil {
			t.Fatal(err)
		}
		in2, err := pl.NewInput(m, gen)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(context.Background(), pl, m, in1, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := br.Run(in2, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := want.Output.Snapshot()
		bb, _ := got.Output.Snapshot()
		if !bytes.Equal(a.Data, bb.Data) {
			t.Fatalf("batch %d: BatchRunner output differs from core.Run", b)
		}
		if !reflect.DeepEqual(want.PassCounters, got.PassCounters) {
			t.Fatalf("batch %d: BatchRunner counters differ from core.Run", b)
		}
		want.Output.Close()
		got.Output.Close()
		in1.Close()
		in2.Close()
	}
	if err := br.Close(); err != nil {
		t.Fatal(err)
	}
	in, err := pl.NewInput(m, record.Uniform{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if _, err := br.Run(in, Hooks{}); err == nil {
		t.Fatal("Run on a closed BatchRunner returned no error")
	}
}

// TestBatchRunnerCancel cancels the runner's context mid-stream: the
// in-flight batch fails with the context's error, later batches fail fast,
// and Close leaves no goroutines behind.
func TestBatchRunnerCancel(t *testing.T) {
	dir := t.TempDir()
	testutil.CheckLeaks(t, dir)
	pl, m := batchPlan(t)
	m.Backend = pdm.FileBackend{Dir: dir}
	m.Async = &pdm.AsyncConfig{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	br, err := NewBatchRunner(ctx, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	in, err := pl.NewInput(m, record.Uniform{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	res, err := br.Run(in, Hooks{Progress: func(ev Progress) {
		if ev.Pass == 2 {
			cancel()
		}
	}})
	if err == nil {
		res.Output.Close()
		t.Fatal("cancelled batch returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	in2, err := pl.NewInput(m, record.Uniform{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Close()
	if _, err := br.Run(in2, Hooks{}); err == nil {
		t.Fatal("Run under a cancelled context returned no error")
	}
	br.Close()
}
