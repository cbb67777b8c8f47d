package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"colsort/internal/faultinject"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/verify"
)

// runAlg plans and runs one algorithm end to end on a memory machine,
// verifying sortedness and multiset preservation.
func runAlg(t *testing.T, alg Algorithm, n int64, p, d, mem, z int, g record.Generator) *Result {
	t.Helper()
	pl, err := NewPlan(alg, n, p, d, mem, z)
	if err != nil {
		t.Fatalf("%v N=%d P=%d mem=%d: plan: %v", alg, n, p, mem, err)
	}
	m := pdm.Machine{P: p, D: d}
	input, err := pl.NewInput(m, g)
	if err != nil {
		t.Fatal(err)
	}
	defer input.Close()
	res, err := Run(context.Background(), pl, m, input, Hooks{})
	if err != nil {
		t.Fatalf("%v %s: %v", alg, pl, err)
	}
	t.Cleanup(func() { res.Output.Close() })
	want := record.OfGenerated(g, n, z)
	if err := verify.Output(res.Output, want); err != nil {
		t.Fatalf("%v %s gen=%s: %v", alg, pl, g.Name(), err)
	}
	return res
}

func TestThreadedColumnsortGrid(t *testing.T) {
	// r=512, s up to 16 obeys r ≥ 2s²; sweep processors and record sizes.
	for _, p := range []int{1, 2, 4} {
		for _, z := range []int{16, 64} {
			for _, n := range []int64{512 * 4, 512 * 8, 512 * 16} {
				runAlg(t, Threaded, n, p, 2*p, 512, z, record.Uniform{Seed: uint64(n) + uint64(p)})
			}
		}
	}
}

func TestThreaded4PassGrid(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		runAlg(t, Threaded4, 512*8, p, p, 512, 16, record.Uniform{Seed: 7})
	}
}

func TestSubblockColumnsortGrid(t *testing.T) {
	// Subblock needs s a power of 4 and r ≥ 4·s^{3/2}: r=256, s=16 is the
	// boundary (4·16·4 = 256).
	for _, p := range []int{1, 2, 4, 8, 16} {
		runAlg(t, Subblock, 256*16, p, p, 256, 16, record.Uniform{Seed: uint64(p)})
	}
	// s = 4 with minimum legal r = 32.
	runAlg(t, Subblock, 32*4, 2, 2, 32, 16, record.Uniform{Seed: 3})
	// Wide records.
	runAlg(t, Subblock, 256*16, 4, 8, 256, 128, record.Uniform{Seed: 5})
}

func TestMColumnsortGrid(t *testing.T) {
	// M-columnsort: r = mem·P; in-core needs mem ≥ 2P².
	for _, cfg := range []struct{ p, mem, s int }{
		{2, 32, 4},
		{4, 64, 8},
		{4, 64, 16}, // r=256, s=16: r ≥ 2s² boundary (512)... s=16 needs r≥512
	} {
		r := cfg.p * cfg.mem
		if r < 2*cfg.s*cfg.s {
			continue
		}
		n := int64(r) * int64(cfg.s)
		runAlg(t, MColumn, n, cfg.p, cfg.p, cfg.mem, 16, record.Uniform{Seed: uint64(cfg.s)})
	}
}

func TestMColumnsortFewerColumnsThanProcs(t *testing.T) {
	// Regression: when s < P a processor's rank block straddles target
	// column chunks in the step-4 redistribution; the occurrence index
	// must be computed from the global rank, not a sender-local counter.
	for _, cfg := range []struct{ p, mem, s int }{
		{8, 128, 4}, // r=1024, s=4 < P=8
		{8, 2048, 2},
		{4, 64, 2},
		{16, 512, 4},
	} {
		r := cfg.p * cfg.mem
		n := int64(r) * int64(cfg.s)
		runAlg(t, MColumn, n, cfg.p, cfg.p, cfg.mem, 16, record.Uniform{Seed: uint64(cfg.p + cfg.s)})
	}
}

func TestMColumnsortLarger(t *testing.T) {
	// 8 processors, mem=128 ⇒ r=1024, s=16: exercises multi-round
	// pipelining of the distributed sort.
	runAlg(t, MColumn, 1024*16, 8, 16, 128, 16, record.Uniform{Seed: 11})
}

func TestCombinedGrid(t *testing.T) {
	// Combined: r = mem·P with subblock restrictions: s power of 4,
	// r ≥ 4·s^{3/2}, s | r/P.
	// P=4, mem=64 ⇒ r=256, s=16: 4·16·4=256 ✓; r/P=64, s|64 ✓.
	runAlg(t, Combined, 256*16, 4, 4, 64, 16, record.Uniform{Seed: 2})
	// P=2, mem=32 ⇒ r=64, s=4.
	runAlg(t, Combined, 64*4, 2, 4, 32, 16, record.Uniform{Seed: 4})
}

func TestAllAlgorithmsAllGenerators(t *testing.T) {
	gens := []record.Generator{
		record.Uniform{Seed: 1},
		record.Dup{Seed: 2, K: 3},
		record.Sorted{Seed: 3},
		record.Reverse{Seed: 4},
		record.NearlySorted{Seed: 5, Window: 64},
		record.Zipf{Seed: 6},
		record.Gaussian{Seed: 7},
	}
	for _, g := range gens {
		runAlg(t, Threaded, 512*8, 4, 4, 512, 16, g)
		runAlg(t, Subblock, 256*16, 4, 4, 256, 16, g)
		runAlg(t, MColumn, 256*8, 4, 4, 64, 16, g)
		runAlg(t, Combined, 256*16, 4, 4, 64, 16, g)
	}
}

func TestOutputsAgreeAcrossAlgorithms(t *testing.T) {
	// The same input must produce byte-identical sorted output from every
	// algorithm (the payload tie-break makes the sorted order total).
	g := record.Dup{Seed: 13, K: 7}
	const n, z = 256 * 16, 16
	snapshots := make(map[string][]byte)
	for _, tc := range []struct {
		alg       Algorithm
		p, d, mem int
	}{
		{Threaded, 4, 4, 1024}, // r=1024, s=4... n/r=4 ✓
		{Threaded4, 4, 4, 1024},
		{Subblock, 4, 4, 256}, // r=256, s=16
		{MColumn, 4, 4, 256},  // r=1024, s=4
		{Combined, 4, 4, 64},  // r=256, s=16
	} {
		res := runAlg(t, tc.alg, n, tc.p, tc.d, tc.mem, z, g)
		snap, err := res.Output.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snapshots[tc.alg.String()] = snap.Data
	}
	ref := snapshots["threaded"]
	for name, data := range snapshots {
		if len(data) != len(ref) {
			t.Fatalf("%s output length differs", name)
		}
		for i := range data {
			if data[i] != ref[i] {
				t.Fatalf("%s output differs from threaded at byte %d", name, i)
			}
		}
	}
}

func TestFileBackend(t *testing.T) {
	// A genuinely out-of-core run: file-backed disks.
	pl, err := NewPlan(Threaded, 512*8, 2, 4, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	m := pdm.Machine{P: 2, D: 4, Backend: pdm.FileBackend{Dir: t.TempDir()}}
	g := record.Uniform{Seed: 21}
	input, err := pl.NewInput(m, g)
	if err != nil {
		t.Fatal(err)
	}
	defer input.Close()
	res, err := Run(context.Background(), pl, m, input, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Output.Close()
	if err := verify.Output(res.Output, record.OfGenerated(g, pl.N, pl.Z)); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinePreservesData(t *testing.T) {
	for _, alg := range []Algorithm{BaselineIO3, BaselineIO4} {
		pl, err := NewPlan(alg, 512*8, 4, 4, 512, 16)
		if err != nil {
			t.Fatal(err)
		}
		m := pdm.Machine{P: 4, D: 4}
		g := record.Uniform{Seed: 30}
		input, err := pl.NewInput(m, g)
		if err != nil {
			t.Fatal(err)
		}
		defer input.Close()
		res, err := Run(context.Background(), pl, m, input, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Output.Close()
		// Baselines copy, not sort.
		if got, err := res.Output.Checksum(); err != nil {
			t.Fatal(err)
		} else if !got.Equal(record.OfGenerated(g, pl.N, pl.Z)) {
			t.Fatalf("%v lost or changed records", alg)
		}
		if len(res.PassCounters) != alg.Passes() {
			t.Fatalf("%v ran %d passes", alg, len(res.PassCounters))
		}
	}
}

func TestSingleColumnDegenerate(t *testing.T) {
	// N == r: one column; every pass is read-sort-write.
	res := runAlg(t, Threaded, 512, 1, 1, 512, 16, record.Uniform{Seed: 40})
	if len(res.PassCounters) != 3 {
		t.Fatalf("expected 3 passes, got %d", len(res.PassCounters))
	}
}

func TestPlanValidation(t *testing.T) {
	cases := []struct {
		name         string
		alg          Algorithm
		n            int64
		p, d, mem, z int
		wantErr      string
	}{
		{"bad record size", Threaded, 1 << 12, 2, 2, 512, 12, "record"},
		{"P not pow2", Threaded, 1 << 12, 3, 3, 512, 16, "power of 2"},
		{"D not multiple", Threaded, 1 << 12, 2, 3, 512, 16, "P | D"},
		{"N not pow2", Threaded, 1000, 2, 2, 512, 16, "power of 2"},
		{"height violated", Threaded, 512 * 64, 2, 2, 512, 16, "height restriction"},
		{"subblock s pow4", Subblock, 256 * 8, 2, 2, 256, 16, "power of 4"},
		{"subblock height", Subblock, 128 * 16, 2, 2, 128, 16, "relaxed height"},
		{"mcol needs P>=2", MColumn, 1 << 12, 1, 1, 4096, 16, "P ≥ 2"},
		{"mcol in-core", MColumn, 256, 4, 4, 16, 16, "in-core height"},
		{"s not div P", Threaded, 512 * 2, 4, 4, 512, 16, "divide s"},
		{"N below r", Threaded, 256, 1, 1, 512, 16, "smaller than one column"},
		{"mem not pow2", Threaded, 1 << 12, 2, 2, 500, 16, "power of 2"},
	}
	for _, c := range cases {
		_, err := NewPlan(c.alg, c.n, c.p, c.d, c.mem, c.z)
		if err == nil {
			t.Errorf("%s: plan accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// TestPlanTooLargeBeyondSquare: N > r² (more columns than rows) is beyond
// every height restriction — ErrTooLarge, not a divisibility failure a
// larger N might repair — and stays so however far N grows. The baselines
// have no height restriction, but N ≤ r² bounds them too.
func TestPlanTooLargeBeyondSquare(t *testing.T) {
	const p, mem, z = 4, 256, 64
	plan := func(alg Algorithm, n int64) error {
		if alg == Hybrid {
			_, err := NewHybridPlan(n, p, p, mem, z, 2)
			return err
		}
		_, err := NewPlan(alg, n, p, p, mem, z)
		return err
	}
	for _, alg := range []Algorithm{Threaded4, Threaded, Subblock, MColumn, Combined, Hybrid, BaselineIO3, BaselineIO4} {
		r := int64(mem)
		switch alg {
		case MColumn, Combined:
			r *= p
		case Hybrid:
			r *= 2
		}
		for n := 2 * r * r; n > 0 && n <= 1<<62; n *= 2 {
			err := plan(alg, n)
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("%v N=%d (s=%d > r=%d): err = %v, want ErrTooLarge", alg, n, n/r, r, err)
			}
			if restricted := alg != BaselineIO3 && alg != BaselineIO4; errors.Is(err, ErrHeightRestriction) != restricted {
				t.Fatalf("%v N=%d: errors.Is(ErrHeightRestriction) = %v, want %v: %v", alg, n, !restricted, restricted, err)
			}
		}
	}
}

func TestPlanFields(t *testing.T) {
	pl, err := NewPlan(MColumn, 256*8, 4, 8, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if pl.R != 256 || pl.S != 8 || pl.Layout != pdm.RowBlocked {
		t.Fatalf("plan wrong: %+v", pl)
	}
	if pl.Rounds() != 8 {
		t.Fatalf("rounds = %d", pl.Rounds())
	}
	if pl.String() == "" {
		t.Fatal("empty plan string")
	}
	pl2, err := NewPlan(Threaded, 512*8, 4, 8, 512, 32)
	if err != nil {
		t.Fatal(err)
	}
	if pl2.Rounds() != 2 || pl2.Layout != pdm.ColumnOwned {
		t.Fatalf("threaded plan wrong: %+v", pl2)
	}
}

func TestRunRejectsMismatchedInput(t *testing.T) {
	pl, _ := NewPlan(Threaded, 512*8, 2, 2, 512, 16)
	m := pdm.Machine{P: 2, D: 2}
	wrong, err := m.NewStore(256, 16, 16, pdm.ColumnOwned)
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	if _, err := Run(context.Background(), pl, m, wrong, Hooks{}); err == nil {
		t.Fatal("mismatched input store accepted")
	}
	badMachine := pdm.Machine{P: 4, D: 4}
	good, err := (pdm.Machine{P: 2, D: 2}).NewStore(512, 8, 16, pdm.ColumnOwned)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if _, err := Run(context.Background(), pl, badMachine, good, Hooks{}); err == nil {
		t.Fatal("mismatched machine accepted")
	}
}

func TestDiskFaultPropagates(t *testing.T) {
	pl, err := NewPlan(Threaded, 512*8, 2, 2, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	m := pdm.Machine{P: 2, D: 2}
	input, err := pl.NewInput(m, record.Uniform{Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer input.Close()
	// Wrap processor 1's disk so it fails partway through pass 1 reads.
	inner := input.Arrays[1].Disks[0]
	input.Arrays[1].Disks[0] = &faultinject.FaultDisk{Inner: inner, Budget: 3 * 512 * 16 / 2}
	_, err = Run(context.Background(), pl, m, input, Hooks{})
	if err == nil {
		t.Fatal("injected disk fault did not surface")
	}
	if !strings.Contains(err.Error(), "injected disk fault") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// finalFaultBackend builds memory disks, wrapping those of the store built
// after the first skip disks in a FaultDisk of the given budget.
type finalFaultBackend struct {
	skip, made int
	budget     int64
}

func (b *finalFaultBackend) NewDisk(int) (pdm.Disk, error) {
	b.made++
	if b.made <= b.skip {
		return pdm.NewMemDisk(), nil
	}
	return &faultinject.FaultDisk{Inner: pdm.NewMemDisk(), Budget: b.budget}, nil
}

// TestAsyncDeferredWriteFailsPass: on async disks a write fails only when
// its queue drains, so a fault in the final pass's last write surfaces
// only when the pass flushes its output. Each disk of the final pass's
// output store may take one byte fewer than the pass writes to it: Run must
// fail with the injected fault, for each kind of final pass (the g = 1
// boundary pass, the group merge pass at g = P, the baseline's copy pass),
// and a budget of exactly those bytes must succeed.
func TestAsyncDeferredWriteFailsPass(t *testing.T) {
	for _, alg := range []Algorithm{Threaded, MColumn, BaselineIO3} {
		t.Run(alg.String(), func(t *testing.T) {
			pl, err := NewPlan(alg, 512*8, 2, 2, 512, 16)
			if err != nil {
				t.Fatal(err)
			}
			perDisk := int64(pl.R) * int64(pl.S) * int64(pl.Z) / int64(pl.D)
			for _, spare := range []int64{0, 1} {
				// The input and the alg.Passes()−1 stores before the output.
				b := &finalFaultBackend{skip: alg.Passes() * pl.D, budget: perDisk - spare}
				m := pdm.Machine{P: pl.P, D: pl.D, Backend: b, Async: &pdm.AsyncConfig{}}
				input, err := pl.NewInput(m, record.Uniform{Seed: 51})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), pl, m, input, Hooks{})
				input.Close()
				if spare == 0 {
					if err != nil {
						t.Fatalf("a budget of every byte written failed the run: %v", err)
					}
					res.Output.Close()
				} else if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("err = %v, want the injected fault of the final pass's last write", err)
				}
			}
		})
	}
}

func TestAlgorithmMeta(t *testing.T) {
	if Threaded.Passes() != 3 || Subblock.Passes() != 4 || MColumn.Passes() != 3 ||
		Combined.Passes() != 4 || Threaded4.Passes() != 4 ||
		BaselineIO3.Passes() != 3 || BaselineIO4.Passes() != 4 {
		t.Fatal("pass counts wrong")
	}
	for _, a := range []Algorithm{Threaded4, Threaded, Subblock, MColumn, Combined, BaselineIO3, BaselineIO4} {
		if a.String() == "" || strings.HasPrefix(a.String(), "Algorithm(") {
			t.Fatalf("missing name for %d", int(a))
		}
	}
}
