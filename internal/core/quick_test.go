package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"colsort/internal/cluster"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/verify"
)

// TestRandomLegalConfigs draws random machine/problem shapes, keeps the
// ones each algorithm's planner accepts, and verifies the sort end to end.
// This hunts for divisibility and boundary interactions the fixed grids
// miss.
func TestRandomLegalConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	algs := []Algorithm{Threaded, Threaded4, Subblock, MColumn, Combined}
	ran := 0
	for trial := 0; trial < 400 && ran < 60; trial++ {
		alg := algs[rng.Intn(len(algs))]
		p := 1 << rng.Intn(4)         // 1..8
		mem := 1 << (5 + rng.Intn(6)) // 32..1024
		sPow := 1 + rng.Intn(5)       // s = 2..32 (columns, pre-check)
		var r int64
		if alg == MColumn || alg == Combined {
			r = int64(mem) * int64(p)
		} else {
			r = int64(mem)
		}
		n := r * int64(1<<sPow)
		pl, err := NewPlan(alg, n, p, p, mem, 16)
		if err != nil {
			continue
		}
		ran++
		m := pdm.Machine{P: p, D: p}
		g := record.Uniform{Seed: uint64(trial)}
		input, err := pl.NewInput(m, g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), pl, m, input, Hooks{})
		input.Close()
		if err != nil {
			t.Fatalf("trial %d %s: %v", trial, pl, err)
		}
		if err := verify.Output(res.Output, record.OfGenerated(g, n, 16)); err != nil {
			t.Fatalf("trial %d %s: %v", trial, pl, err)
		}
		res.Output.Close()
	}
	if ran < 20 {
		t.Fatalf("only %d random configs were legal; widen the generator", ran)
	}
}

// TestSeedsQuick: for one fixed legal shape, every seed must sort.
func TestSeedsQuick(t *testing.T) {
	pl, err := NewPlan(Subblock, 256*16, 4, 4, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	m := pdm.Machine{P: 4, D: 4}
	f := func(seed uint64) bool {
		g := record.Uniform{Seed: seed}
		input, err := pl.NewInput(m, g)
		if err != nil {
			return false
		}
		defer input.Close()
		res, err := Run(context.Background(), pl, m, input, Hooks{})
		if err != nil {
			return false
		}
		defer res.Output.Close()
		return verify.Output(res.Output, record.OfGenerated(g, pl.N, 16)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestAdversarialKeyPatterns exercises key patterns known to break naive
// distribution sorts: all-equal, two-value, alternating extremes, and keys
// equal to the pad pattern.
func TestAdversarialKeyPatterns(t *testing.T) {
	patterns := []record.Generator{
		constGen{0},
		constGen{^uint64(0)}, // every key is MaxKey
		alternating{},
		record.Dup{Seed: 1, K: 2},
	}
	for _, g := range patterns {
		runAlg(t, Threaded, 512*8, 4, 4, 512, 16, g)
		runAlg(t, Subblock, 256*16, 4, 4, 256, 16, g)
		runAlg(t, MColumn, 256*8, 4, 4, 64, 16, g)
	}
}

type constGen struct{ k uint64 }

func (g constGen) Name() string { return "const" }
func (g constGen) Gen(rec []byte, idx int64) {
	record.PutKey(rec, g.k)
	// Distinct payloads keep the total order meaningful.
	for off := record.KeyBytes; off+8 <= len(rec); off += 8 {
		record.PutKey(rec[off:], record.Hash64(uint64(idx)))
	}
}

type alternating struct{}

func (alternating) Name() string { return "alternating" }
func (alternating) Gen(rec []byte, idx int64) {
	if idx%2 == 0 {
		record.PutKey(rec, 0)
	} else {
		record.PutKey(rec, ^uint64(0))
	}
	for off := record.KeyBytes; off+8 <= len(rec); off += 8 {
		record.PutKey(rec[off:], record.Hash64(uint64(idx)*3))
	}
}

// TestIntermediateRunStructure verifies the arrival-order design claim:
// after pass 1, every column of the intermediate store consists of s
// contiguous sorted runs of length r/s.
func TestIntermediateRunStructure(t *testing.T) {
	const p, r, s, z = 2, 512, 8, 16
	pl, err := NewPlan(Threaded, r*s, p, p, r, z)
	if err != nil {
		t.Fatal(err)
	}
	m := pdm.Machine{P: p, D: p}
	input, err := pl.NewInput(m, record.Uniform{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer input.Close()

	// Run only pass 1 by constructing the pass list by hand: easiest is a
	// full run whose intermediate we cannot see — so instead run the
	// scatter pass directly.
	passes := passList(pl)
	out, err := m.NewStore(pl.R, pl.S, pl.Z, pl.Layout)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	cnts := make([]sim.Counters, pl.P)
	err = cluster.Run(pl.P, func(pr *cluster.Proc) error {
		return passes[0](pr, input, out, 0, record.NewPool(), &cnts[pr.Rank()], nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < s; j++ {
		col := record.Make(r, z)
		if err := out.ReadRows(nil, out.Owner(0, j), j, 0, col); err != nil {
			t.Fatal(err)
		}
		for run := 0; run < s; run++ {
			sub := col.Sub(run*(r/s), (run+1)*(r/s))
			if !sub.IsSorted() {
				t.Fatalf("column %d run %d not sorted: arrival-order invariant broken", j, run)
			}
		}
	}
}
