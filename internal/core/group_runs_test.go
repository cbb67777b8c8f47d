package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"colsort/internal/cluster"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/verify"
)

// TestGroupRunStructure proves the hint the group program hands its in-group
// sorter, not just the output it yields: over every shape of the golden grid
// (the s < g shapes, where a rank block straddles target columns, included),
// after every non-final pass each member's block of each column in the
// intermediate store is a concatenation of ascending runs of exactly the
// length the next pass's spec declares — and not of twice that length, so the
// declaration is the structure the pass left, not a safe under-claim.
func TestGroupRunStructure(t *testing.T) {
	for _, c := range groupCases(t) {
		pl := c.plan(t)
		m := pdm.Machine{P: c.p, D: c.p}
		specs := groupSpecs(pl)
		passes := groupPasses(pl, specs)
		g, ng, rb := pl.Group, pl.P/pl.Group, pl.R/pl.Group
		pools := record.NewPools(pl.P)
		in, err := pl.NewInput(m, record.Uniform{Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k+1 < len(specs); k++ {
			out, err := pl.NewStore(m)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			cnts := make([]sim.Counters, pl.P)
			err = cluster.RunCtx(ctx, pl.P, func(pr *cluster.Proc) error {
				return passes[k](pr, in, out, k*passTagWindow(pl), pools[pr.Rank()], &cnts[pr.Rank()], nil)
			})
			cancel()
			in.Close()
			in = out
			if err != nil {
				t.Fatalf("%s: %s: %v", pl, specs[k].name, err)
			}

			runLen := specs[k+1].runLen
			if runLen <= 0 || rb%runLen != 0 {
				t.Fatalf("%s: %s declares runs of %d in blocks of %d", pl, specs[k+1].name, runLen, rb)
			}
			tight := 2*runLen > rb // one run per block: nothing longer to claim
			block := record.Make(rb, pl.Z)
			for j := 0; j < pl.S; j++ {
				for mm := 0; mm < g; mm++ {
					if err := in.ReadRows(nil, (j%ng)*g+mm, j, mm*rb, block); err != nil {
						t.Fatal(err)
					}
					for lo := 0; lo < rb; lo += runLen {
						if !block.Sub(lo, lo+runLen).IsSorted() {
							t.Fatalf("%s: after %s, column %d member %d rows [%d,%d) are not the ascending run %s declares",
								pl, specs[k].name, j, mm, lo, lo+runLen, specs[k+1].name)
						}
					}
					for lo := 0; lo+2*runLen <= rb; lo += 2 * runLen {
						tight = tight || !block.Sub(lo, lo+2*runLen).IsSorted()
					}
				}
			}
			if !tight {
				t.Fatalf("%s: %s declares runs of %d, but %s left every block in runs twice as long",
					pl, specs[k+1].name, runLen, specs[k].name)
			}
		}
		in.Close()
	}
}

// TestWrongRunHintFailsVerify feeds the engine a pass program whose second
// pass declares a run length its input does not have. The merges then emit
// their input in a wrong order — nothing faults, no record is lost — and the
// standard output verification (what colsort.Result.Verify runs) must report
// the order violation: a wrong hint may never produce a sorted-looking result.
func TestWrongRunHintFailsVerify(t *testing.T) {
	for _, c := range []groupCase{
		{alg: MColumn, p: 4, mem: 64, s: 4},
		{alg: Hybrid, p: 8, g: 2, mem: 128, s: 8},
	} {
		pl := c.plan(t)
		rb := pl.R / pl.Group
		honest := groupSpecs(pl)[1].runLen
		for _, wrong := range []int{2 * honest, rb} { // runs twice as long; blocks already sorted
			specs := groupSpecs(pl)
			specs[1].runLen = wrong
			m := pdm.Machine{P: c.p, D: c.p}
			gen := record.Uniform{Seed: 23}
			input, err := pl.NewInput(m, gen)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			res, err := runPassList(ctx, pl, m, input, Hooks{}, groupPasses(pl, specs))
			cancel()
			input.Close()
			if err != nil {
				t.Fatalf("%s runLen %d for %d: the passes must complete, got %v", pl, wrong, honest, err)
			}
			err = verify.Output(res.Output, record.OfGenerated(gen, pl.N, pl.Z))
			res.Output.Close()
			var verr *verify.Error
			if !errors.As(err, &verr) || verr.Kind != "order violation" {
				t.Fatalf("%s runLen %d for %d: verify returned %v, want an order violation", pl, wrong, honest, err)
			}
		}
	}
}
