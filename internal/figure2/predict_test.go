package figure2

import (
	"context"
	"math"
	"testing"

	"colsort/internal/core"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
)

// measure runs the real algorithm and returns per-pass whole-cluster
// totals.
func measure(t *testing.T, pl core.Plan) []sim.Counters {
	t.Helper()
	m := pdm.Machine{P: pl.P, D: pl.D}
	input, err := pl.NewInput(m, record.Uniform{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer input.Close()
	res, err := core.Run(context.Background(), pl, m, input, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Output.Close()
	totals := make([]sim.Counters, len(res.PassCounters))
	for k, pass := range res.PassCounters {
		for _, c := range pass {
			totals[k].Add(c)
		}
	}
	return totals
}

// predictTotalsFor exposes the whole-cluster closed forms (the per-proc
// view divides by P and would lose low-order message counts to rounding).
func predictTotalsFor(t *testing.T, pl core.Plan) []sim.Counters {
	t.Helper()
	totals, err := predictTotals(pl)
	if err != nil {
		t.Fatal(err)
	}
	return totals
}

// validationPlans is the grid of small legal configurations on which the
// closed forms must match measured counters.
func validationPlans(t *testing.T) []core.Plan {
	t.Helper()
	mk := func(alg core.Algorithm, n int64, p, d, mem, z int) core.Plan {
		pl, err := core.NewPlan(alg, n, p, d, mem, z)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		return pl
	}
	hybrid := func(n int64, p, mem, g int) core.Plan {
		pl, err := core.NewHybridPlan(n, p, p, mem, 16, g)
		if err != nil {
			t.Fatalf("hybrid g=%d: %v", g, err)
		}
		return pl
	}
	return []core.Plan{
		mk(core.Threaded, 512*8, 4, 4, 512, 16),
		mk(core.Threaded, 512*16, 2, 4, 512, 64),
		mk(core.Threaded, 32*4, 1, 1, 32, 16), // P = 1: steps 1-2 hand every block over
		mk(core.Threaded4, 512*8, 4, 4, 512, 16),
		mk(core.Subblock, 256*16, 4, 4, 256, 16),
		mk(core.Subblock, 256*16, 8, 8, 256, 16), // P > √s: ⌈P/√s⌉ = 2 messages a round
		mk(core.Subblock, 256*16, 2, 2, 256, 16), // √s ≥ P: no network
		mk(core.MColumn, 256*8, 4, 4, 64, 16),
		mk(core.MColumn, 256*4, 2, 2, 128, 16),
		mk(core.MColumn, 128*2, 4, 4, 32, 16), // s < P: the redistribution leaves buffers empty
		mk(core.MColumn, 1024*4, 8, 8, 128, 16),
		mk(core.Combined, 256*16, 4, 4, 64, 16),
		mk(core.BaselineIO3, 512*8, 4, 4, 512, 16),
		hybrid(2048, 4, 128, 2),
		hybrid(2048, 8, 128, 2),
		hybrid(8192, 8, 128, 4),
		hybrid(1024, 8, 64, 2), // r = 2s²: at the bound
	}
}

// TestPredictorMatchesMeasured pins the closed-form counters to reality:
// disk bytes, message counts, network bytes, comparison work and memory
// movement must all match EXACTLY.
func TestPredictorMatchesMeasured(t *testing.T) {
	for _, pl := range validationPlans(t) {
		got := measure(t, pl)
		want := predictTotalsFor(t, pl)
		if len(got) != len(want) {
			t.Fatalf("%v: %d passes measured, %d predicted", pl.Alg, len(got), len(want))
		}
		for k := range got {
			g, w := got[k], want[k]
			if g.DiskReadBytes != w.DiskReadBytes || g.DiskWriteBytes != w.DiskWriteBytes {
				t.Errorf("%s pass %d: disk bytes measured %d/%d predicted %d/%d",
					pl, k+1, g.DiskReadBytes, g.DiskWriteBytes, w.DiskReadBytes, w.DiskWriteBytes)
			}
			if g.NetMsgs != w.NetMsgs || g.LocalMsgs != w.LocalMsgs {
				t.Errorf("%s pass %d: msgs measured net=%d local=%d predicted net=%d local=%d",
					pl, k+1, g.NetMsgs, g.LocalMsgs, w.NetMsgs, w.LocalMsgs)
			}
			if g.NetBytes != w.NetBytes || g.LocalBytes != w.LocalBytes {
				t.Errorf("%s pass %d: bytes measured net=%d local=%d predicted net=%d local=%d",
					pl, k+1, g.NetBytes, g.LocalBytes, w.NetBytes, w.LocalBytes)
			}
			if g.CompareUnits != w.CompareUnits {
				t.Errorf("%s pass %d: compare units measured %d predicted %d",
					pl, k+1, g.CompareUnits, w.CompareUnits)
			}
			if g.MovedBytes != w.MovedBytes {
				t.Errorf("%s pass %d: moved bytes measured %d predicted %d",
					pl, k+1, g.MovedBytes, w.MovedBytes)
			}
		}
	}
}

// TestEligibilityMatrix is experiment E8: the planner reproduces exactly
// which points of Figure 2 each algorithm could run.
func TestEligibilityMatrix(t *testing.T) {
	type key struct {
		alg core.Algorithm
		buf int
		gb  int64
	}
	eligible := make(map[key]bool)
	for _, pt := range Grid() {
		eligible[key{pt.Alg, pt.BufferBytes, pt.TotalBytes / GiB}] = pt.Eligible
	}
	// Threaded columnsort "could not handle more than 4 GB of data"
	// (restriction (1)). At buffer 2^24 (r = 2^18 records of 64 B) the
	// restriction admits exactly the 4 GiB point, as the paper plots. At
	// buffer 2^25 restriction (1) as stated also admits 8 and 16 GiB (the
	// paper nevertheless plotted threaded only at 4 GiB; EXPERIMENTS.md
	// discusses the delta); 32 GiB is excluded under either buffer.
	for _, buf := range []int{1 << 24, 1 << 25} {
		if !eligible[key{core.Threaded, buf, 4}] {
			t.Errorf("threaded should run at 4 GiB with buffer %d", buf)
		}
		if eligible[key{core.Threaded, buf, 32}] {
			t.Errorf("threaded must NOT run at 32 GiB with buffer %d", buf)
		}
	}
	for _, gb := range []int64{8, 16} {
		if eligible[key{core.Threaded, 1 << 24, gb}] {
			t.Errorf("threaded must NOT run at %d GiB with buffer 2^24", gb)
		}
	}
	// Subblock: "the two lines cover disjoint problem sizes... each line
	// covers problem sizes that differ by a factor of 4": buffer 2^25 →
	// {8, 32} GiB; buffer 2^24 → {4, 16} GiB.
	for gb, want := range map[int64]bool{4: false, 8: true, 16: false, 32: true} {
		if eligible[key{core.Subblock, 1 << 25, gb}] != want {
			t.Errorf("subblock buffer 2^25 at %d GiB: eligible=%v, want %v",
				gb, eligible[key{core.Subblock, 1 << 25, gb}], want)
		}
	}
	for gb, want := range map[int64]bool{4: true, 8: false, 16: true, 32: false} {
		if eligible[key{core.Subblock, 1 << 24, gb}] != want {
			t.Errorf("subblock buffer 2^24 at %d GiB: eligible=%v, want %v",
				gb, eligible[key{core.Subblock, 1 << 24, gb}], want)
		}
	}
	// M-columnsort ran at all four problem sizes.
	for _, buf := range []int{1 << 24, 1 << 25} {
		for _, gb := range []int64{4, 8, 16, 32} {
			if !eligible[key{core.MColumn, buf, gb}] {
				t.Errorf("m-columnsort should run at %d GiB with buffer %d", gb, buf)
			}
		}
	}
}

// TestFigure2Shape is experiment E1: evaluating the validated counts at
// paper scale under the Beowulf cost model must reproduce the figure's
// qualitative structure.
func TestFigure2Shape(t *testing.T) {
	cm := sim.Beowulf2003()
	at := func(alg core.Algorithm, buf int, gb int64) Point {
		pt := MakePoint(alg, buf, gb*GiB, 64)
		if !pt.Eligible {
			t.Fatalf("%v buf=%d gb=%d ineligible: %s", alg, buf, gb, pt.Reason)
		}
		if err := Evaluate(&pt, cm); err != nil {
			t.Fatal(err)
		}
		return pt
	}

	base3 := at(core.BaselineIO3, 1<<25, 8)
	base4 := at(core.BaselineIO4, 1<<25, 8)

	// The baselines are pure I/O: 4-pass ≈ 4/3 of 3-pass.
	if r := base4.SecsPerGBProc / base3.SecsPerGBProc; math.Abs(r-4.0/3.0) > 0.03 {
		t.Errorf("baseline ratio %.3f, want ≈4/3", r)
	}

	// Threaded columnsort at 2^25 is "just barely above the baseline
	// 3-pass I/O time" (within ~15%).
	th := at(core.Threaded, 1<<25, 4)
	b3at4 := at(core.BaselineIO3, 1<<25, 4)
	if th.SecsPerGBProc < b3at4.SecsPerGBProc {
		t.Error("threaded below its I/O floor")
	}
	if th.SecsPerGBProc > b3at4.SecsPerGBProc*1.20 {
		t.Errorf("threaded %.1f too far above 3-pass baseline %.1f",
			th.SecsPerGBProc, b3at4.SecsPerGBProc)
	}

	// Subblock at 2^25 is slightly above the 4-pass baseline.
	sb := at(core.Subblock, 1<<25, 8)
	if sb.SecsPerGBProc < base4.SecsPerGBProc {
		t.Error("subblock below its I/O floor")
	}
	if sb.SecsPerGBProc > base4.SecsPerGBProc*1.25 {
		t.Errorf("subblock %.1f too far above 4-pass baseline %.1f",
			sb.SecsPerGBProc, base4.SecsPerGBProc)
	}

	// M-columnsort is well above the 3-pass baseline (not nearly as
	// I/O-bound), yet faster than subblock columnsort in all comparable
	// cases, and slower than threaded.
	for _, gb := range []int64{8, 32} {
		mc := at(core.MColumn, 1<<25, gb)
		sbAt := at(core.Subblock, 1<<25, gb)
		b3 := at(core.BaselineIO3, 1<<25, gb)
		if mc.SecsPerGBProc < b3.SecsPerGBProc*1.10 {
			t.Errorf("%d GiB: m-columnsort %.1f should be well above 3-pass baseline %.1f",
				gb, mc.SecsPerGBProc, b3.SecsPerGBProc)
		}
		if mc.SecsPerGBProc >= sbAt.SecsPerGBProc {
			t.Errorf("%d GiB: m-columnsort %.1f not faster than subblock %.1f",
				gb, mc.SecsPerGBProc, sbAt.SecsPerGBProc)
		}
	}
	mc4 := at(core.MColumn, 1<<25, 4)
	if mc4.SecsPerGBProc <= th.SecsPerGBProc {
		t.Errorf("at 4 GiB m-columnsort %.1f should be slower than threaded %.1f",
			mc4.SecsPerGBProc, th.SecsPerGBProc)
	}

	// Buffer-size effect (experiment E7): the smaller 2^24 buffer is
	// slower for every algorithm.
	for _, alg := range []core.Algorithm{core.MColumn} {
		small := at(alg, 1<<24, 8)
		large := at(alg, 1<<25, 8)
		if small.SecsPerGBProc <= large.SecsPerGBProc {
			t.Errorf("%v: buffer 2^24 (%.1f) not slower than 2^25 (%.1f)",
				alg, small.SecsPerGBProc, large.SecsPerGBProc)
		}
	}

	// Flatness: secs per (GiB/processor) rises only slightly with volume.
	mc8, mc32 := at(core.MColumn, 1<<25, 8), at(core.MColumn, 1<<25, 32)
	if mc32.SecsPerGBProc > mc8.SecsPerGBProc*1.5 {
		t.Errorf("m-columnsort not flat in GiB/processor: %.1f vs %.1f",
			mc8.SecsPerGBProc, mc32.SecsPerGBProc)
	}
}

func TestRenderGrid(t *testing.T) {
	pts := Grid()
	cm := sim.Beowulf2003()
	for i := range pts {
		if pts[i].Eligible {
			if err := Evaluate(&pts[i], cm); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := Render(pts)
	if len(out) == 0 {
		t.Fatal("empty render")
	}
	for _, want := range []string{"m-columnsort", "subblock", "threaded", "baseline"} {
		if !containsStr(out, want) {
			t.Errorf("render missing series %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestEvaluateIneligible(t *testing.T) {
	pt := MakePoint(core.Threaded, 1<<25, 32*GiB, 64)
	if pt.Eligible {
		t.Fatal("threaded at 32 GiB should be ineligible")
	}
	if err := Evaluate(&pt, sim.Beowulf2003()); err == nil {
		t.Fatal("Evaluate accepted ineligible point")
	}
}
