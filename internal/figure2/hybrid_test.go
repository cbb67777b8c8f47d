package figure2

import (
	"math"
	"testing"

	"colsort/internal/bounds"
	"colsort/internal/core"
)

// Section 6's group-size trade-off on the machine `colsort-paper bounds
// -hybrid` prints: P = 16, M/P = 2^19 records of 64 bytes.
const hybP, hybMem, hybZ = 16, 1 << 19, 64

// groupPlan plans group columnsort at group size g: threaded columnsort at
// g = 1, M-columnsort at g = P, the hybrid between.
func groupPlan(n int64, g int) (core.Plan, error) {
	switch g {
	case 1:
		return core.NewPlan(core.Threaded, n, hybP, hybP, hybMem, hybZ)
	case hybP:
		return core.NewPlan(core.MColumn, n, hybP, hybP, hybMem, hybZ)
	}
	return core.NewHybridPlan(n, hybP, hybP, hybMem, hybZ, g)
}

// netPerProc is the predicted network traffic of the whole run, per processor.
func netPerProc(t *testing.T, pl core.Plan) int64 {
	t.Helper()
	var net int64
	for _, pass := range predictTotalsFor(t, pl) {
		net += pass.NetBytes
	}
	return net / int64(pl.P)
}

// TestHybridTradeOffMonotone: at one N every group size plans, the bound
// grows with g and so does the predicted network traffic — the paper's "the
// closer r is to M/P, the less communication overhead".
func TestHybridTradeOffMonotone(t *testing.T) {
	const n = 1 << 28
	var lastNet int64
	lastBound := 0.0
	for g := 1; g <= hybP; g *= 2 {
		pl, err := groupPlan(n, g)
		if err != nil {
			t.Fatalf("g=%d: %v", g, err)
		}
		net := netPerProc(t, pl)
		bound := bounds.MaxN(bounds.Threaded, int64(g)*hybMem*hybP, hybP)
		if net < lastNet {
			t.Errorf("g=%d: predicted network bytes per processor %d below g=%d's %d", g, net, g/2, lastNet)
		}
		if bound <= lastBound {
			t.Errorf("g=%d: bound %g not above g=%d's %g", g, bound, g/2, lastBound)
		}
		lastNet, lastBound = net, bound
	}
}

// TestHybridEndpointsMatchPaperAlgorithms: the hybrid's arm of the predictor
// IS threaded columnsort at g = 1 and M-columnsort at g = P, pass for pass and
// counter for counter, and the bound at r = g·M/P is restriction (1) at g = 1
// and restriction (3) at g = P.
func TestHybridEndpointsMatchPaperAlgorithms(t *testing.T) {
	const n = 1 << 28
	m := int64(hybMem) * hybP
	for _, c := range []struct {
		g     int
		alg   core.Algorithm
		bound bounds.Algorithm
	}{{1, core.Threaded, bounds.Threaded}, {hybP, core.MColumn, bounds.MColumnsort}} {
		pl, err := core.NewPlan(c.alg, n, hybP, hybP, hybMem, hybZ)
		if err != nil {
			t.Fatal(err)
		}
		as := pl
		as.Alg = core.Hybrid
		want, got := predictTotalsFor(t, pl), predictTotalsFor(t, as)
		if len(got) != len(want) {
			t.Fatalf("g=%d: %d passes predicted as hybrid, %d as %v", c.g, len(got), len(want), c.alg)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("g=%d pass %d: hybrid %+v, %v %+v", c.g, k+1, got[k], c.alg, want[k])
			}
		}
		hyb := bounds.MaxN(bounds.Threaded, int64(c.g)*m, hybP)
		if want := bounds.MaxN(c.bound, m, hybP); math.Abs(hyb/want-1) > 1e-12 {
			t.Errorf("g=%d: bound %g, want %v's %g", c.g, hyb, c.bound, want)
		}
	}
}

// TestHybridBoundScalesAs32PowerOfG: N ≤ (g·M/P)^{3/2}/√2 grows as g^{3/2}.
func TestHybridBoundScalesAs32PowerOfG(t *testing.T) {
	m := int64(hybMem) * hybP
	base := bounds.MaxN(bounds.Threaded, m, hybP)
	for g := 1; g <= hybP; g *= 2 {
		ratio := bounds.MaxN(bounds.Threaded, int64(g)*m, hybP) / base
		if want := math.Pow(float64(g), 1.5); math.Abs(ratio/want-1) > 1e-12 {
			t.Errorf("g=%d: bound ratio %g, want g^{3/2} = %g", g, ratio, want)
		}
	}
}

// smallestGroup is the smallest g the planner accepts for n records, and
// the plans of every accepted g; 0 when no group size plans n.
func smallestGroup(n int64) (int, map[int]core.Plan) {
	first, plans := 0, map[int]core.Plan{}
	for g := 1; g <= hybP; g *= 2 {
		pl, err := groupPlan(n, g)
		if err != nil {
			continue
		}
		if first == 0 {
			first = g
		}
		plans[g] = pl
	}
	return first, plans
}

// TestHybridChooseGroup: the smallest g is the planner's answer, not a float
// compare against the bound, which sends N = 2^28 (r = 2s² at g = 1, exactly
// on the bound) to g = 2.
func TestHybridChooseGroup(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want int // 0: no group size plans it
	}{{1 << 28, 1}, {1 << 31, 4}, {1 << 33, 16}, {1 << 35, 0}} {
		if got, _ := smallestGroup(c.n); got != c.want {
			t.Errorf("N=%d: smallest group size the planner accepts is %d, want %d", c.n, got, c.want)
		}
	}
}

// TestHybridChooseGroupPrefersSmallestEligible: the paper's policy — the
// smallest g that fits — is also the cheapest: no larger g the planner
// accepts predicts less network traffic.
func TestHybridChooseGroupPrefersSmallestEligible(t *testing.T) {
	for _, n := range []int64{1 << 28, 1 << 31, 1 << 33} {
		g, plans := smallestGroup(n)
		if g == 0 {
			t.Fatalf("N=%d: no group size plans it", n)
		}
		least := netPerProc(t, plans[g])
		for other, pl := range plans {
			if net := netPerProc(t, pl); net < least {
				t.Errorf("N=%d: g=%d predicts %d network bytes per processor, below the smallest g=%d's %d", n, other, net, g, least)
			}
		}
	}
}
