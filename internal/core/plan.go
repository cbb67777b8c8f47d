// Package core implements the paper's out-of-core sorting algorithms on the
// simulated cluster: 4-pass columnsort [CCW01], 3-pass threaded columnsort
// [CC02], subblock columnsort (Section 3), M-columnsort (Section 4), the
// 3- and 4-pass baseline I/O programs used in Figure 2, and Section 6's two
// future-work items: the combination of subblock and M-columnsort, and
// column heights between M/P and M (hybrid group columnsort).
//
// One pass program realizes all of them: group columnsort (group.go). The P
// processors form P/g groups of g, a column is shared by one group and sorted
// by the distributed in-core columnsort within it, and the algorithms differ
// in the group size of their plan — 1 for threaded, 4-pass and subblock
// columnsort (a column owned by ONE processor, sorted locally), P for
// M-columnsort and Combined, 2 ≤ g ≤ P/2 for Hybrid — and in their list of
// pass specs. Only the final boundary pass has two resolvers, one for g = 1
// (mergepass.go) and one for g ≥ 2.
//
// # Arrival-order intermediate layout
//
// Every columnsort pass begins by sorting its column, so the order of
// records WITHIN a column of an intermediate store is irrelevant — only the
// set of records per column matters. The permute/write stages exploit this:
// each processor appends the records arriving for an owned column as one
// contiguous chunk per (source column, target column) pair, never issuing
// strided writes. Because records leave the sort stage in sorted order,
// every such chunk is itself a sorted run whose length is known analytically
// (r/s after steps 2 and 4, r/√s after the subblock permutation), and the
// next pass's sort stage merges runs instead of sorting from scratch — the
// optimization footnote 5 of the paper describes. Only the final pass
// writes true row order, which is what makes the output a sorted file.
package core

import (
	"errors"
	"fmt"

	"colsort/internal/bitperm"
	"colsort/internal/bounds"
	"colsort/internal/pdm"
	"colsort/internal/record"
)

// ErrTooLarge marks plan failures where N exceeds the algorithm's
// problem-size restriction — growing N further can never help, unlike
// divisibility failures. Callers detect it with errors.Is.
var ErrTooLarge = errors.New("problem-size restriction exceeded")

// ErrHeightRestriction marks plan failures caused specifically by a
// columnsort height restriction (r ≥ 2s², its relaxed and in-core
// variants) — the geometric condition the source paper relaxes. It rides
// along with ErrTooLarge where growing N cannot help; callers detect it
// with errors.Is.
var ErrHeightRestriction = errors.New("height restriction violated")

// Algorithm selects the out-of-core sorting program.
type Algorithm int

const (
	// Threaded4 is the original 4-pass out-of-core columnsort of [CCW01]:
	// passes [1,2], [3,4], [5,6], [7,8].
	Threaded4 Algorithm = iota
	// Threaded is the 3-pass threaded columnsort of [CC02], the paper's
	// baseline: passes [1,2], [3,4], [5–8] — group columnsort with every
	// processor a group of its own.
	Threaded
	// Subblock is subblock columnsort: [1,2], [3,3.1], [3.2,4], [5–8],
	// with the relaxed height restriction r ≥ 4·s^{3/2} (restriction (2)).
	Subblock
	// MColumn is M-columnsort: the 3-pass program with the column height
	// reinterpreted as r = M, each column sorted by a distributed in-core
	// sort (restriction (3)) — group columnsort with all P processors in
	// one group.
	MColumn
	// Combined is the Section-6 future-work algorithm: the subblock pass
	// structure with r = M, giving N ≤ M^{5/3}/4^{2/3}.
	Combined
	// BaselineIO3 and BaselineIO4 only read and write every record the
	// given number of times, measuring the I/O floor of Figure 2.
	BaselineIO3
	BaselineIO4
	// Hybrid is group columnsort (Section-6 future work): column height
	// r = g·(M/P) for a group size 2 ≤ g ≤ P/2, between threaded columnsort
	// (g = 1) and M-columnsort (g = P) — the same program at every g. Plans
	// are built with NewHybridPlan.
	Hybrid
)

func (a Algorithm) String() string {
	switch a {
	case Threaded4:
		return "threaded-4pass"
	case Threaded:
		return "threaded"
	case Subblock:
		return "subblock"
	case MColumn:
		return "m-columnsort"
	case Combined:
		return "combined"
	case BaselineIO3:
		return "baseline-io-3pass"
	case BaselineIO4:
		return "baseline-io-4pass"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Passes returns the number of passes over the data the algorithm makes.
func (a Algorithm) Passes() int {
	switch a {
	case Threaded4, Subblock, Combined, BaselineIO4:
		return 4
	default:
		return 3
	}
}

// Plan is a validated configuration for one out-of-core sort.
type Plan struct {
	Alg Algorithm

	// N = R·S records of Z bytes arranged as an R×S matrix.
	N int64
	R int // records per column
	S int // columns
	Z int // record size, bytes

	P int // processors
	D int // disks (P | D)

	// MemPerProc is the per-processor column buffer in records — the
	// paper's "buffer size" knob. Threaded and subblock columnsort use
	// R = MemPerProc; M-columnsort uses R = MemPerProc·P; hybrid group
	// columnsort uses R = MemPerProc·Group.
	MemPerProc int

	// Group is the number of processors sharing a column — the g of group
	// columnsort: 1 for threaded, 4-pass and subblock columnsort and the
	// baselines, P for M-columnsort and Combined, the hybrid's g in between.
	// It fixes the layout of every store the algorithm touches and is the one
	// thing the pass program reads off the plan besides its shape.
	Group int

	// Layout is the name of that layout.
	Layout pdm.Layout
}

// NewPlan validates a configuration, applying each algorithm's height
// restriction and divisibility requirements (Section 2 assumes all
// parameters are powers of 2, and subblock columnsort needs s to be a
// power of 4). The algorithm fixes the group size: 1 for the column-owned
// algorithms, P for M-columnsort and Combined.
func NewPlan(alg Algorithm, n int64, p, d, memPerProc, recSize int) (Plan, error) {
	switch alg {
	case Threaded4, Threaded, Subblock, BaselineIO3, BaselineIO4:
		return newPlan(alg, n, p, d, memPerProc, recSize, 1, pdm.ColumnOwned)
	case MColumn, Combined:
		if p < 2 {
			return Plan{}, fmt.Errorf("core: %v needs P ≥ 2 (with P = 1 it degenerates to threaded columnsort)", alg)
		}
		return newPlan(alg, n, p, d, memPerProc, recSize, p, pdm.RowBlocked)
	case Hybrid:
		return Plan{}, fmt.Errorf("core: hybrid plans need NewHybridPlan (a group size is required)")
	}
	return Plan{}, fmt.Errorf("core: unknown algorithm %v", alg)
}

// NewHybridPlan validates hybrid group columnsort with group size g. The
// planner accepts 2 ≤ g ≤ P/2: the ends of the range have names of their own.
func NewHybridPlan(n int64, p, d, memPerProc, recSize, g int) (Plan, error) {
	if !bitperm.IsPow2(g) || g < 2 || g > p/2 {
		return Plan{}, fmt.Errorf("core: hybrid group size g=%d must be a power of 2 with 2 ≤ g ≤ P/2=%d (use threaded for g=1, m-columnsort for g=P)", g, p/2)
	}
	return newPlan(Hybrid, n, p, d, memPerProc, recSize, g, pdm.GroupBlocked)
}

// newPlan is the one validation of every plan: the P processors form P/g
// groups of g, a column holds r = g·(M/P) records, and layout is the name
// that group size goes by.
func newPlan(alg Algorithm, n int64, p, d, memPerProc, recSize, g int, layout pdm.Layout) (Plan, error) {
	pl := Plan{Alg: alg, N: n, P: p, D: d, MemPerProc: memPerProc, Z: recSize, Group: g, Layout: layout}
	if err := record.CheckSize(recSize); err != nil {
		return pl, err
	}
	if p < 1 || d < p || d%p != 0 {
		return pl, fmt.Errorf("core: need P ≥ 1 and P | D, got P=%d D=%d", p, d)
	}
	if !bitperm.IsPow2(p) {
		return pl, fmt.Errorf("core: P=%d must be a power of 2", p)
	}
	if memPerProc < 1 || !bitperm.IsPow2(memPerProc) {
		return pl, fmt.Errorf("core: memory per processor %d must be a positive power of 2", memPerProc)
	}
	if n < 1 || n&(n-1) != 0 {
		return pl, fmt.Errorf("core: N=%d must be a positive power of 2", n)
	}

	pl.R = g * memPerProc
	if int64(pl.R) > n {
		return pl, fmt.Errorf("core: N=%d smaller than one column r=%d; shrink the buffer", n, pl.R)
	}
	s64 := n / int64(pl.R)
	if s64*int64(pl.R) != n {
		return pl, fmt.Errorf("core: r=%d must divide N=%d", pl.R, n)
	}
	if s64 > int64(pl.R) {
		// N > r²: s cannot divide r, and r < 2s², r < 4s^{3/2} both follow —
		// this is beyond the bound, not a shape a larger N could repair. The
		// baselines have no height restriction, but their passes need s | r
		// too, so N ≤ r² bounds them as well.
		if alg == BaselineIO3 || alg == BaselineIO4 {
			return pl, fmt.Errorf("core: %v: s=%d cannot divide r=%d (N=%d > r²; %w)", alg, s64, pl.R, n, ErrTooLarge)
		}
		return pl, fmt.Errorf("core: %v %w: s=%d > r=%d (N=%d > r²; %w)", alg, ErrHeightRestriction, s64, pl.R, n, ErrTooLarge)
	}
	pl.S = int(s64) // s ≤ r, an int

	if pl.R%pl.S != 0 {
		return pl, fmt.Errorf("core: s=%d must divide r=%d", pl.S, pl.R)
	}

	switch alg {
	case Threaded4, Threaded, MColumn, Hybrid:
		if !bounds.HeightOK(bounds.Threaded, int64(pl.R), int64(pl.S)) {
			return pl, fmt.Errorf("core: %v %w: r=%d < 2s²=%d (%w)",
				alg, ErrHeightRestriction, pl.R, 2*pl.S*pl.S, ErrTooLarge)
		}
	case Subblock, Combined:
		if !bitperm.IsPow4(pl.S) {
			return pl, fmt.Errorf("core: subblock columnsort needs s to be a power of 4, got s=%d", pl.S)
		}
		if !bounds.HeightOK(bounds.Subblock, int64(pl.R), int64(pl.S)) {
			q := bitperm.Sqrt(pl.S)
			return pl, fmt.Errorf("core: relaxed %w: r=%d < 4s^(3/2)=%d (%w)",
				ErrHeightRestriction, pl.R, 4*pl.S*q, ErrTooLarge)
		}
	case BaselineIO3, BaselineIO4:
		// No height restriction: baselines just stream the data.
	}

	if ng := p / g; pl.S%ng != 0 {
		return pl, fmt.Errorf("core: the %d processor groups must evenly share the columns (%d must divide s=%d)", ng, ng, pl.S)
	}
	if g > 1 {
		// A shared column: each of its g holders writes an equal block of
		// every target column, takes part in the boundary half-swaps, and
		// sorts by the distributed in-core columnsort — itself a columnsort
		// on an (M/P)×g matrix.
		if memPerProc%pl.S != 0 {
			return pl, fmt.Errorf("core: s=%d must divide M/P=%d for balanced block writes", pl.S, memPerProc)
		}
		if memPerProc%2 != 0 {
			return pl, fmt.Errorf("core: M/P=%d must be even for boundary merges", memPerProc)
		}
		if pl.S > 1 && !bounds.InCoreOK(int64(memPerProc), int64(g)) {
			return pl, fmt.Errorf("core: in-core %w: M/P=%d < 2g²=%d (g=%d)", ErrHeightRestriction, memPerProc, 2*g*g, g)
		}
	}
	return pl, nil
}

// Rounds returns the number of pipeline rounds per pass: one column per
// group per round — s/P rounds for the column-owned algorithms, s for
// M-columnsort and Combined, s/(P/g) for the hybrid.
func (pl Plan) Rounds() int {
	return pl.S / (pl.P / pl.Group)
}

// NewStore allocates an empty store shaped for the plan.
func (pl Plan) NewStore(m pdm.Machine) (*pdm.Store, error) {
	return m.NewGroupStore(pl.R, pl.S, pl.Z, pl.Group)
}

// NewInput allocates and fills the input store for the plan on the given
// machine.
func (pl Plan) NewInput(m pdm.Machine, g record.Generator) (*pdm.Store, error) {
	st, err := pl.NewStore(m)
	if err != nil {
		return nil, err
	}
	if err := st.Fill(g); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

func (pl Plan) String() string {
	if pl.N == 0 { // no shape: the zero Plan, or a hierarchical result's machine
		return fmt.Sprintf("%v: no columnsort run, Z=%dB, P=%d, D=%d", pl.Alg, pl.Z, pl.P, pl.D)
	}
	return fmt.Sprintf("%v: N=%d as %d×%d, Z=%dB, P=%d, D=%d, %v, %d passes × %d rounds",
		pl.Alg, pl.N, pl.R, pl.S, pl.Z, pl.P, pl.D, pl.Layout, pl.Alg.Passes(), pl.Rounds())
}
