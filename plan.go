package colsort

// Planning: the ONE place that decides what a Sort will execute. Sort and
// PlanSort both ask resolve; resolve, Plan and MaxRecords all ask search,
// the only caller of the core planner and the only loop over record counts.
// See DESIGN.md §7 ("Sizing rule").

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"colsort/internal/core"
	"colsort/internal/record"
	"colsort/internal/runform"
)

// maxPlanRecords ends the search for configurations the planner rejects
// whatever N is (it otherwise ends at the first ErrTooLarge).
const maxPlanRecords = int64(1) << 52

// SortPlan is what a Sort of some record count under some options would
// execute; see Engine.PlanSort.
type SortPlan struct {
	// Plan is the one columnsort run — the whole (possibly padded) sort —
	// when MaxRuns is 0. Above the bound no columnsort run executes, and
	// Plan is zero.
	core.Plan
	// MaxRuns is 0 for a single columnsort run. Above the bound it is the
	// worst-case number of replacement-selection runs, ⌈n / RunRecords⌉: the
	// run count is data-dependent — about half of it on random input, 1 on
	// nearly-sorted input — and reaches MaxRuns only when every arrival
	// breaks the current run.
	MaxRuns int
	// RunRecords is how many records the job holds in memory at a time, and
	// its record bytes the job's admission ask when no cap is given: the
	// one run's N, or above the bound H, the records replacement selection
	// holds resident (MergeStats.RunRecords): ⌊WithMaxMemory / RecordSize⌋
	// capped at n under a cap, the algorithm's largest single run without
	// one, in both cases below the former's 2³¹−1 slots and rounded down to
	// its page geometry.
	RunRecords int64
	// FanIn is the merge's fan-in above the bound (WithMergeFanIn).
	FanIn int
}

func (sp SortPlan) String() string {
	if sp.MaxRuns == 0 {
		return sp.Plan.String()
	}
	return fmt.Sprintf("runs + merge: H = %d resident records, ≤%d replacement-selection runs merged at fan-in %d, worst-case merge depth %d",
		sp.RunRecords, sp.MaxRuns, sp.FanIn, mergeLevels(sp.MaxRuns, sp.FanIn))
}

// mergeLevels is the height of the merge schedule's tree over k runs of
// equal length at fan-in f, ⌈log_f k⌉ and at least 1: the levels of the
// worst-case run count.
func mergeLevels(k, f int) int {
	levels := 1
	for ; k > f; k = (k-1)/f + 1 {
		levels++
	}
	return levels
}

// PlanSort reports what Sort would execute for n records under opts,
// without running it — the same resolver Sort asks, so the answer (or the
// error) is the run's own; `colsort -plan` prints it. It allocates nothing.
//
// The rule: a record count the algorithm can sort in one run — n itself, or
// under PadAuto the smallest power of two ≥ n the planner accepts — whose
// record bytes fit the WithMaxMemory cap is ONE columnsort run. Otherwise,
// when n is beyond the algorithm's problem-size bound (ErrTooLarge) or its
// run beyond the cap, the sort is hierarchical: replacement-selection runs
// over H resident records (SortPlan.RunRecords: the cap's records, or
// without a cap the algorithm's largest single run), then k-way merges. The
// hierarchical path requires PadAuto, a sorting algorithm (not a baseline)
// and — of Sort, which PlanSort cannot see — a non-nil Sink; a hybrid group
// is a g like any other: it pads, and above the bound without a cap its
// largest run sizes H. A cap too small for the merge's chunks is
// ErrMemoryTooSmall. Options the rule book refuses (resolve's check) and
// every other planning failure are returned as stated there.
func (e *Engine) PlanSort(n int64, opts ...Option) (SortPlan, error) {
	sp, _, err := e.resolve(newSortOptions(opts), n)
	return sp, err
}

// Plan validates that the algorithm can sort exactly n records in one run
// under the configuration and returns the resulting execution plan (matrix
// shape, layout, pass structure). The error explains any violated
// restriction.
func (e *Engine) Plan(alg Algorithm, n int64) (core.Plan, error) {
	pl, _, err := e.search(sortOptions{alg: alg}, n, n)
	return pl, err
}

// MaxRecords returns the largest power-of-two record count the algorithm
// can sort in one run under this configuration (the practical counterpart of
// the paper's real-valued bounds; see the bounds package for those).
func (e *Engine) MaxRecords(alg Algorithm) int64 {
	_, largest, _ := e.search(sortOptions{alg: alg}, 1, maxPlanRecords)
	return largest.N
}

// check is the rule book: every rule about what a job may ask for, stated
// once, each sentence naming the Go option it constrains. The wire keys and
// the CLI flags only spell options; none of them restates a rule, so a
// refusal reads the same from every front end. 0 is every numeric option's
// "the default". What remains outside is the planner's (core.NewPlan: the
// shape, the bound, the hybrid group size) and resolve's own two refusals
// below. It also compiles the key codec, whose own checks are the KeySpec's
// rules.
func (e *Engine) check(o sortOptions) (record.KeyCodec, error) {
	var err error
	switch {
	case o.maxMemory < 0:
		err = fmt.Errorf("WithMaxMemory(%d): the cap must be ≥ 0 (0: only the algorithm's bound)", o.maxMemory)
	case o.fanIn < 0 || o.fanIn == 1:
		err = fmt.Errorf("WithMergeFanIn(%d): the fan-in must be ≥ 2 (0: the default, %d)", o.fanIn, defaultMergeFanIn)
	case o.deadline < 0:
		err = fmt.Errorf("WithDeadline(%v): the deadline must be ≥ 0 (0: none)", o.deadline)
	}
	if err != nil {
		return record.KeyCodec{}, fmt.Errorf("colsort: %w", err)
	}
	codec, err := o.keySpec.Compile(e.cfg.RecordSize)
	if err != nil {
		return codec, fmt.Errorf("colsort: %w", err)
	}
	return codec, nil
}

// resolve is the preamble Sort and PlanSort share: it checks the
// options against the rule book, compiles the key codec, and decides what a
// sort of n records executes (see PlanSort for the rule).
func (e *Engine) resolve(o sortOptions, n int64) (SortPlan, record.KeyCodec, error) {
	fail := func(err error) (SortPlan, record.KeyCodec, error) { return SortPlan{}, record.KeyCodec{}, err }
	codec, err := e.check(o)
	if err != nil {
		return fail(err)
	}
	if n < 1 {
		return fail(fmt.Errorf("colsort: cannot sort %d records", n))
	}

	// One run: of n as it is under PadNever, of n's smallest accepted
	// power-of-two cover under PadAuto — at every group size, the hybrid's
	// included.
	exact := o.padding == PadNever
	lo, hi := n, n
	if !exact {
		lo, hi = int64(1)<<bits.Len64(uint64(n-1)), maxPlanRecords
	}
	single, _, err := e.search(o, lo, hi)
	planned := single.N > 0
	if planned && (o.maxMemory == 0 || single.N*int64(single.Z) <= o.maxMemory) {
		return SortPlan{Plan: single, RunRecords: single.N}, codec, nil
	}

	// Runs + merge: past the bound, or past the cap. No columnsort pass runs
	// here; the cap, or without one the algorithm's largest run, sizes the
	// runs. The baselines only move data, so a "baseline" that sorted by
	// replacement selection would measure nothing.
	if exact || o.alg == BaselineIO3 || o.alg == BaselineIO4 {
		if planned {
			err = fmt.Errorf("colsort: WithMaxMemory(%d): the one run of %d records holds %d bytes, and cutting it into runs + merge needs PadAuto and a sorting algorithm", o.maxMemory, single.N, single.N*int64(single.Z))
		}
		return fail(err)
	}
	if !planned && !errors.Is(err, ErrTooLarge) {
		return fail(err)
	}
	z, fanIn := int64(e.cfg.RecordSize), cmp.Or(o.fanIn, defaultMergeFanIn)
	h := min(o.maxMemory/z, n)
	if o.maxMemory == 0 {
		_, largest, _ := e.search(o, 1, maxPlanRecords)
		if largest.N == 0 {
			return fail(fmt.Errorf("colsort: no single-run plan exists for %v under this configuration", o.alg))
		}
		h = largest.N
	}
	h = int64(runform.Capacity(int(min(h, math.MaxInt32)))) // the former's slot ids are int32
	sp := SortPlan{MaxRuns: int((n-1)/h + 1), RunRecords: h, FanIn: fanIn}
	// The cap holds the merges too: f reader chunks, f the runs one merge
	// takes, plus 4, each of at least minMergeChunk records (mergeChunkRecs).
	if f := min(fanIn, sp.MaxRuns); o.maxMemory > 0 && uint64(o.maxMemory/z)/(uint64(f)+4) < minMergeChunk {
		return fail(fmt.Errorf("%w: WithMaxMemory(%d) holds %d records of %d B, fewer than a merge of %d runs needs: %d + 4 chunks of %d records; raise the cap or lower WithMergeFanIn",
			ErrMemoryTooSmall, o.maxMemory, o.maxMemory/z, z, f, f, minMergeChunk))
	}
	return sp, codec, nil
}

// search asks the planner about lo, 2·lo, 4·lo, … up to hi, stopping early
// once it says growing cannot help (ErrTooLarge), and returns the first plan
// it accepted (the smallest accepted cover of lo), the last (the largest
// single run) and its verdict on the last count asked.
func (e *Engine) search(o sortOptions, lo, hi int64) (first, last core.Plan, err error) {
	c := e.cfg
	for n := lo; ; n *= 2 {
		var pl core.Plan
		if o.alg == Hybrid {
			pl, err = core.NewHybridPlan(n, c.Procs, c.Disks, c.MemPerProc, c.RecordSize, o.group)
		} else {
			pl, err = core.NewPlan(o.alg, n, c.Procs, c.Disks, c.MemPerProc, c.RecordSize)
		}
		if err == nil {
			first, last = cmp.Or(first, pl), pl
		}
		if errors.Is(err, ErrTooLarge) || n < 1 || n > hi/2 {
			return first, last, err
		}
	}
}
