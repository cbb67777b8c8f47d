package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"colsort/internal/bitperm"
	"colsort/internal/cluster"
	"colsort/internal/incore"
	"colsort/internal/pdm"
	"colsort/internal/pipeline"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// Group columnsort is the ONE pass program of every sorting algorithm. The P
// processors form P/g groups of g; each column holds r = g·(M/P) records owned
// by one group (column j by group j mod P/g, member m holding rows
// [m·r/g, (m+1)·r/g)) and is sorted by the distributed in-core columnsort of
// internal/incore WITHIN the group — group a's handle is the cluster window
// pr.Sub(a·g, g) — one column per group per round. The group size is the
// whole difference between the algorithms built on it:
//
//   - g = 1 is a column owned by one processor — 3-pass threaded columnsort
//     [CC02], 4-pass columnsort [CCW01] (one more spec: step 5 alone) and
//     subblock columnsort (Section 3: the subblock spec). A group of one
//     returns from the in-core sort after its step 1, so it pays none of that
//     sort's communication.
//   - g = P is the paper's M-columnsort (Section 4) and, with the subblock
//     spec, the Combined algorithm (Section 6): one group, r = M, every column
//     shared by the whole cluster.
//   - 2 ≤ g ≤ P/2 is the hybrid of Section 6's second future-work item:
//     column heights BETWEEN M/P and M, trading the problem-size bound
//     N ≤ (g·M/P)^{3/2}/√2 against network traffic (internal/figure2's
//     predictor counts it exactly at every g).
//
// The program is run-aware in the sense of the paper's footnote 5: a
// distribution pass leaves each member's block of a column as a concatenation
// of ascending runs — chunk/g records per source column, in arrival order — so
// every pass after the first declares that length (groupSpec.runLen) to its
// in-group sorter, which merges the runs instead of sorting them, as the
// sorter's own steps 3 and 5 merge the chunks its transposes deliver. Only the
// first pass's step 1 sorts.
//
// Every distribution pass is runGroupScatterPass. The boundary pass (fused
// steps 5–8) opens with the same stages and then resolves each overlap where
// its two halves meet: on ONE processor at g = 1, in a two-way merge
// (runMergePass), on a group at g ≥ 2, in a second distributed sort and a
// rotation (runGroupMergePass). One body for both would branch on g at every
// send.

// pipeDepth is the channel capacity between pipeline stages; 2 keeps a few
// rounds in flight (enough to overlap I/O, sort and communication) while
// bounding buffer memory, like the paper's fixed buffer pools.
const pipeDepth = 2

// groupSpec is one pass of the group program: the run structure of the blocks
// it reads and, for a distribution pass, where the records of a sorted column
// go. After the in-group sort, member m holds sorted ranks [m·r/g, (m+1)·r/g)
// of its group's column. The boundary pass (fused steps 5–8) distributes
// nothing: its dest is nil.
type groupSpec struct {
	name string
	// runLen is the length of the ascending runs this pass's INPUT blocks
	// consist of: 0 for the first pass (unsorted input), the previous pass's
	// chunk/g after it. The in-group sorter's step 1 merges them.
	runLen int
	// dest maps a sorted rank of source column j to its target column and to
	// occ, the rank's index among the records that column receives from one
	// source column, in rank order. The member of the target column's group
	// that writes the record is occ ÷ (chunk/g): each member takes an equal
	// consecutive share. Computed from the rank itself, so sender and receiver
	// agree even where a rank block straddles target columns (s < g).
	dest func(rank int64, j int) (col int, occ int64)
	// period says how dest depends on the source column: only through
	// j mod period (a power of two; 1: not at all). Rounds whose source
	// columns agree mod period share their distribution tables.
	period int
	// redistribute marks the pass whose rank blocks do not evenly cover the
	// target columns (step 4): its communicate stage is an all-to-all in
	// every shape, which is what the cost model charges it
	// (figure2.redistributionTraffic) — also at s = 1, where step 4's map IS
	// step 2's and the send plan happens to be all-self.
	redistribute bool
	// chunk is the number of records a target column receives from one
	// source column (r/s for steps 2 and 4, r/√s for the subblock
	// permutation, r for step 5 alone).
	chunk int
}

// groupTagStride separates the tag windows of consecutive rounds: each round
// may run two full in-core sorts plus the exchange.
const groupTagStride = 4 * incore.TagSpan

// groupSpecs lists the passes of a plan: steps 1–2 and 3–4 as distribution
// passes — with the subblock permutation (3, 3.1) between them for Subblock
// and Combined, and step 5 as a pass of its own after them for the 4-pass
// program (I/O-faithful to [CCW01]; its steps regroup as [1,2], [3,4], [5],
// [6–8], see DESIGN.md) — and the fused steps 5–8 boundary pass. Each pass's
// input run length is what the pass before it wrote.
func groupSpecs(pl Plan) []groupSpec {
	// Every shape parameter is a power of two (newPlan), so the maps are
	// shifts and masks: a column-dependent pass asks them P·r/g times a round.
	c := pl.R / pl.S
	lgS, lgC := bitperm.Log2(pl.S), bitperm.Log2(c)
	sMask, cMask := int64(pl.S-1), int64(c-1)
	specs := []groupSpec{
		{name: "steps 1-2", chunk: c, period: 1, // column rank mod s, occurrence ⌊rank/s⌋
			dest: func(rank int64, _ int) (int, int64) { return int(rank & sMask), rank >> lgS }},
		{name: "steps 3-4", chunk: c, period: 1, redistribute: true, // column ⌊rank/c⌋, occurrence rank mod c
			dest: func(rank int64, _ int) (int, int64) { return int(rank >> lgC), rank & cMask }},
		{name: "steps 5-8"},
	}
	switch pl.Alg {
	case Subblock, Combined:
		q := bitperm.MustSubblock(pl.R, pl.S).SqrtS()
		lgQ, qMask := bitperm.Log2(q), q-1
		specs = slices.Insert(specs, 1, groupSpec{name: "subblock pass (3, 3.1)", chunk: pl.R / q, period: q,
			// column (j mod √s) + (rank mod √s)·√s, occurrence ⌊rank/√s⌋
			dest: func(rank int64, j int) (int, int64) { return j&qMask | (int(rank)&qMask)<<lgQ, rank >> lgQ }})
	case Threaded4:
		specs = slices.Insert(specs, 2, groupSpec{name: "step 5", chunk: pl.R, period: pl.S,
			dest: func(rank int64, j int) (int, int64) { return j, rank }})
	}
	for k := 1; k < len(specs); k++ {
		specs[k].runLen = specs[k-1].chunk / pl.Group
	}
	return specs
}

// groupPasses turns the specs into pass functions. The boundary pass is the
// one place the group size picks code: see the file comment.
func groupPasses(pl Plan, specs []groupSpec) []passFunc {
	passes := make([]passFunc, len(specs))
	for k, spec := range specs {
		run := runGroupScatterPass
		if spec.dest == nil {
			run = runGroupMergePass
			if pl.Group == 1 {
				run = runMergePass
			}
		}
		passes[k] = func(pr *cluster.Proc, in, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
			return run(pr, pl, spec, in, out, tagBase, pool, cnt, onRound)
		}
	}
	return passes
}

// blockWrite is one block of a column bound for the output store.
type blockWrite struct {
	col, row int
	recs     record.Slice
}

// groupRound is one pipeline round of a group pass: column col = t·(P/g) + a
// of group a, travelling from the read stage to the write stage.
type groupRound struct {
	t, col int
	buf    record.Slice // my block of the column: read, then sorted

	// Scatter pass: the round's tables, the buffers the exchange delivered
	// (one per source processor) and, per target column, this round's arrival
	// chunk (nil entries receive nothing).
	tab    *scatterTables
	inMsgs []record.Slice
	perCol []record.Slice

	// Boundary pass at g ≥ 2: the final blocks this round completed.
	writes []blockWrite
	// Boundary pass at g = 1: my column's two final halves — views of buf, or
	// a received buffer.
	finalTop, finalBot record.Slice
}

// groupStages are the stages both group passes open with: the round source
// (one column of my group per round), the read of my block of the column,
// and the group's distributed in-core sort of it, told the run length of the
// blocks the pass reads.
type groupStages struct {
	sc         *sortalg.Scratch // the sort stage's; the pass hands it back (sortalg.PutScratch)
	grp        *cluster.Proc    // my group's window [a·g, (a+1)·g)
	src        func(emit func(groupRound) error) error
	read, sort func(groupRound) (groupRound, error)
}

func newGroupStages(pr *cluster.Proc, pl Plan, runLen int, in *pdm.Store, tagBase int, pool *record.Pool, cRead, cSort *sim.Counters) (groupStages, error) {
	q, g := pr.Rank(), pl.Group
	ng := pl.P / g
	rb := pl.R / g
	a, lo := q/g, q%g*rb

	grp, err := pr.Sub(a*g, g)
	if err != nil {
		return groupStages{}, err
	}
	sorter := incore.Columnsort{Pool: pool, Scratch: sortalg.GetScratch(), RunLen: runLen}
	return groupStages{
		sc:  sorter.Scratch,
		grp: grp,
		src: func(emit func(groupRound) error) error {
			for t := 0; t < pl.Rounds(); t++ {
				if err := emit(groupRound{t: t, col: t*ng + a}); err != nil {
					return err
				}
			}
			return nil
		},
		read: func(rd groupRound) (groupRound, error) {
			// The round → column map IS the pass's future access sequence:
			// hint the next round's block so an async disk stages it while
			// this round's sort and communication proceed.
			if next := rd.col + ng; next < pl.S {
				in.PrefetchRows(q, next, lo, rb)
			}
			rd.buf = pool.Get(rb, pl.Z)
			if err := in.ReadRows(cRead, q, rd.col, lo, rd.buf); err != nil {
				return rd, err
			}
			cRead.Rounds++
			return rd, nil
		},
		sort: func(rd groupRound) (groupRound, error) {
			sorted, err := sorter.Sort(grp, cSort, tagBase+rd.t*groupTagStride, rd.buf)
			if err != nil {
				return rd, err
			}
			rd.buf = sorted
			return rd, nil
		},
	}, nil
}

// scatterTables are one processor's compiled distribution tables for one
// round of a scatter pass — the oblivious permutation asked once per rank and
// replayed as batched copies. send packs my sorted rank block per destination
// processor, in rank order. keep[k] replays the rank block of one source,
// keeping the records destined here and mapping them to target columns:
// sources with the same in-group position share a rank range, hence — when the
// map ignores the source column — a plan (k = src mod g); a column-dependent
// map needs one plan per source processor, built for that source's column of
// the round. colTotal is what each target column receives here in the round.
type scatterTables struct {
	send     sendPlan
	keep     []colPlan
	colTotal []int32
	// direct: every processor's send plan is all-self — each of the round's
	// ng·r records is routed to the processor that already holds it, so the
	// pack and the collective are skipped (the paper designs M-columnsort's
	// in-core sort to finish in exactly that distribution, and the subblock
	// pass at √s ≥ P sends nothing off-processor). Every processor scans every
	// source's rank block identically, so all of them skip or none does.
	direct bool
}

// groupScatter is processor q's shape of one distribution pass.
type groupScatter struct {
	spec                      groupSpec
	q, P, g, ng, s, rb, share int
	lgG, lgShare              int
}

func newGroupScatter(pl Plan, spec groupSpec, q int) (groupScatter, error) {
	g := pl.Group
	if spec.chunk%g != 0 {
		return groupScatter{}, fmt.Errorf("core: %s: per-round chunk %d not divisible by g=%d", spec.name, spec.chunk, g)
	}
	share := spec.chunk / g // records per (target column, member, source column)
	return groupScatter{spec: spec, q: q, P: pl.P, g: g, ng: pl.P / g, s: pl.S, rb: pl.R / g,
		share: share, lgG: bitperm.Log2(g), lgShare: bitperm.Log2(share)}, nil
}

// classes is the number of distinct table sets of the pass: round t's set is
// that of round t mod classes.
func (gs *groupScatter) classes() int { return max(1, gs.spec.period/gs.ng) }

// build compiles the tables of round t, reusing tb's backing arrays.
func (gs *groupScatter) build(tb *scatterTables, t int) error {
	q, g, ng, rb := gs.q, gs.g, gs.ng, gs.rb
	// The sources to scan. A column-invariant map sends member m of every
	// group the same way, so group 0's g sources stand for all of them (and
	// cannot all stay where they are unless there is one group).
	nKeep := gs.P
	if gs.spec.period == 1 {
		nKeep = g
	}
	if len(tb.keep) != nKeep {
		tb.keep = make([]colPlan, nKeep)
		tb.colTotal = make([]int32, gs.s)
	}
	// proc is the processor a rank of source column j goes to: the member of
	// the target column's group whose share the rank's occurrence falls in.
	// (tj mod ng)·g + ⌊occ/share⌋, on powers of two.
	dest, grpMask, lgG, lgShare := gs.spec.dest, ng-1, gs.lgG, gs.lgShare
	proc := func(rank int64, j int) (d, tj int) {
		tj, occ := dest(rank, j)
		return (tj&grpMask)<<lgG | int(occ>>lgShare), tj
	}
	stay := 0
	for src := 0; src < nKeep; src++ {
		j := t*ng + src/g // the column src holds a block of this round
		lo := int64(src%g) * int64(rb)
		kp := &tb.keep[src]
		kp.reset(gs.s)
		for i := int64(0); i < int64(rb); i++ {
			d, tj := proc(lo+i, j)
			if d == q {
				kp.add(tj)
			}
			if d == src {
				stay++
			}
		}
	}
	tb.direct = stay == gs.P*rb && !gs.spec.redistribute // all ng·r records of the round
	if !tb.direct {
		j, lo := t*ng+q/g, int64(q%g)*int64(rb)
		buildSendPlan(&tb.send, func(i int) int { d, _ := proc(lo+int64(i), j); return d }, rb, gs.P)
	}
	// Each source column of the round contributes either nothing or exactly
	// its share to my block of a target column.
	for tj := range tb.colTotal {
		tb.colTotal[tj] = 0
		for a := 0; a < ng; a++ {
			n := 0
			for m := 0; m < g; m++ {
				n += int(tb.keep[(a*g+m)%nKeep].counts[tj])
			}
			if n != 0 && n != gs.share {
				return fmt.Errorf("core: %s: column %d would receive %d records of column %d here, not %d",
					gs.spec.name, tj, n, t*ng+a, gs.share)
			}
			tb.colTotal[tj] += int32(n)
		}
	}
	return nil
}

// runGroupScatterPass executes one distribution pass: per round, each group
// reads one of its columns, sorts it with the in-group distributed
// columnsort, and scatters the records to the blocks of the target columns'
// owners across all groups, which append them in arrival order.
func runGroupScatterPass(pr *cluster.Proc, pl Plan, spec groupSpec, in, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	q := pr.Rank()
	gs, err := newGroupScatter(pl, spec, q)
	if err != nil {
		return err
	}
	P, g, ng, s, z := gs.P, gs.g, gs.ng, gs.s, pl.Z
	a, lo := q/g, q%g*gs.rb

	var cRead, cSort, cComm, cPerm, cWrite sim.Counters
	st, err := newGroupStages(pr, pl, spec.runLen, in, tagBase, pool, &cRead, &cSort)
	if err != nil {
		return err
	}
	defer sortalg.PutScratch(st.sc)

	// Round t's tables depend on t only through the classes j mod period of its
	// source columns t·ng … t·ng+ng−1, that is (both are powers of two)
	// through t mod classes. A pass with few classes — a column-invariant map
	// has one, the subblock permutation √s/ng — builds each set once, in the
	// exchange stage of the first round that needs it, and shares it read-only
	// thereafter. One with more (step 5 alone: every round its own) rebuilds a
	// set per round; the set travels with the round and returns through spare
	// once the replay stage is done with it. Either way at most pipeDepth+2
	// sets exist: the replay stage holds one round, the exchange stage
	// another, and pipeDepth wait between them.
	classes := gs.classes()
	few := classes <= pipeDepth+2
	var cached []*scatterTables
	if few {
		cached = make([]*scatterTables, classes)
	}
	spare := make(chan *scatterTables, pipeDepth+2)
	tables := func(t int) (*scatterTables, error) {
		var tab *scatterTables
		if few {
			if tab = cached[t%classes]; tab != nil {
				return tab, nil
			}
			tab = new(scatterTables)
			cached[t%classes] = tab
		} else {
			select {
			case tab = <-spare:
			default:
				tab = new(scatterTables)
			}
		}
		return tab, gs.build(tab, t)
	}

	exchange := func(rd groupRound) (groupRound, error) {
		var err error
		if rd.tab, err = tables(rd.t); err != nil {
			return rd, err
		}
		if rd.tab.direct {
			// The one message of the round is the block I hand myself.
			rd.inMsgs = record.GetHeaders(P)
			rd.inMsgs[q] = rd.buf
			cComm.LocalMsgs++
			cComm.LocalBytes += int64(len(rd.buf.Data))
		} else {
			// Planned collective: pack per destination processor in rank
			// order, straight from the sorted block, and exchange with one
			// synchronization.
			rd.inMsgs, err = pr.AllToAllPlan(&cComm, tagBase+rd.t*groupTagStride+incore.TagSpan, rd.buf, &rd.tab.send, pool)
			pool.Put(rd.buf)
			if err != nil {
				return rd, err
			}
		}
		rd.buf = record.Slice{}
		return rd, nil
	}

	fillCol := make([]int32, s)
	replay := func(rd groupRound) (groupRound, error) {
		// Replay every source's rank range in order; my arrivals for each
		// target column land contiguously in (source group, occurrence)
		// order — one block-local segment per column per round.
		tab := rd.tab
		rd.perCol = record.GetHeaders(s)
		for tj := 0; tj < s; tj++ {
			if tab.colTotal[tj] > 0 {
				rd.perCol[tj] = pool.Get(int(tab.colTotal[tj]), z)
			}
			fillCol[tj] = 0
		}
		for src := 0; src < P; src++ {
			msg := rd.inMsgs[src]
			kp := &tab.keep[src%len(tab.keep)]
			if len(msg.Data) != kp.total*z {
				return rd, fmt.Errorf("core: %s: message from %d has %d records, pattern wants %d",
					spec.name, src, len(msg.Data)/z, kp.total)
			}
			replayExtents(rd.perCol, fillCol, msg, kp.exts, z)
			cPerm.MovedBytes += int64(len(msg.Data))
			pool.Put(msg)
		}
		record.PutHeaders(rd.inMsgs)
		rd.inMsgs, rd.tab = nil, nil
		if !few {
			select {
			case spare <- tab:
			default:
			}
		}
		return rd, nil
	}

	written := make([]int, s) // per target column, block-local rows written
	write := func(rd groupRound) error {
		for tj := 0; tj < s; tj++ {
			chunk := rd.perCol[tj]
			if chunk.Data == nil || chunk.Len() == 0 {
				continue
			}
			if err := out.WriteRows(&cWrite, q, tj, lo+written[tj], chunk); err != nil {
				return err
			}
			written[tj] += chunk.Len()
			pool.Put(chunk)
		}
		record.PutHeaders(rd.perCol)
		rd.perCol = nil
		if onRound != nil {
			onRound()
		}
		return nil
	}

	err = pipeline.Run(context.Background(), pipeDepth, st.src, write, st.read, st.sort, exchange, replay)
	if err == nil {
		err = out.Flush(q) // a deferred write failure fails the pass
	}
	for _, ct := range []sim.Counters{cRead, cSort, cComm, cPerm, cWrite} {
		cnt.Add(ct)
	}
	if err != nil {
		return fmt.Errorf("core: %s pass: %w", spec.name, err)
	}
	for tj, n := range written {
		want := 0
		if tj%ng == a { // a column of my group: my whole block of it
			want = gs.rb
		}
		if n != want {
			return fmt.Errorf("core: %s pass: block of column %d received %d of %d records", spec.name, tj, n, want)
		}
	}
	return nil
}

// runGroupMergePass executes the fused steps 5–8: per round each group sorts
// its column j in-core (step 5); the overlap O = [bottom(j−1); top(j)] is
// assembled ON column j's group (bottom pieces arrive from the upper members
// of column j−1's group, top pieces shift up within the group), the group
// sorts O (step 7 — the paper's "each of the two sort stages turns into eight
// in-core sort stages"), and a rotation returns each final half-column to the
// owners of its rows, which write it in TRUE row order. The pieces of O are
// blocks the step-5 sort produced — one run each, so the overlap sort's own
// step 1 has nothing to do.
func runGroupMergePass(pr *cluster.Proc, pl Plan, spec groupSpec, in, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	q := pr.Rank()
	g, s := pl.Group, pl.S
	ng := pl.P / g
	a, m := q/g, q%g
	lo := m * (pl.R / g)
	h2 := g / 2
	left := (a - 1 + ng) % ng // group of column j−1
	right := (a + 1) % ng     // group of column j+1

	// Cross-round tags live beyond every round window.
	crossBase := tagBase + (pl.Rounds()+1)*groupTagStride
	tagTB := func(j int) int { return crossBase + 4*j }     // bottom pieces → column j+1's group
	tagTT := func(j int) int { return crossBase + 4*j + 1 } // top pieces up within the group
	tagTF := func(j int) int { return crossBase + 4*j + 2 } // final bottoms → column j's group
	tagTG := func(j int) int { return crossBase + 4*j + 3 } // final tops down within the group

	var cRead, cSort, cBound, cWrite sim.Counters
	st, err := newGroupStages(pr, pl, spec.runLen, in, tagBase, pool, &cRead, &cSort)
	if err != nil {
		return err
	}
	defer sortalg.PutScratch(st.sc)

	boundSc := sortalg.GetScratch()
	defer sortalg.PutScratch(boundSc)
	boundSorter := incore.Columnsort{Pool: pool, Scratch: boundSc, RunLen: pl.R / g}
	// deferred is the column whose final bottom this processor collects after
	// the NEXT round's boundary sort (−1: none) — see collect below.
	deferred := -1
	boundary := func(rd groupRound) (groupRound, error) {
		j := rd.col
		// collect receives my rows of column col's final bottom: the low half
		// of the sorted overlap (col, col+1), sent by the lower members of
		// column col+1's group right after that group's boundary sort.
		collect := func(col int) error {
			fin, err := pr.Recv(right*g+(m-h2), tagTF(col))
			if err != nil {
				return err
			}
			rd.writes = append(rd.writes, blockWrite{col, lo, fin})
			return nil
		}

		// Dispatch my sorted piece.
		if m >= h2 { // part of bottom(j)
			if j+1 < s {
				if err := pr.Send(&cBound, right*g+(m-h2), tagTB(j), rd.buf); err != nil {
					return rd, err
				}
			} else {
				rd.writes = append(rd.writes, blockWrite{j, lo, rd.buf}) // last column's bottom is final
			}
		} else { // part of top(j)
			if j == 0 {
				rd.writes = append(rd.writes, blockWrite{j, lo, rd.buf}) // first column's top is final
			} else {
				if err := pr.Send(&cBound, a*g+(m+h2), tagTT(j), rd.buf); err != nil {
					return rd, err
				}
			}
		}
		rd.buf = record.Slice{}

		// Resolve boundary (j−1, j) on this group.
		if j > 0 {
			var oPiece record.Slice
			var err error
			if m < h2 { // low half of O: bottom(j−1) pieces from the left group
				oPiece, err = pr.Recv(left*g+(m+h2), tagTB(j-1))
			} else { // high half of O: top(j) pieces from within the group
				oPiece, err = pr.Recv(a*g+(m-h2), tagTT(j))
			}
			if err != nil {
				return rd, err
			}
			sortedO, err := boundSorter.Sort(st.grp, &cBound, tagBase+rd.t*groupTagStride+2*incore.TagSpan, oPiece)
			if err != nil {
				return rd, err
			}
			// Rotation: low half is column j−1's final bottom (owned by
			// the left group's upper members); high half is column j's
			// final top (owned by this group's lower members).
			if m < h2 {
				if err := pr.Send(&cBound, left*g+(m+h2), tagTF(j-1), sortedO); err != nil {
					return rd, err
				}
				top, err := pr.Recv(a*g+(m+h2), tagTG(j))
				if err != nil {
					return rd, err
				}
				rd.writes = append(rd.writes, blockWrite{j, lo, top})
			} else {
				if err := pr.Send(&cBound, a*g+(m-h2), tagTG(j), sortedO); err != nil {
					return rd, err
				}
			}
		}

		// Collect my column's final bottom. Column j+1's group sorts the
		// overlap (j, j+1) in round (j+1)/ng. In this round, that group is
		// another one and its sort waits on nothing of mine, so I block for
		// it now. In the next round, that group's members — at one group,
		// myself among them — must first leave this round's boundary stage,
		// so blocking here would wait on a sort that waits on me: I collect
		// after my own boundary sort of that round instead, which is after
		// theirs has everything it needs from me (tagTB(j), sent above).
		if deferred >= 0 {
			if err := collect(deferred); err != nil {
				return rd, err
			}
			deferred = -1
		}
		if j+1 < s && m >= h2 {
			if (j+1)/ng > rd.t {
				deferred = j
			} else if err := collect(j); err != nil {
				return rd, err
			}
		}
		// Ascending (column, row): consecutive blocks stay one disk segment.
		slices.SortFunc(rd.writes, func(x, y blockWrite) int {
			return cmp.Or(cmp.Compare(x.col, y.col), cmp.Compare(x.row, y.row))
		})
		return rd, nil
	}

	write := func(rd groupRound) error {
		for _, w := range rd.writes {
			if err := out.WriteRows(&cWrite, q, w.col, w.row, w.recs); err != nil {
				return err
			}
			pool.Put(w.recs)
		}
		if onRound != nil {
			onRound()
		}
		return nil
	}

	err = pipeline.Run(context.Background(), pipeDepth, st.src, write, st.read, st.sort, boundary)
	if err == nil {
		err = out.Flush(q) // a deferred write failure fails the pass
	}
	for _, ct := range []sim.Counters{cRead, cSort, cBound, cWrite} {
		cnt.Add(ct)
	}
	if err != nil {
		return fmt.Errorf("core: group merge pass: %w", err)
	}
	return nil
}
