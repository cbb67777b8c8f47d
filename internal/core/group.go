package core

import (
	"cmp"
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

// Group columnsort is the ONE pass program of every layout in which
// processors share a column. The P processors form P/g groups of g; each
// column holds r = g·(M/P) records owned by one group (column j by group
// j mod P/g, member m holding rows [m·r/g, (m+1)·r/g)) and is sorted by the
// distributed in-core columnsort of internal/incore WITHIN the group, one
// column per group per round. The group size is the whole difference between
// the algorithms built on it:
//
//   - g = P is the paper's M-columnsort (Section 4) and, with the subblock
//     pass added, the Combined algorithm (Section 6): one group, r = M, every
//     column shared by the whole cluster.
//   - 2 ≤ g ≤ P/2 is the hybrid of Section 6's second future-work item:
//     column heights BETWEEN M/P and M, trading the problem-size bound
//     N ≤ (g·M/P)^{3/2}/√2 against sort-stage communication exactly as
//     internal/hybrid's analytic model predicts.
//
// Like the g = 1 programs, this one is run-aware in the sense of the paper's
// footnote 5: a distribution pass leaves each member's block of a column as
// a concatenation of ascending runs — chunk/g records per source column, in
// arrival order — so every pass after the first declares that length
// (groupSpec.runLen) to its in-group sorter, which merges the runs instead
// of sorting them, as the sorter's own steps 3 and 5 merge the chunks its
// transposes deliver. Only the first pass's step 1 sorts.
//
// g = 1 (a column owned by one processor) is NOT served here: its sort stage
// is local (scatter.go, mergepass.go) and pays neither the in-core sort's
// two all-to-alls nor the boundary pass's second sort (DESIGN.md §3).

// groupSpec is one pass of the group program: the run structure of the blocks
// it reads and, for a distribution pass, where the records of a sorted column
// go. After the in-group sort, member m holds sorted ranks [m·r/g, (m+1)·r/g)
// of its group's column. The boundary pass (fused steps 5–8) distributes
// nothing: its destCol is nil.
type groupSpec struct {
	name string
	// runLen is the length of the ascending runs this pass's INPUT blocks
	// consist of: 0 for the first pass (unsorted input), the previous pass's
	// chunk/g after it. The in-group sorter's step 1 merges them.
	runLen int
	// destCol maps a sorted rank of source column j to its target column.
	destCol func(rank int64, j int) int
	// occ is the rank's index among the records its target column receives
	// from one source column, in rank order. The member of the target
	// column's group that writes the record is occ ÷ (chunk/g): each member
	// takes an equal consecutive share. Computed from the rank itself, so
	// sender and receiver agree even where a rank block straddles target
	// columns (s < g).
	occ func(rank int64) int64
	// colInvariant marks destCol as independent of j, letting the
	// distribution tables be computed once per pass.
	colInvariant bool
	// redistribute marks the pass whose rank blocks do not evenly cover the
	// target columns (step 4): its communicate stage is an all-to-all in
	// every shape, which is what the cost model charges it
	// (figure2.redistributionTraffic) — also at s = 1, where step 4's map IS
	// step 2's and the send plan happens to be all-self.
	redistribute bool
	// chunk is the number of records a target column receives from one
	// source column (r/s for steps 2 and 4, r/√s for the subblock
	// permutation).
	chunk int
}

// groupTagStride separates the tag windows of consecutive rounds: each round
// may run two full in-core sorts plus the exchange.
const groupTagStride = 4 * incore.TagSpan

// groupSpecs lists the passes of a row-sharing plan: steps 1–2 and 3–4 as
// distribution passes, with the subblock permutation (3, 3.1) between them
// for Combined, and the fused steps 5–8 boundary pass. Each pass's input run
// length is what the pass before it wrote.
func groupSpecs(pl Plan) []groupSpec {
	r, s := int64(pl.R), int64(pl.S)
	c := r / s
	specs := []groupSpec{
		{name: "steps 1-2", chunk: int(c), colInvariant: true,
			destCol: func(rank int64, _ int) int { return int(rank % s) },
			occ:     func(rank int64) int64 { return rank / s }},
		{name: "steps 3-4", chunk: int(c), colInvariant: true, redistribute: true,
			destCol: func(rank int64, _ int) int { return int(rank / c) },
			occ:     func(rank int64) int64 { return rank % c }},
		{name: "steps 5-8"},
	}
	if pl.Alg == Combined {
		q := bitperm.MustSubblock(pl.R, pl.S).SqrtS()
		specs = slices.Insert(specs, 1, groupSpec{name: "subblock pass (3, 3.1)", chunk: pl.R / q,
			destCol: func(rank int64, j int) int { return j%q + int(rank%int64(q))*q },
			occ:     func(rank int64) int64 { return rank / int64(q) }})
	}
	for k := 1; k < len(specs); k++ {
		specs[k].runLen = specs[k-1].chunk / pl.Group
	}
	return specs
}

// groupPasses turns the specs into pass functions.
func groupPasses(pl Plan, specs []groupSpec) []passFunc {
	passes := make([]passFunc, len(specs))
	for k, spec := range specs {
		run := runGroupScatterPass
		if spec.destCol == nil {
			run = runGroupMergePass
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
	// perCol (scatter pass) holds, per target column, this round's arrival
	// chunk; nil entries receive nothing.
	perCol []record.Slice
	// writes (boundary pass) holds the final blocks this round completed.
	writes []blockWrite
}

// groupStages are the stages both group passes open with: the round source
// (one column of my group per round), the read of my block of the column,
// and the group's distributed in-core sort of it, told the run length of the
// blocks the pass reads.
type groupStages struct {
	grp        *cluster.Group
	src        func(emit func(groupRound) error) error
	read, sort func(groupRound) (groupRound, error)
}

func newGroupStages(pr *cluster.Proc, pl Plan, runLen int, in *pdm.Store, tagBase int, pool *record.Pool, cRead, cSort *sim.Counters) (groupStages, error) {
	q, g := pr.Rank(), pl.Group
	ng := pl.P / g
	rb := pl.R / g
	a, lo := q/g, q%g*rb

	grp, err := cluster.ContiguousGroup(pr, a*g, g)
	if err != nil {
		return groupStages{}, err
	}
	sorter := incore.Columnsort{Pool: pool, Scratch: new(sortalg.Scratch), RunLen: runLen}
	return groupStages{
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
			if next := rd.col + ng; next < pl.S {
				in.PrefetchRows(q, next, lo, rb) // stage the next round's block
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

// runGroupScatterPass executes one distribution pass: per round, each group
// reads one of its columns, sorts it with the in-group distributed
// columnsort, and scatters the records to the blocks of the target columns'
// owners across all groups, which append them in arrival order.
func runGroupScatterPass(pr *cluster.Proc, pl Plan, spec groupSpec, in, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	q := pr.Rank()
	P, g := pl.P, pl.Group
	ng := P / g
	r, s, z := pl.R, pl.S, pl.Z
	rb := r / g
	a, m := q/g, q%g
	lo := m * rb

	if spec.chunk%g != 0 {
		return fmt.Errorf("core: %s: per-round chunk %d not divisible by g=%d", spec.name, spec.chunk, g)
	}
	share := spec.chunk / g // records per (target column, member, source column)

	var cRead, cSort, cComm, cWrite sim.Counters
	st, err := newGroupStages(pr, pl, spec.runLen, in, tagBase, pool, &cRead, &cSort)
	if err != nil {
		return err
	}
	written := make([]int, s) // per target column, block-local rows written

	// Distribution tables of source column j. The send plan packs my sorted
	// rank block [lo, lo+rb) per destination processor; keepPlans[m'] replays
	// the rank range of source member m', keeping the records destined here and
	// mapping them to target columns (sources with the same in-group position
	// share a rank range, hence a plan); colTotal is what each target column
	// receives here per round. Built once per pass for column-invariant maps,
	// rebuilt per round into the same backing arrays otherwise.
	var sendPl sendPlan
	keepPlans := make([]colPlan, g)
	colTotal := make([]int32, s)
	// direct: every processor's send plan is all-self — each of the round's
	// ng·r records is routed to the processor that already holds it, so the
	// communicate stage is eliminated (the paper designs M-columnsort's
	// in-core sort to finish in exactly that distribution). The count runs
	// over every source's rank block, which all processors scan identically,
	// so all of them skip the collective or none does.
	direct := false
	build := func(j int) error {
		dest := func(gi int64) (proc, tj int) {
			tj = spec.destCol(gi, j)
			return (tj%ng)*g + int(spec.occ(gi)/int64(share)), tj
		}
		stay := 0
		for mm := 0; mm < g; mm++ {
			kp := &keepPlans[mm]
			kp.reset(s)
			srcLo := int64(mm) * int64(rb)
			for i := 0; i < rb; i++ {
				d, tj := dest(srcLo + int64(i))
				if d == q {
					kp.add(tj)
				}
				if d%g == mm { // kept by the one holder of this rank in group d/g
					stay++
				}
			}
		}
		direct = stay == ng*r && !spec.redistribute
		if !direct {
			buildSendPlan(&sendPl, func(i, _ int) int { d, _ := dest(int64(lo) + int64(i)); return d }, 0, rb, P)
		}
		// Every target column a round touches must receive exactly its
		// ng·share-record chunk.
		for tj := range colTotal {
			colTotal[tj] = 0
		}
		for src := 0; src < P; src++ {
			for tj, c := range keepPlans[src%g].counts {
				colTotal[tj] += c
			}
		}
		for tj, n := range colTotal {
			if n != 0 && int(n) != ng*share {
				return fmt.Errorf("core: %s: column %d would receive %d of %d records per round", spec.name, tj, n, ng*share)
			}
		}
		return nil
	}
	if spec.colInvariant {
		if err := build(0); err != nil {
			return err
		}
	}

	fillCol := make([]int32, s)
	distribute := func(rd groupRound) (groupRound, error) {
		if !spec.colInvariant {
			if err := build(rd.col); err != nil {
				return rd, err
			}
		}
		var inMsgs []record.Slice
		if direct {
			inMsgs = record.GetHeaders(P)
			inMsgs[q] = rd.buf
		} else {
			// Planned collective: pack per destination processor in rank
			// order, straight from the sorted block, and exchange with one
			// synchronization.
			var err error
			inMsgs, err = pr.AllToAllPlan(&cComm, tagBase+rd.t*groupTagStride+incore.TagSpan, rd.buf, &sendPl, pool)
			pool.Put(rd.buf)
			if err != nil {
				return rd, err
			}
		}
		rd.buf = record.Slice{}

		// Replay every source's rank range in order; my arrivals for each
		// target column land contiguously in (source group, occurrence)
		// order — one block-local segment per column per round.
		rd.perCol = record.GetHeaders(s)
		for tj := 0; tj < s; tj++ {
			if colTotal[tj] > 0 {
				rd.perCol[tj] = pool.Get(int(colTotal[tj]), z)
			}
			fillCol[tj] = 0
		}
		for src := 0; src < P; src++ {
			msg := inMsgs[src]
			kp := &keepPlans[src%g]
			if len(msg.Data) != kp.total*z {
				return rd, fmt.Errorf("core: %s: message from %d has %d records, pattern wants %d",
					spec.name, src, len(msg.Data)/z, kp.total)
			}
			replayExtents(rd.perCol, fillCol, msg, kp.exts, z)
			cComm.MovedBytes += int64(len(msg.Data))
			pool.Put(msg)
		}
		record.PutHeaders(inMsgs)
		return rd, nil
	}

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

	err = pipeline.RunDrain(pipeDepth, st.src, write,
		func() error { return out.Flush(q) },
		st.read, st.sort, distribute)
	for _, ct := range []sim.Counters{cRead, cSort, cComm, cWrite} {
		cnt.Add(ct)
	}
	if err != nil {
		return fmt.Errorf("core: %s pass: %w", spec.name, err)
	}
	for tj, n := range written {
		want := 0
		if tj%ng == a { // a column of my group: my whole block of it
			want = rb
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

	var boundSc sortalg.Scratch
	boundSorter := incore.Columnsort{Pool: pool, Scratch: &boundSc, RunLen: pl.R / g}
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

	err = pipeline.RunDrain(pipeDepth, st.src, write,
		func() error { return out.Flush(q) },
		st.read, st.sort, boundary)
	for _, ct := range []sim.Counters{cRead, cSort, cBound, cWrite} {
		cnt.Add(ct)
	}
	if err != nil {
		return fmt.Errorf("core: group merge pass: %w", err)
	}
	return nil
}
