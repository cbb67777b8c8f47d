package core

import (
	"colsort/internal/cluster"
	"colsort/internal/record"
)

// Precomputed permutation tables for the scatter pass.
//
// The exchange and replay stages of a scatter pass apply the pass's oblivious
// permutation: for every sorted rank of a source column, groupSpec.dest says
// where the record goes. The answers depend only on the plan and — for steps 2
// and 4 — not even on the source column j, so the whole question-and-answer
// session is computed ONCE per pass and compiled into flat tables
// (scatterTables): per-destination counts and maximal contiguous-run extents
// (consecutive sorted positions with the same destination). The per-round
// work then collapses from closure calls plus per-record copies into batched
// copies of runs over dense slices.
//
// The send-side tables use the fabric's own plan type (cluster.SendPlan), so
// the exchange stage hands the whole plan to the planned all-to-all
// collective, which packs per-destination pooled buffers in one pass over the
// sorted block and runs the round through the exchange board.
//
// For passes whose destination map does depend on the source column (the
// subblock permutation, step 5 alone), the tables are rebuilt per round. Every
// set, of every pass, comes from a process-wide bounded free list
// (tableSpares) and goes back to it; a build resizes the set to its pass's
// shape and keeps the backing arrays, so once the sets have grown to the
// largest shape they serve, a pass — of this sort or the next — allocates no
// tables at all.

// extent is a maximal run of consecutive sorted positions sharing one
// destination: Dst is a destination processor on the send side and a target
// column on the receive side.
type extent = cluster.Extent

// replayExtents executes a compiled plan: for each extent, one batched copy
// of count records from the running position in src into dst[e.Dst] at that
// buffer's fill offset. fill must be zeroed and len ≥ the largest e.Dst+1;
// it is left holding the per-destination record counts consumed.
func replayExtents(dst []record.Slice, fill []int32, src record.Slice, exts []extent, z int) {
	pos := 0
	for _, e := range exts {
		d, n := int(e.Dst), int(e.Count)
		f := int(fill[d])
		copy(dst[d].Data[f*z:(f+n)*z], src.Data[pos*z:(pos+n)*z])
		fill[d] += int32(n)
		pos += n
	}
}

// sendPlan is the exchange stage's packing pattern for one sorted block: how
// many records go to each destination processor, and the contiguous-run
// extents of the block in scan order. It IS the fabric's plan type, handed to
// Proc.AllToAllPlan verbatim.
type sendPlan = cluster.SendPlan

// buildSendPlan compiles the plan of a block of n positions, position i going
// to processor dest(i), reusing the plan's backing arrays.
func buildSendPlan(sp *sendPlan, dest func(i int) int, n, P int) {
	if cap(sp.Counts) < P {
		sp.Counts = make([]int32, P)
	}
	sp.Counts = sp.Counts[:P]
	for d := range sp.Counts {
		sp.Counts[d] = 0
	}
	if cap(sp.Exts) < n {
		sp.Exts = make([]extent, 0, n) // extents never outnumber positions
	}
	sp.Exts = sp.Exts[:0]
	prev := int32(-1)
	for i := 0; i < n; i++ {
		d := int32(dest(i))
		sp.Counts[d]++
		if d == prev {
			sp.Exts[len(sp.Exts)-1].Count++
		} else {
			sp.Exts = append(sp.Exts, extent{Dst: d, Count: 1})
			prev = d
		}
	}
}

// colPlan is the distribution pattern of one scan of sorted ranks over
// target columns: per-column counts plus extents of consecutive KEPT positions
// sharing a column, accumulated via add so the caller applies its keep
// predicate. Because a message carries exactly the records destined to one
// processor, in source order, consecutive kept records with the same column
// form one extent even when skipped records separate them in the scan.
type colPlan struct {
	total  int
	counts []int32 // per target column
	exts   []extent
}

func (cp *colPlan) reset(s int) {
	if cap(cp.counts) < s {
		cp.counts = make([]int32, s)
	}
	cp.counts = cp.counts[:s]
	for i := range cp.counts {
		cp.counts[i] = 0
	}
	cp.exts = cp.exts[:0]
	cp.total = 0
}

// add accumulates the next kept scan position, coalescing same-column runs
// into one extent — the run-length encoding buildSendPlan inlines in its scan
// loop.
func (cp *colPlan) add(tj int) {
	cp.counts[tj]++
	cp.total++
	if n := len(cp.exts); n > 0 && cp.exts[n-1].Dst == int32(tj) {
		cp.exts[n-1].Count++
	} else {
		cp.exts = append(cp.exts, extent{Dst: int32(tj), Count: 1})
	}
}
