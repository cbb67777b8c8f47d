// Package figure2 regenerates the paper's evaluation artifacts: Figure 2
// (execution seconds per GB/processor for every algorithm and buffer size),
// the eligibility matrix of Section 5, the buffer-size sweep, and the
// pass-count ablation.
//
// Strategy: the out-of-core algorithms in internal/core count every
// operation they perform. Those counts are deterministic functions of the
// plan (N, r, s, P, D, Z) because the algorithms are oblivious. This file
// computes the counts in closed form; the package test suite validates the
// closed forms EXACTLY against measured runs at laptop scale (disk bytes,
// message counts, network bytes, comparison work), so evaluating them at
// paper scale and applying the calibrated cost model of internal/sim is
// faithful to what a full-scale run of this code base would do.
package figure2

import (
	"fmt"

	"colsort/internal/bitperm"
	"colsort/internal/core"
	"colsort/internal/sim"
)

// PredictPassCounters returns, for each pass of the plan, the per-processor
// average counters (all processors are statistically identical under the
// oblivious pattern; totals are exact, see the validation tests).
func PredictPassCounters(pl core.Plan) ([][]sim.Counters, error) {
	totals, err := predictTotals(pl)
	if err != nil {
		return nil, err
	}
	out := make([][]sim.Counters, len(totals))
	for k, tot := range totals {
		per := scaleDown(tot, pl.P)
		// Rounds is already per-processor in the totals builder.
		per.Rounds = tot.Rounds
		procs := make([]sim.Counters, pl.P)
		for p := range procs {
			procs[p] = per
		}
		out[k] = procs
	}
	return out, nil
}

func scaleDown(c sim.Counters, p int) sim.Counters {
	d := int64(p)
	return sim.Counters{
		DiskReadBytes:  c.DiskReadBytes / d,
		DiskWriteBytes: c.DiskWriteBytes / d,
		DiskReadOps:    c.DiskReadOps / d,
		DiskWriteOps:   c.DiskWriteOps / d,
		NetBytes:       c.NetBytes / d,
		NetMsgs:        c.NetMsgs / d,
		LocalBytes:     c.LocalBytes / d,
		LocalMsgs:      c.LocalMsgs / d,
		CompareUnits:   c.CompareUnits / d,
		MovedBytes:     c.MovedBytes / d,
	}
}

// predictTotals returns whole-cluster totals per pass, with the Rounds
// field holding per-processor rounds.
func predictTotals(pl core.Plan) ([]sim.Counters, error) {
	switch pl.Alg {
	case core.Threaded:
		return []sim.Counters{
			scatterTotals(pl, sortFull, allToAllComm),
			scatterTotals(pl, mergeRS, allToAllComm),
			mergePassTotals(pl, mergeRS),
		}, nil
	case core.Threaded4:
		return []sim.Counters{
			scatterTotals(pl, sortFull, allToAllComm),
			scatterTotals(pl, mergeRS, allToAllComm),
			scatterTotals(pl, mergeRS, selfComm),
			mergePassTotals(pl, alreadySorted),
		}, nil
	case core.Subblock:
		q := bitperm.Sqrt(pl.S)
		return []sim.Counters{
			scatterTotals(pl, sortFull, allToAllComm),
			scatterTotals(pl, mergeRS, subblockComm),
			scatterTotals(pl, mergeK(pl.R/q), allToAllComm),
			mergePassTotals(pl, mergeRS),
		}, nil
	case core.MColumn:
		run := pl.R / pl.S / pl.P // what steps 2 and 4 leave: chunk/g, g = P
		return []sim.Counters{
			mcolScatterTotals(pl, 0, false),
			mcolScatterTotals(pl, run, true),
			mcolMergeTotals(pl, run),
		}, nil
	case core.Combined:
		run := pl.R / pl.S / pl.P
		return []sim.Counters{
			mcolScatterTotals(pl, 0, false),
			mcolScatterTotals(pl, run, false), // subblock pass: no redistribution
			mcolScatterTotals(pl, pl.R/bitperm.Sqrt(pl.S)/pl.P, true),
			mcolMergeTotals(pl, run),
		}, nil
	case core.BaselineIO3, core.BaselineIO4:
		pass := ioOnlyTotals(pl)
		out := make([]sim.Counters, pl.Alg.Passes())
		for k := range out {
			out[k] = pass
		}
		return out, nil
	}
	return nil, fmt.Errorf("figure2: unknown algorithm %v", pl.Alg)
}

// Sort-stage cost kinds for column-owned passes.
type sortKind int

const (
	sortFull sortKind = iota
	mergeRS           // merge s runs of r/s
	alreadySorted
)

func mergeK(runLen int) func(pl core.Plan) int64 {
	return func(pl core.Plan) int64 {
		return int64(pl.S) * sim.MergeWork(pl.R, pl.R/runLen)
	}
}

func sortCost(pl core.Plan, kind interface{}) int64 {
	switch k := kind.(type) {
	case sortKind:
		switch k {
		case sortFull:
			return int64(pl.S) * sim.SortWork(pl.R)
		case mergeRS:
			return int64(pl.S) * sim.MergeWork(pl.R, pl.S)
		case alreadySorted:
			return 0
		}
	case func(pl core.Plan) int64:
		return k(pl)
	}
	panic("figure2: bad sort kind")
}

// Communicate-stage kinds for column-owned scatter passes.
type commKind int

const (
	allToAllComm commKind = iota
	subblockComm
	selfComm
)

func ioOnlyTotals(pl core.Plan) sim.Counters {
	nz := pl.N * int64(pl.Z)
	return sim.Counters{
		DiskReadBytes:  nz,
		DiskWriteBytes: nz,
		DiskReadOps:    int64(pl.D),
		DiskWriteOps:   int64(pl.D),
		Rounds:         int64(pl.Rounds()),
	}
}

// scatterTotals mirrors runScatterPass's charges exactly (see the
// validation tests): per column, the sort gather, the message packing and
// the permute placement each move r·Z bytes.
func scatterTotals(pl core.Plan, kind interface{}, comm commKind) sim.Counters {
	s64 := int64(pl.S)
	rz := int64(pl.R) * int64(pl.Z)
	c := ioOnlyTotals(pl)
	c.DiskWriteOps = int64(pl.S) * int64(pl.S) / int64(pl.P) // chunked column appends
	c.CompareUnits = sortCost(pl, kind)
	c.MovedBytes = 3 * s64 * rz
	switch comm {
	case allToAllComm:
		c.LocalMsgs = s64
		c.LocalBytes = s64 * rz / int64(pl.P)
		c.NetMsgs = s64 * int64(pl.P-1)
		c.NetBytes = s64 * rz * int64(pl.P-1) / int64(pl.P)
	case selfComm:
		c.LocalMsgs = s64
		c.LocalBytes = s64 * rz
	case subblockComm:
		t := int64(bitperm.MessagesPerRound(pl.P, pl.S))
		c.LocalMsgs = s64 // the self-destined message of property 2
		c.LocalBytes = s64 * rz / t
		c.NetMsgs = s64 * (t - 1)
		c.NetBytes = s64 * rz * (t - 1) / t
	}
	return c
}

// mergePassTotals mirrors runMergePass: s−1 interior boundaries each ship
// half a column forward and half back and merge two half-columns.
func mergePassTotals(pl core.Plan, kind interface{}) sim.Counters {
	s64 := int64(pl.S)
	rz := int64(pl.R) * int64(pl.Z)
	c := ioOnlyTotals(pl)
	c.DiskWriteOps = 2 * s64
	c.CompareUnits = sortCost(pl, kind) + (s64-1)*sim.MergeWork(pl.R, 2)
	c.MovedBytes = s64*rz + (s64-1)*rz/2 + (s64-1)*rz
	if pl.P > 1 {
		c.NetMsgs = 2 * (s64 - 1)
		c.NetBytes = (s64 - 1) * rz
	} else {
		c.LocalMsgs = 2 * (s64 - 1)
		c.LocalBytes = (s64 - 1) * rz
	}
	return c
}

// incoreSortTotals mirrors one distributed in-core columnsort of the whole
// cluster on blocks of n records made of sorted runs of runLen (0: unsorted)
// — incore.Columnsort.Sort with that RunLen: step 1 sorts, merges n/runLen
// runs or, at one run, takes the block as it is (no gather either); steps 3
// and 5 are P-way merges.
func incoreSortTotals(n, p, z, runLen int) sim.Counters {
	var c sim.Counters
	nz := int64(n) * int64(z)
	step1, gather := sim.SortWork(n), nz
	switch {
	case runLen == n:
		step1, gather = 0, 0
	case runLen > 0:
		step1 = sim.MergeWork(n, n/runLen)
	}
	p64 := int64(p)
	c.CompareUnits = p64 * step1
	c.MovedBytes = p64 * gather
	if p == 1 {
		return c
	}
	c.CompareUnits += 2*p64*sim.MergeWork(n, p) + (p64-1)*sim.MergeWork(n, 2)
	c.MovedBytes += 6*p64*nz + 2*(p64-1)*nz
	// Two all-to-alls (steps 2 and 4) plus the neighbour boundary merges.
	c.LocalMsgs = 2 * p64
	c.LocalBytes = 2 * nz
	c.NetMsgs = 2*p64*(p64-1) + 2*(p64-1)
	c.NetBytes = 2*(p64-1)*nz + (p64-1)*nz
	return c
}

// rangeModCount counts {x ∈ [lo,hi): x mod m ∈ [a,b)} for 0 ≤ a < b ≤ m.
func rangeModCount(lo, hi, m, a, b int64) int64 {
	if hi <= lo {
		return 0
	}
	full := (hi - lo) / m
	count := full * (b - a)
	inWindow := func(x int64) int64 { // |[0,x) ∩ [a,b)| within one cycle
		if x <= a {
			return 0
		}
		if x >= b {
			return b - a
		}
		return x - a
	}
	loM := lo % m
	hiM := loM + (hi-lo)%m
	if hiM <= m {
		count += inWindow(hiM) - inWindow(loM)
	} else {
		count += (inWindow(m) - inWindow(loM)) + inWindow(hiM-m)
	}
	return count
}

// redistributionTraffic computes the exact per-round message matrix of the
// step-4 redistribution: source processor q (holding global ranks
// [q·rb, (q+1)·rb)) sends to destination d the records whose occurrence
// index within their target column's chunk c = r/s lies in d's share.
func redistributionTraffic(pl core.Plan) (netMsgs, netBytes, localMsgs, localBytes int64) {
	p := int64(pl.P)
	r := int64(pl.R)
	rb := r / p
	chunk := r / int64(pl.S)
	share := chunk / p
	// The implementation uses a full AllToAll: P messages per processor
	// per round regardless of emptiness; only the self-destined share
	// (records gi ∈ q's range with (gi mod chunk) ∈ q's share window)
	// stays off the network.
	bytesPerRound := r * int64(pl.Z)
	var selfBytes int64
	for q := int64(0); q < p; q++ {
		selfBytes += rangeModCount(q*rb, (q+1)*rb, chunk, q*share, (q+1)*share) * int64(pl.Z)
	}
	localMsgs = p
	localBytes = selfBytes
	netMsgs = p * (p - 1)
	netBytes = bytesPerRound - selfBytes
	return netMsgs, netBytes, localMsgs, localBytes
}

// mcolScatterTotals mirrors runGroupScatterPass at g = P: s rounds, each with one
// distributed in-core sort (of blocks in runs of runLen, as the pass before
// left them), optional redistribution, grouping, and writes.
func mcolScatterTotals(pl core.Plan, runLen int, redistribute bool) sim.Counters {
	s64 := int64(pl.S)
	rb := pl.R / pl.P
	rbz := int64(rb) * int64(pl.Z)
	c := ioOnlyTotals(pl)
	c.DiskWriteOps = s64 * s64 // each processor appends to s columns per round
	addScaled(&c, incoreSortTotals(rb, pl.P, pl.Z, runLen), s64)
	if redistribute {
		nm, nb, lm, lb := redistributionTraffic(pl)
		c.NetMsgs += s64 * nm
		c.NetBytes += s64 * nb
		c.LocalMsgs += s64 * lm
		c.LocalBytes += s64 * lb
		// Pack + reassemble: 2·rb·Z per processor per round.
		c.MovedBytes += s64 * 2 * rbz * int64(pl.P)
	} else {
		// Grouping into per-column chunks: rb·Z per processor per round.
		c.MovedBytes += s64 * rbz * int64(pl.P)
	}
	return c
}

// mcolMergeTotals mirrors runGroupMergePass at g = P: per round one in-core sort of
// the column; for rounds j ≥ 1 additionally a half-swap, an in-core sort of
// the overlap — whose pieces are sorted blocks already — and a half-rotation.
func mcolMergeTotals(pl core.Plan, runLen int) sim.Counters {
	s64 := int64(pl.S)
	rb := pl.R / pl.P
	rbz := int64(rb) * int64(pl.Z)
	c := ioOnlyTotals(pl)
	c.DiskWriteOps = 2 * s64
	addScaled(&c, incoreSortTotals(rb, pl.P, pl.Z, runLen), s64) // step-5 sort every round
	addScaled(&c, incoreSortTotals(rb, pl.P, pl.Z, rb), s64-1)   // overlap sort for rounds 1..s−1
	if pl.P > 1 && s64 > 1 {
		// Swap and rotation: every processor sends one rb-record message
		// in each, both always off-processor.
		c.NetMsgs += 2 * (s64 - 1) * int64(pl.P)
		c.NetBytes += 2 * (s64 - 1) * int64(pl.P) * rbz
	}
	return c
}

func addScaled(dst *sim.Counters, src sim.Counters, times int64) {
	dst.NetBytes += src.NetBytes * times
	dst.NetMsgs += src.NetMsgs * times
	dst.LocalBytes += src.LocalBytes * times
	dst.LocalMsgs += src.LocalMsgs * times
	dst.CompareUnits += src.CompareUnits * times
	dst.MovedBytes += src.MovedBytes * times
}
