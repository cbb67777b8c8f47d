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
// field holding per-processor rounds. The pass lists are core's groupSpecs:
// every sorting algorithm is group columnsort at its group size g, and a
// distribution pass is told apart by the run length of the blocks it reads,
// the number of groups a sorted block spreads over, and whether it is step
// 4's redistribution. Validated at g = 1, at g = P and at the hybrid's
// 2 ≤ g ≤ P/2 (P ∈ {4, 8}, g ∈ {2, 4}).
func predictTotals(pl core.Plan) ([]sim.Counters, error) {
	g := pl.Group
	ng := pl.P / g
	run := pl.R / pl.S / g // what steps 2 and 4 leave: chunk/g
	steps12 := groupScatterTotals(pl, 0, ng, false)
	switch pl.Alg {
	case core.Threaded, core.MColumn, core.Hybrid:
		return []sim.Counters{steps12,
			groupScatterTotals(pl, run, 0, true),
			boundaryTotals(pl, run),
		}, nil
	case core.Threaded4:
		return []sim.Counters{steps12,
			groupScatterTotals(pl, run, 0, true),
			groupScatterTotals(pl, run, 1, false), // step 5 alone: every block stays
			boundaryTotals(pl, pl.R),
		}, nil
	case core.Subblock, core.Combined:
		q := bitperm.Sqrt(pl.S)
		return []sim.Counters{steps12,
			groupScatterTotals(pl, run, bitperm.CeilDiv(ng, q), false), // Section 3, property 1
			groupScatterTotals(pl, pl.R/q/g, 0, true),
			boundaryTotals(pl, run),
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

// incoreSortTotals mirrors one distributed in-core columnsort of the whole
// cluster on blocks of n records made of sorted runs of runLen (0: unsorted)
// — incore.Columnsort.Sort with that RunLen: step 1 sorts, merges n/runLen
// runs or, at one run, takes the block as it is; steps 3 and 5 are P-way
// merges. Every record is copied once by each of the three (step 1's output is
// dealt straight into the step-2 send buffers — even a block taken as it is,
// except at P = 1, where it is handed back untouched) and by the boundary
// merges.
func incoreSortTotals(n, p, z, runLen int) sim.Counters {
	var c sim.Counters
	nz := int64(n) * int64(z)
	step1, gather := sim.SortWork(n), nz
	switch {
	case runLen == n && p == 1:
		step1, gather = 0, 0
	case runLen == n:
		step1 = 0
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
	c.MovedBytes += 2*p64*nz + 2*(p64-1)*nz
	// Two all-to-alls (steps 2 and 4) plus the neighbour boundary merges.
	c.LocalMsgs = 2 * p64
	c.LocalBytes = 2 * nz
	c.NetMsgs = 2*p64*(p64-1) + 2*(p64-1)
	c.NetBytes = 2*(p64-1)*nz + (p64-1)*nz
	return c
}

// groupScatterTotals mirrors runGroupScatterPass: one in-group sort per column
// (of blocks in runs of runLen, as the pass before left them), the exchange,
// the replay into per-column chunks, and the writes. Outside the
// redistribution, every sorted block spreads evenly over the same member of
// `targets` groups, its own among them; alone (targets = 1) it is handed over
// without pack or collective.
func groupScatterTotals(pl core.Plan, runLen, targets int, redistribute bool) sim.Counters {
	s64, g := int64(pl.S), int64(pl.Group)
	rz := int64(pl.R) * int64(pl.Z)
	c := ioOnlyTotals(pl)
	// Chunked column appends: s/P columns a round at g = 1, s at g = P.
	c.DiskWriteOps = s64 * s64 * g / int64(pl.P)
	addScaled(&c, incoreSortTotals(pl.R/pl.Group, pl.Group, pl.Z, runLen), s64)
	c.MovedBytes += s64 * rz // replay
	if redistribute || targets > 1 {
		c.MovedBytes += s64 * rz // pack
	}
	if redistribute {
		c.Add(redistributionTraffic(pl))
		return c
	}
	t := int64(targets)
	c.LocalMsgs += s64 * g
	c.LocalBytes += s64 * rz / t
	c.NetMsgs += s64 * g * (t - 1)
	c.NetBytes += s64 * rz * (t - 1) / t
	return c
}

// redistributionTraffic computes the exact messages of the step-4
// redistribution over the whole pass. Member m of a column's group holds
// sorted ranks [m·rb, (m+1)·rb); rank x goes to target column k = ⌊x/c⌋
// (c = r/s), to the member of group k mod P/g whose share holds its
// occurrence x mod c. A message is a non-empty (source, destination) pair,
// and the pair is the source itself in the columns its own group owns.
func redistributionTraffic(pl core.Plan) (c sim.Counters) {
	g, s, z := int64(pl.Group), int64(pl.S), int64(pl.Z)
	ng := int64(pl.P) / g
	rb := int64(pl.R) / g
	chunk := int64(pl.R) / s
	share := chunk / g
	toProc := make([]int64, pl.P) // records member m sends each processor, per source column
	for m := int64(0); m < g; m++ {
		clear(toProc)
		for x := m * rb; x < (m+1)*rb; {
			k, occ := x/chunk, x%chunk
			n := min(share-occ%share, (m+1)*rb-x) // to the end of the share or of the block
			toProc[k%ng*g+occ/share] += n
			x += n
		}
		for d, n := range toProc {
			if n == 0 {
				continue
			}
			self := int64(0) // source columns in which processor d IS the source
			if int64(d)%g == m {
				self = s / ng
			}
			c.LocalMsgs += self
			c.LocalBytes += self * n * z
			c.NetMsgs += s - self
			c.NetBytes += (s - self) * n * z
		}
	}
	return c
}

// boundaryTotals is the fused steps 5–8 pass under the resolver core picks
// for the plan's group size.
func boundaryTotals(pl core.Plan, runLen int) sim.Counters {
	if pl.Group == 1 {
		return mergePassTotals(pl, runLen)
	}
	return groupMergeTotals(pl, runLen)
}

// mergePassTotals mirrors runMergePass (g = 1): step 5 merges each column's
// declared runs, and s−1 interior boundaries each ship half a column forward
// and half back and merge two half-columns.
func mergePassTotals(pl core.Plan, runLen int) sim.Counters {
	s64 := int64(pl.S)
	rz := int64(pl.R) * int64(pl.Z)
	c := ioOnlyTotals(pl)
	c.DiskWriteOps = 2 * s64
	addScaled(&c, incoreSortTotals(pl.R, 1, pl.Z, runLen), s64)
	c.CompareUnits += (s64 - 1) * sim.MergeWork(pl.R, 2)
	c.MovedBytes += (s64-1)*rz/2 + (s64-1)*rz
	if pl.P > 1 {
		c.NetMsgs = 2 * (s64 - 1)
		c.NetBytes = (s64 - 1) * rz
	} else {
		c.LocalMsgs = 2 * (s64 - 1)
		c.LocalBytes = (s64 - 1) * rz
	}
	return c
}

// groupMergeTotals mirrors runGroupMergePass (g ≥ 2): every column is sorted
// in-core by its group; each of the s−1 boundaries adds a half-swap, an
// in-group sort of the overlap — whose pieces are sorted blocks already — and
// a half-rotation.
func groupMergeTotals(pl core.Plan, runLen int) sim.Counters {
	s64, g := int64(pl.S), int64(pl.Group)
	rb := pl.R / pl.Group
	c := ioOnlyTotals(pl)
	c.DiskWriteOps = 2 * s64
	addScaled(&c, incoreSortTotals(rb, pl.Group, pl.Z, runLen), s64) // step-5 sort of every column
	addScaled(&c, incoreSortTotals(rb, pl.Group, pl.Z, rb), s64-1)   // overlap sort of every boundary
	// Swap and rotation: every member of the group sends one rb-record message
	// in each, both always off-processor.
	c.NetMsgs += 2 * (s64 - 1) * g
	c.NetBytes += 2 * (s64 - 1) * g * int64(rb) * int64(pl.Z)
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
