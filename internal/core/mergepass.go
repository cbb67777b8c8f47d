package core

import (
	"fmt"

	"colsort/internal/cluster"
	"colsort/internal/pdm"
	"colsort/internal/pipeline"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// runMergePass executes the fused steps 5–8 at g = 1 — the final pass of
// threaded, 4-pass and subblock columnsort. It opens like every group pass
// (newGroupStages: read, then step 5 as a merge of the declared runs) and
// resolves the boundaries where a group of one can: both halves of an overlap
// meet on ONE processor.
//
// Per round, each processor resolves the two column boundaries its sorted
// column touches: writing [L; H] for the sorted merge of (bottom of column
// j−1, top of column j), the final top of column j is H and the final bottom
// of column j−1 is L (steps 6–8 compressed into adjacent-half merges). Bottom
// halves travel to the right-hand neighbour; final bottoms travel back. This
// is the paper's 7-stage pipeline: read, sort, communicate, sort, communicate,
// permute, write.
//
// The pass writes TRUE row order — its output is the sorted file.
func runMergePass(pr *cluster.Proc, pl Plan, spec groupSpec, in, out *pdm.Store, tagBase int, pool *record.Pool, cnt *sim.Counters, onRound func()) error {
	p := pr.Rank()
	P := pl.P
	r, s, z := pl.R, pl.S, pl.Z
	h := r / 2

	var cRead, cSort, cComm1, cMerge, cComm2, cWrite sim.Counters
	st, err := newGroupStages(pr, pl, spec.runLen, in, tagBase, pool, &cRead, &cSort)
	if err != nil {
		return err
	}
	defer sortalg.PutScratch(st.sc)
	// Boundary b sits between columns b and b+1: its bottom half moves right
	// under tagB(b), its final bottom moves back under tagF(b). Both live
	// beyond every round window.
	crossBase := tagBase + (pl.Rounds()+1)*groupTagStride
	tagB := func(b int) int { return crossBase + 2*b }
	tagF := func(b int) int { return crossBase + 2*b + 1 }

	comm1 := func(rd groupRound) (groupRound, error) { // step 6: ship bottoms right
		if rd.col+1 < s {
			bot := pool.Get(h, z)
			bot.Copy(rd.buf.Sub(h, r))
			cComm1.MovedBytes += int64(len(bot.Data))
			if err := pr.Send(&cComm1, (p+1)%P, tagB(rd.col), bot); err != nil {
				return rd, err
			}
		}
		return rd, nil
	}

	mergeStage := func(rd groupRound) (groupRound, error) { // step 7 at boundary col−1|col
		if rd.col == 0 {
			rd.finalTop = rd.buf.Sub(0, h)
			return rd, nil
		}
		prevBot, err := pr.Recv((p+P-1)%P, tagB(rd.col-1))
		if err != nil {
			return rd, err
		}
		// The low half of the overlap is column col−1's final bottom: it is
		// merged straight into the buffer that carries it back. The high half,
		// column col's final top, is merged in place into the top half.
		top := rd.buf.Sub(0, h)
		back := pool.Get(h, z)
		sortalg.MergeLow(back, prevBot, top)
		sortalg.MergeHigh(top, prevBot, top)
		pool.Put(prevBot)
		cMerge.CompareUnits += sim.MergeWork(r, 2)
		cMerge.MovedBytes += int64(r * z)
		rd.finalTop = top
		if err := pr.Send(&cMerge, (p+P-1)%P, tagF(rd.col-1), back); err != nil {
			return rd, err
		}
		return rd, nil
	}

	comm2 := func(rd groupRound) (groupRound, error) { // step 8: collect final bottom
		if rd.col+1 < s {
			fin, err := pr.Recv((p+1)%P, tagF(rd.col))
			if err != nil {
				return rd, err
			}
			rd.finalBot = fin
		} else {
			rd.finalBot = rd.buf.Sub(h, r) // faces +∞: already final
		}
		return rd, nil
	}

	write := func(rd groupRound) error {
		if err := out.WriteRows(&cWrite, p, rd.col, 0, rd.finalTop); err != nil {
			return err
		}
		if err := out.WriteRows(&cWrite, p, rd.col, h, rd.finalBot); err != nil {
			return err
		}
		// Recycle this round's buffers: finalTop and finalBot are views of
		// buf (or a received buffer, for finalBot off the last column), so
		// only the owning buffers go back.
		if rd.col+1 < s {
			pool.Put(rd.finalBot) // received whole-message buffer
		}
		pool.Put(rd.buf)
		if onRound != nil {
			onRound()
		}
		return nil
	}

	err = pipeline.RunDrain(pipeDepth, st.src, write,
		func() error { return out.Flush(p) },
		st.read, st.sort, comm1, mergeStage, comm2)
	for _, c := range []sim.Counters{cRead, cSort, cComm1, cMerge, cComm2, cWrite} {
		cnt.Add(c)
	}
	if err != nil {
		return fmt.Errorf("core: merge pass: %w", err)
	}
	return nil
}
