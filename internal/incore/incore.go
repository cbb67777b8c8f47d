// Package incore implements the distributed-memory in-core sorts of
// Section 4 of the paper. M-columnsort's sort stage must sort one
// out-of-core column of r = M records held collectively by all P
// processors (M/P records each); the paper implemented three candidates —
// in-core columnsort, bitonic sort, and radix sort — and chose in-core
// columnsort on an (M/P)×P matrix. Section 6's hybrid runs the same sorts
// inside groups of g processors: a sorter sorts over whatever window of the
// cluster its *cluster.Proc speaks for (cluster.Proc.Sub), P or g.
//
// All three sorters share the same contract: every processor enters with n
// local records (the same n everywhere) and leaves with the n records of
// global rank [q·n, (q+1)·n) in sorted order, i.e. the distributed array is
// sorted with a block distribution. All communication is tagged within a
// caller-supplied tag window so that concurrent pipeline rounds never
// collide.
//
// In-core columnsort additionally accepts a declaration of the run structure
// of its input blocks (Columnsort.RunLen) and merges wherever a sort would
// only rediscover order it already knows — see the type's comment.
//
// Each sorter optionally carries a buffer Pool and a sort Scratch; when
// set, the sorter consumes its input buffer into the pool, draws every
// working and message buffer from it, and recycles received messages, so
// repeated sorts (one per pipeline round) allocate nothing in steady
// state. The zero value of each sorter allocates per call, preserving the
// old behaviour.
package incore

import (
	"fmt"

	"colsort/internal/cluster"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// TagSpan is the width of the tag window a single Sort invocation may use.
// Callers hand successive invocations tag bases at least TagSpan apart.
const TagSpan = 256

// Sorter is a distributed in-core sort.
type Sorter interface {
	// Name identifies the algorithm in reports and benchmarks.
	Name() string
	// Sort sorts the array distributed over pr's window of processors —
	// the whole cluster, or a group of it (cluster.Proc.Sub), which is how
	// hybrid group columnsort sorts inside each group. It consumes local
	// (ownership may move into messages or, for pooled sorters, back into
	// the pool) and returns the processor's sorted block, which the caller
	// owns.
	Sort(pr *cluster.Proc, cnt *sim.Counters, tagBase int, local record.Slice) (record.Slice, error)
}

// scratchOf returns sc, or a transient scratch when the sorter was built
// without one.
func scratchOf(sc *sortalg.Scratch) *sortalg.Scratch {
	if sc == nil {
		return new(sortalg.Scratch)
	}
	return sc
}

// Columnsort is the paper's choice: in-core columnsort on an (M/P)×P
// matrix, where in-core column q is processor q's local block. It requires
// P | n and the height restriction n ≥ 2P² (checked at run time), and
// sends ~2.5 column volumes over the network per sort — the least of the
// three algorithms.
//
// It is run-aware end to end (the paper's footnote 5): only step 1 ever
// sorts, and only when the caller knows nothing about its blocks. The
// transposes of steps 2 and 4 each deliver P sorted chunks — one per source
// processor, the records it sent in rank order — so steps 3 and 5 are P-way
// merges of the chunks where they arrived (a sort does not care where a chunk
// lands, so step 4's reshape needs no interleave). No record is copied except
// by a sort or merge: each writes its records straight into the buffers they
// leave in.
type Columnsort struct {
	Pool    *record.Pool     // optional buffer pool (nil: allocate per call)
	Scratch *sortalg.Scratch // optional sort scratch; NOT concurrency-safe
	// RunLen declares the structure of every input block: a concatenation of
	// ascending runs of RunLen records, so step 1 merges n/RunLen runs — or,
	// at RunLen = n, takes the block as it is. Zero, or a length that does
	// not divide n, means structure unknown: step 1 sorts from scratch. A
	// declaration the blocks do not honour yields unsorted output (which
	// verification catches), never a fault.
	RunLen int
}

func (Columnsort) Name() string { return "incore-columnsort" }

// CheckShape reports whether n local records on p processors satisfy
// in-core columnsort's requirements.
func (Columnsort) CheckShape(n, p int) error {
	if p > 1 && n < 2*p*p {
		return fmt.Errorf("incore: height restriction n=%d < 2P²=%d", n, 2*p*p)
	}
	if p > 0 && n%p != 0 {
		return fmt.Errorf("incore: P=%d must divide local length n=%d", p, n)
	}
	return nil
}

// runs is the number of declared runs in a block of n records (0: unknown).
func (cs Columnsort) runs(n int) int {
	if cs.RunLen > 0 && n%cs.RunLen == 0 {
		return n / cs.RunLen
	}
	return 0
}

func (cs Columnsort) Sort(pr *cluster.Proc, cnt *sim.Counters, tagBase int, local record.Slice) (record.Slice, error) {
	p := pr.NProcs()
	n, z := local.Len(), local.Size
	pool, sc := cs.Pool, scratchOf(cs.Scratch)
	k := cs.runs(n)
	if p == 1 && k == 1 {
		return local, nil // one run: already sorted
	}
	if err := cs.CheckShape(n, p); err != nil {
		return record.Slice{}, err
	}
	chunk := n / p

	// Steps 1–2: local sort, transpose & reshape. Local position i of in-core
	// column q goes to column (i mod P) at local position q·(n/P) + ⌊i/P⌋, so
	// the sort (or the merge of the declared runs, or at one run the block as
	// it is) deals its output round-robin straight into the P send buffers.
	out := record.GetHeaders(p)
	defer record.PutHeaders(out)
	for d := range out {
		out[d] = pool.Get(chunk, z)
	}
	if k >= 1 {
		sc.MergeSlices(out, true, sc.Chunks(local, k))
		cnt.CompareUnits += sim.MergeWork(n, k)
	} else {
		sc.SortSlices(out, true, local)
		cnt.CompareUnits += sim.SortWork(n)
	}
	pool.Put(local)
	cnt.MovedBytes += int64(n * z)
	if p == 1 {
		return out[0], nil
	}
	in, err := pr.AllToAll(cnt, tagBase+0, out)
	if err != nil {
		return record.Slice{}, err
	}

	// Step 3: local sort — a merge of the P chunks step 2 delivered, read
	// where they arrived. Step 4 sends chunk d of the result (positions
	// [d·n/P, (d+1)·n/P)) to column d, so the merge fills processor d's send
	// buffer with it. Its rows there are those ≡ q (mod P), but step 5 sorts
	// the column whatever the rows, so the chunk stays one run.
	for d := range out {
		out[d] = pool.Get(chunk, z)
	}
	cs.mergeArrivals(sc, cnt, out, in, n, z)
	if in, err = pr.AllToAll(cnt, tagBase+1, out); err != nil {
		return record.Slice{}, err
	}

	// Steps 5–8: local sort — again a P-way merge, into the block — then fused
	// boundary merges with neighbours.
	out[0] = pool.Get(n, z)
	cur := out[0]
	cs.mergeArrivals(sc, cnt, out[:1], in, n, z)
	if err := boundaryMerge(pr, cnt, tagBase+2, cur, pool); err != nil {
		return record.Slice{}, err
	}
	return cur, nil
}

// mergeArrivals is steps 3 and 5: the P-way merge of an all-to-all's n sorted
// arrivals of z bytes into lanes, filled one after another; the arrivals go
// back to the pool.
func (cs Columnsort) mergeArrivals(sc *sortalg.Scratch, cnt *sim.Counters, lanes, in []record.Slice, n, z int) {
	sc.MergeSlices(lanes, false, in)
	for _, msg := range in {
		cs.Pool.Put(msg)
	}
	cnt.CompareUnits += sim.MergeWork(n, len(in))
	cnt.MovedBytes += int64(n * z)
	record.PutHeaders(in)
}

// boundaryMerge performs the fused steps 5–8 of columnsort across a row of
// processors, in place on each processor's locally sorted block: the final
// top half of block q is the high half of merge(bottom(q−1), top(q)), and
// the final bottom half is the low half of merge(bottom(q), top(q+1)).
// It uses two tags: tagBase (bottom halves moving right) and tagBase+1
// (final bottoms moving left). Its half-column buffers come from pool (nil:
// allocate per call).
func boundaryMerge(pr *cluster.Proc, cnt *sim.Counters, tagBase int, local record.Slice, pool *record.Pool) error {
	p, q := pr.NProcs(), pr.Rank()
	n := local.Len()
	if p == 1 || n == 0 {
		return nil
	}
	if n%2 != 0 {
		return fmt.Errorf("incore: boundary merge needs even block length, got %d", n)
	}
	h := n / 2
	z := local.Size

	// Ship my bottom half right.
	if q < p-1 {
		bot := pool.Get(h, z)
		bot.Copy(local.Sub(h, n))
		cnt.MovedBytes += int64(len(bot.Data))
		if err := pr.Send(cnt, q+1, tagBase, bot); err != nil {
			return err
		}
	}
	// Merge my top half with the left neighbour's bottom half: the low half
	// goes straight into the buffer that carries it back as the left
	// neighbour's final bottom, the high half in place into my top.
	if q > 0 {
		prevBot, err := pr.Recv(q-1, tagBase)
		if err != nil {
			return err
		}
		top := local.Sub(0, h)
		back := pool.Get(h, z)
		sortalg.MergeLow(back, prevBot, top)
		sortalg.MergeHigh(top, prevBot, top)
		pool.Put(prevBot)
		cnt.CompareUnits += sim.MergeWork(n, 2)
		cnt.MovedBytes += int64(n * z)
		if err := pr.Send(cnt, q-1, tagBase+1, back); err != nil {
			return err
		}
	}
	// Collect my final bottom from the right neighbour (the last block's
	// bottom faces +∞ and is already final).
	if q < p-1 {
		fin, err := pr.Recv(q+1, tagBase+1)
		if err != nil {
			return err
		}
		local.Sub(h, n).Copy(fin)
		pool.Put(fin)
		cnt.MovedBytes += int64(h * z)
	}
	return nil
}
