// Scratch state for the sort stages: every pass calls SortInto /
// MergeRunsInto once per pipeline round, and without reuse each call
// allocates a fresh (key, index) array (plus a radix ping-pong buffer and
// loser-tree state). A Scratch owns those buffers and grows them on demand,
// so the steady state of a pipeline performs no allocation in its sort
// stage at all.

package sortalg

import (
	"math/bits"
	"slices"

	"colsort/internal/record"
	"colsort/internal/tournament"
)

// Scratch holds the reusable working memory of one sorting client. It is
// NOT safe for concurrent use: give each pipeline-stage goroutine its own
// Scratch (they are cheap — buffers grow lazily to the working-set size and
// are then reused for the life of the stage).
//
// The zero value is ready to use.
type Scratch struct {
	kvs   []kv              // (key, index) pairs of the buffer being sorted
	tmp   []kv              // radix ping-pong buffer
	count []int             // radix digit histograms
	node  []tournament.Node // loser tree: the tournament (key + run id)
	cur   []runCursor       // loser tree: per-run cursors
	runs  []record.Slice    // views of one buffer's runs (Chunks, MergeRunsInto)
}

// scratchFree keeps the Scratches of finished passes for the next pass — of
// this job or any other — so the pair arrays are allocated once per
// pipeline slot of the process, not once per pass of every sort. Its bound
// covers the sort stages of eight P = 4 jobs in flight; a warm Scratch of a
// 16384-record column holds about half a MiB.
var scratchFree = record.NewSpares[*Scratch](maxFreeScratch)

const maxFreeScratch = 32

// GetScratch returns a Scratch for one sorting client, warm when a finished
// one is available. Hand it back with PutScratch.
func GetScratch() *Scratch {
	if sc, ok := scratchFree.Get(); ok {
		return sc
	}
	return new(Scratch)
}

// PutScratch recycles a Scratch no goroutine uses any more.
func PutScratch(sc *Scratch) { scratchFree.Put(sc) }

// pairs returns *buf at length n, reallocated when it is too short.
func pairs(buf *[]kv, n int) []kv {
	if cap(*buf) < n {
		*buf = make([]kv, n)
	}
	return (*buf)[:n]
}

// countBuf returns radixKV's histogram for n pairs: its digits never have
// more than n values between them, so a small sort does not pay for a large
// one's 64 KiB.
func (sc *Scratch) countBuf(n int) []int {
	if w := min(n, 2<<radixMaxBits); cap(sc.count) < w {
		sc.count = make([]int, w)
	}
	return sc.count[:cap(sc.count)]
}

// treeBufs lends the loser tree its two k-wide state arrays.
func (sc *Scratch) treeBufs(k int) (node []tournament.Node, cur []runCursor) {
	if cap(sc.node) < k {
		sc.node = make([]tournament.Node, k)
		sc.cur = make([]runCursor, k)
	}
	return sc.node[:k], sc.cur[:k]
}

// views returns the scratch's slice-header buffer at length k, for cutting one
// buffer into the runs the merge reads.
func (sc *Scratch) views(k int) []record.Slice {
	if cap(sc.runs) < k {
		sc.runs = make([]record.Slice, k)
	}
	return sc.runs[:k]
}

// SortInto sorts the records of src into dst with the adaptive radix kernel
// (radixKV), reusing the scratch buffers. dst and src must have the same
// record size and length and must not alias.
func (sc *Scratch) SortInto(dst, src record.Slice) {
	sc.sortSlices([]record.Slice{dst}, false, src, Radix)
}

// SortIntoAlg sorts src into dst with an explicit algorithm choice, reusing
// the scratch buffers.
func (sc *Scratch) SortIntoAlg(dst, src record.Slice, alg Algorithm) {
	sc.sortSlices([]record.Slice{dst}, false, src, alg)
}

// SortSlices sorts src with the radix kernel into lanes — filled one after
// another, or (deal) dealt round-robin: rank i lands in lanes[i mod L] at
// position ⌊i/L⌋, so each lane is itself sorted — as MergeSlices writes its
// lanes. Into one lane it is SortInto. The lanes must have src's record size
// and hold exactly its records in the chosen layout, and must not alias src.
func (sc *Scratch) SortSlices(lanes []record.Slice, deal bool, src record.Slice) {
	sc.sortSlices(lanes, deal, src, Radix)
}

// SortIntoOrKeep is SortInto for a caller that can take src itself in place
// of a sorted copy: when every key of src rises above the one before, src is
// in order already, dst is not written and kept is true. It returns the key
// steps of src in its given order, which the kernel counts as it reads the
// keys: rises are the keys above the one before, falls those below.
func (sc *Scratch) SortIntoOrKeep(dst, src record.Slice) (rises, falls int, kept bool) {
	n := src.Len()
	checkLanes([]record.Slice{dst}, false, n, src.Size)
	kvs, rises, falls := sc.order(src, Radix)
	if kept = n > 0 && rises == n-1; !kept {
		gather([]record.Slice{dst}, false, src, kvs)
	}
	return rises, falls, kept
}

func (sc *Scratch) sortSlices(lanes []record.Slice, deal bool, src record.Slice, alg Algorithm) {
	checkLanes(lanes, deal, src.Len(), src.Size)
	kvs, _, _ := sc.order(src, alg)
	gather(lanes, deal, src, kvs)
}

// order returns the (key, index) pairs of src in the total order, and the key
// steps of src in its given order. The radix kernel runs only on keys that
// need it: keys that all rise are in order as they stand, and keys that all
// fall need only reversing — flat steps, equal keys, are ordered by their
// payloads and take the full sort.
func (sc *Scratch) order(src record.Slice, alg Algorithm) (kvs []kv, rises, falls int) {
	n := src.Len()
	kvs = pairs(&sc.kvs, n)
	diff, rises, falls := extract(kvs, src)
	switch {
	case alg == Intro:
		introsort(kvs, src, maxDepth(n))
	case alg != Radix:
		panic(badAlg(alg))
	case rises == n-1:
	case falls == n-1:
		slices.Reverse(kvs)
	default:
		kvs = radixKV(kvs, pairs(&sc.tmp, n), diff, nearlyOrdered(falls, n), src, sc.countBuf(n))
	}
	return kvs, rises, falls
}

// extract fills kvs with the (key, index) pairs of src and returns, at no
// extra pass over src, what the radix kernel picks its level from — the bits
// on which the keys do not all agree (an and/or fold) and how many keys fall
// below the one before — and how many rise above it. The steps are counted
// without a branch, since on random keys the direction is a coin flip.
func extract(kvs []kv, src record.Slice) (diff uint64, rises, falls int) {
	and, or, prev, r, f := ^uint64(0), uint64(0), uint64(0), uint64(0), uint64(0)
	if len(kvs) > 0 {
		prev = src.Key(0)
	}
	for i := range kvs {
		k := src.Key(i)
		kvs[i] = kv{key: k, idx: int32(i)}
		and &= k
		or |= k
		_, u := bits.Sub64(prev, k, 0)
		_, d := bits.Sub64(k, prev, 0)
		r, f, prev = r+u, f+d, k
	}
	return and ^ or, int(r), int(f)
}

// gather writes the records of src, in the order kvs lists them, into lanes:
// filled one after another, or dealt round-robin.
func gather(lanes []record.Slice, deal bool, src record.Slice, kvs []kv) {
	if !deal {
		for _, l := range lanes {
			for row, e := range kvs[:l.Len()] {
				l.CopyRecord(row, src, int(e.idx))
			}
			kvs = kvs[l.Len():]
		}
		return
	}
	d, row := 0, 0
	for _, e := range kvs {
		lanes[d].CopyRecord(row, src, int(e.idx))
		if d++; d == len(lanes) {
			d, row = 0, row+1
		}
	}
}

// MergeSlices is the one k-way merge: it merges the sorted slices runs, in
// total order, into lanes — filled one after another, or (deal) dealt
// round-robin as SortSlices deals — reading every record where it lies and
// writing it once, straight into the buffer it leaves in. Runs may be empty
// but carry their record size, the lanes must hold exactly the records of the
// runs, and no lane may alias a run. It reuses the scratch's loser-tree state.
func (sc *Scratch) MergeSlices(lanes []record.Slice, deal bool, runs []record.Slice) {
	n, size := 0, 0
	for _, r := range runs {
		n, size = n+r.Len(), r.Size
	}
	checkLanes(lanes, deal, n, size)
	if n == 0 {
		return
	}
	node, cur := sc.treeBufs(len(runs))
	var t loserTree
	t.init(runs, node, cur)
	d, row, end := 0, 0, lanes[0].Len()
	for range n {
		for !deal && row == end { // filled: on to the next lane
			d, row, end = d+1, 0, lanes[d+1].Len()
		}
		w, p := t.pop()
		lanes[d].CopyRecord(row, runs[w], p)
		if !deal {
			row++
		} else if d++; d == len(lanes) {
			d, row = 0, row+1
		}
	}
}

// MergeRunsInto merges the sorted runs of src into dst in total order — the
// one-buffer spelling of MergeSlices. The runs must cover src exactly.
func (sc *Scratch) MergeRunsInto(dst, src record.Slice, runs []Run) {
	v := sc.views(len(runs))
	for i, r := range runs {
		v[i] = src.Sub(r.Start, r.Start+r.Count)
	}
	sc.MergeSlices([]record.Slice{dst}, false, v)
}

// Chunks cuts src into k equal contiguous views — the runs of a block that
// consists of k sorted chunks — in the scratch's header buffer, valid until
// the next Chunks or MergeRunsInto. k must divide src.Len().
func (sc *Scratch) Chunks(src record.Slice, k int) []record.Slice {
	v, c := sc.views(k), src.Len()/k
	for i := range v {
		v[i] = src.Sub(i*c, (i+1)*c)
	}
	return v
}
