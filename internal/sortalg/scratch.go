// Scratch state for the sort stages: every pass calls SortInto /
// MergeRunsInto once per pipeline round, and without reuse each call
// allocates a fresh (key, index) array (plus a radix ping-pong buffer and
// loser-tree state). A Scratch owns those buffers and grows them on demand,
// so the steady state of a pipeline performs no allocation in its sort
// stage at all.

package sortalg

import (
	"sync"

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
	count []int             // radix digit histogram
	node  []tournament.Node // loser tree: the tournament (key + run id)
	cur   []runCursor       // loser tree: per-run cursors
	runs  []Run             // MergeChunksInto: descriptors of the last shape merged
}

// scratchFree keeps the Scratches of finished passes for the next pass — of
// this job or any other — so the pair arrays are allocated once per pipeline
// slot of the process, not once per pass of every sort. A plain bounded free
// list, as record.GetHeaders: sync.Pool would drop them at every collection.
var (
	scratchMu   sync.Mutex
	scratchFree []*Scratch
)

// maxFreeScratch covers the sort stages of eight P = 4 jobs in flight; a warm
// Scratch of a 16384-record column holds about half a MiB.
const maxFreeScratch = 32

// GetScratch returns a Scratch for one sorting client, warm when a finished
// one is available. Hand it back with PutScratch.
func GetScratch() *Scratch {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	if n := len(scratchFree); n > 0 {
		sc := scratchFree[n-1]
		scratchFree[n-1] = nil
		scratchFree = scratchFree[:n-1]
		return sc
	}
	return new(Scratch)
}

// PutScratch recycles a Scratch no goroutine uses any more.
func PutScratch(sc *Scratch) {
	scratchMu.Lock()
	if len(scratchFree) < maxFreeScratch {
		scratchFree = append(scratchFree, sc)
	}
	scratchMu.Unlock()
}

// pairs returns *buf at length n, reallocated when it is too short.
func pairs(buf *[]kv, n int) []kv {
	if cap(*buf) < n {
		*buf = make([]kv, n)
	}
	return (*buf)[:n]
}

// countBuf returns radixKV's histogram for n pairs: its digit has under n/4
// values, so a small sort does not pay for a large one's 32 KiB.
func (sc *Scratch) countBuf(n int) []int {
	if w := min(n, 1<<radixMaxBits); cap(sc.count) < w {
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

// SortInto sorts the records of src into dst with the adaptive radix kernel
// (radixKV), reusing the scratch buffers. dst and src must have the same
// record size and length and must not alias.
func (sc *Scratch) SortInto(dst, src record.Slice) {
	sc.SortIntoAlg(dst, src, Radix)
}

// SortIntoAlg sorts src into dst with an explicit algorithm choice, reusing
// the scratch buffers.
func (sc *Scratch) SortIntoAlg(dst, src record.Slice, alg Algorithm) {
	n := src.Len()
	checkInto(dst, src)
	kvs := pairs(&sc.kvs, n)
	// and/or fold to the bits on which the keys do not all agree — what the
	// radix kernel picks its digit from — at no extra pass over src.
	and, or := ^uint64(0), uint64(0)
	for i := range kvs {
		k := src.Key(i)
		kvs[i] = kv{key: k, idx: int32(i)}
		and &= k
		or |= k
	}
	switch alg {
	case Intro:
		introsort(kvs, src, maxDepth(n))
	case Radix:
		kvs = radixKV(kvs, pairs(&sc.tmp, n), and^or, src, sc.countBuf(n))
	case Insertion:
		insertionKV(kvs, src, 0, n)
	default:
		panic(badAlg(alg))
	}
	gather(dst, src, kvs)
}

// MergeRunsInto merges the sorted runs of src into dst in total order,
// reusing the scratch's loser-tree state. Semantics match the package-level
// MergeRunsInto.
func (sc *Scratch) MergeRunsInto(dst, src record.Slice, runs []Run) {
	checkInto(dst, src)
	total := 0
	for _, r := range runs {
		r.validate(src.Len())
		total += r.Count
	}
	if total != src.Len() {
		panic(mergeCoverage(total, src.Len()))
	}
	switch len(runs) {
	case 0:
		return
	case 1:
		r := runs[0]
		for i := 0; i < r.Count; i++ {
			dst.CopyRecord(i, src, r.Start+i*r.Stride)
		}
		return
	case 2:
		merge2(dst, src, runs[0], runs[1])
		return
	}
	node, cur := sc.treeBufs(len(runs))
	var t loserTree
	t.init(src, runs, node, cur)
	for i := 0; i < total; i++ {
		dst.CopyRecord(i, src, t.pop())
	}
}

// MergeChunksInto merges src, which consists of k equal contiguous sorted
// chunks, into dst. The chunk descriptors live in the scratch and are rebuilt
// only when the shape (records, chunks) changes, so a stage that merges
// same-shaped buffers round after round neither allocates nor recomputes
// them. k must divide src.Len().
func (sc *Scratch) MergeChunksInto(dst, src record.Slice, k int) {
	if n := src.Len(); k < 1 || len(sc.runs) != k || sc.runs[0].Count*k != n {
		sc.runs = appendContiguousRuns(sc.runs[:0], n, k)
	}
	sc.MergeRunsInto(dst, src, sc.runs)
}
