// Scratch state for the sort stages: every pass calls SortInto /
// MergeRunsInto once per pipeline round, and without reuse each call
// allocates a fresh (key, index) array (plus a radix ping-pong buffer and
// loser-tree state). A Scratch owns those buffers and grows them on demand,
// so the steady state of a pipeline performs no allocation in its sort
// stage at all.

package sortalg

import (
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
	count []int             // radix digit histogram (radixBuckets wide)
	node  []tournament.Node // loser tree: the tournament (key + run id)
	cur   []runCursor       // loser tree: per-run cursors
	runs  []Run             // MergeChunksInto: descriptors of the last shape merged
}

func (sc *Scratch) kvBuf(n int) []kv {
	if cap(sc.kvs) < n {
		sc.kvs = make([]kv, n)
	}
	return sc.kvs[:n]
}

func (sc *Scratch) tmpBuf(n int) []kv {
	if cap(sc.tmp) < n {
		sc.tmp = make([]kv, n)
	}
	return sc.tmp[:n]
}

// treeBufs lends the loser tree its two k-wide state arrays.
func (sc *Scratch) treeBufs(k int) (node []tournament.Node, cur []runCursor) {
	if cap(sc.node) < k {
		sc.node = make([]tournament.Node, k)
		sc.cur = make([]runCursor, k)
	}
	return sc.node[:k], sc.cur[:k]
}

// SortInto sorts the records of src into dst using introsort, reusing the
// scratch buffers. dst and src must have the same record size and length
// and must not alias.
func (sc *Scratch) SortInto(dst, src record.Slice) {
	sc.SortIntoAlg(dst, src, Intro)
}

// SortIntoAlg sorts src into dst with an explicit algorithm choice, reusing
// the scratch buffers.
func (sc *Scratch) SortIntoAlg(dst, src record.Slice, alg Algorithm) {
	n := src.Len()
	checkInto(dst, src)
	kvs := sc.kvBuf(n)
	for i := 0; i < n; i++ {
		kvs[i] = kv{key: src.Key(i), idx: int32(i)}
	}
	switch alg {
	case Intro:
		introsort(kvs, src, maxDepth(n))
	case Radix:
		if sc.count == nil {
			sc.count = make([]int, radixBuckets)
		}
		radixKV(kvs, src, sc.tmpBuf(n), sc.count)
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
