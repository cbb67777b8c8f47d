package sortalg

import (
	"fmt"

	"colsort/internal/record"
	"colsort/internal/tournament"
)

// Run describes a sorted subsequence of a record buffer: records at
// positions Start, Start+Stride, ..., Start+(Count-1)*Stride. The write
// patterns of columnsort passes leave each column as a set of such runs
// (contiguous runs after pass 1, stride-s interleaved runs after pass 2),
// and the next pass's sort stage exploits them by merging instead of
// sorting from scratch — the optimization footnote 5 of the paper describes.
type Run struct {
	Start, Stride, Count int
}

// validate panics on malformed run descriptors; these are always produced
// by pass planners, so errors are programmer bugs.
func (r Run) validate(n int) {
	if r.Count < 0 || r.Stride < 1 || r.Start < 0 {
		panic(fmt.Sprintf("sortalg: bad run %+v", r))
	}
	if r.Count > 0 && r.Start+(r.Count-1)*r.Stride >= n {
		panic(fmt.Sprintf("sortalg: run %+v exceeds buffer of %d records", r, n))
	}
}

// Contiguous returns the run descriptor for a plain sorted block [start,
// start+count).
func Contiguous(start, count int) Run { return Run{Start: start, Stride: 1, Count: count} }

// ContiguousRuns cuts n records into k equal contiguous runs.
func ContiguousRuns(n, k int) []Run { return appendContiguousRuns(nil, n, k) }

// appendContiguousRuns appends ContiguousRuns(n, k) to runs.
func appendContiguousRuns(runs []Run, n, k int) []Run {
	if k <= 0 || n%k != 0 {
		panic(fmt.Sprintf("sortalg: cannot cut %d records into %d equal runs", n, k))
	}
	for i := 0; i < k; i++ {
		runs = append(runs, Contiguous(i*(n/k), n/k))
	}
	return runs
}

// MergeRunsInto merges the sorted runs of src into dst in total order.
// The runs must cover src exactly (the merge checks total count only, since
// overlapping-run bugs surface immediately in sortedness tests). For k ≤ 2
// it uses direct merges; otherwise a loser tree. It allocates tree state
// per call; pipeline code should prefer Scratch.MergeRunsInto.
func MergeRunsInto(dst, src record.Slice, runs []Run) {
	var sc Scratch
	sc.MergeRunsInto(dst, src, runs)
}

func mergeCoverage(total, n int) string {
	return fmt.Sprintf("sortalg: runs cover %d of %d records", total, n)
}

// MergeInto merges two independently stored sorted slices a and b into dst.
// Used by the fused steps 5–8 boundary merges, where the two halves come
// from different columns (and often different processors).
func MergeInto(dst, a, b record.Slice) {
	if dst.Len() != a.Len()+b.Len() || dst.Size != a.Size || a.Size != b.Size {
		panic("sortalg: MergeInto size mismatch")
	}
	i, j, k := 0, 0, 0
	for i < a.Len() && j < b.Len() {
		if record.Compare(b, j, a, i) < 0 {
			dst.CopyRecord(k, b, j)
			j++
		} else {
			dst.CopyRecord(k, a, i)
			i++
		}
		k++
	}
	for ; i < a.Len(); i++ {
		dst.CopyRecord(k, a, i)
		k++
	}
	for ; j < b.Len(); j++ {
		dst.CopyRecord(k, b, j)
		k++
	}
}

func merge2(dst, src record.Slice, ra, rb Run) {
	ai, bi := 0, 0
	k := 0
	for ai < ra.Count && bi < rb.Count {
		pa := ra.Start + ai*ra.Stride
		pb := rb.Start + bi*rb.Stride
		if src.Less(pb, pa) {
			dst.CopyRecord(k, src, pb)
			bi++
		} else {
			dst.CopyRecord(k, src, pa)
			ai++
		}
		k++
	}
	for ; ai < ra.Count; ai++ {
		dst.CopyRecord(k, src, ra.Start+ai*ra.Stride)
		k++
	}
	for ; bi < rb.Count; bi++ {
		dst.CopyRecord(k, src, rb.Start+bi*rb.Stride)
		k++
	}
}

// loserTree is the k-way merge over the runs of one buffer, on the shared
// tournament kernel (internal/tournament): contestant r is run r, its key
// the 8-byte prefix of the run's front record — loaded once each time the
// front advances — or record.MaxKey once the run is exhausted. The
// common-case match is then one 16-byte node load and one uint64 compare —
// no pointer-chased record loads from a buffer arbitrarily larger than
// cache, no per-run indirection; only key ties (including the
// genuine-maximal-key vs exhausted ambiguity) fall back to the cursors and
// the record bytes. This is what keeps wide merges (k = 64) near the
// throughput of narrow ones. Both arrays are caller-supplied (a Scratch
// lends its reusable buffers) so that a merge stage allocates nothing in
// steady state.
type loserTree struct {
	src  record.Slice
	node []tournament.Node // the tournament, one entry per run
	cur  []runCursor       // per-run cursor (position, remaining, stride)
}

// runCursor is one run's live state, packed into 16 bytes so a pop touches
// a single cache line of cursor state.
type runCursor struct {
	pos    int32 // current source position (records)
	rem    int32 // records remaining; 0 = exhausted
	stride int32 // cursor advance per pop
}

// init wires the tree onto the given state (node and cur of length
// len(runs)) and plays the initial tournament.
func (t *loserTree) init(src record.Slice, runs []Run, node []tournament.Node, cur []runCursor) {
	t.src, t.node, t.cur = src, node, cur
	for r := range runs {
		t.cur[r] = runCursor{
			pos:    int32(runs[r].Start),
			rem:    int32(runs[r].Count),
			stride: int32(runs[r].Stride),
		}
	}
	tournament.Play(node, t.front, t.tieBeats)
}

// front is run r's tournament entry: its front record's key prefix, or the
// maximal key once it is exhausted.
func (t *loserTree) front(r int32) tournament.Node {
	if t.cur[r].rem == 0 {
		return tournament.Node{Key: record.MaxKey, ID: r}
	}
	return tournament.Node{Key: t.src.Key(int(t.cur[r].pos)), ID: r}
}

// tieBeats resolves a key-prefix tie between runs o and w: exhausted runs
// lose to everything (an exhausted run's sentinel key can tie a live
// maximal record, so liveness is re-checked here), live ties compare the
// full records, and exact duplicates break on run id for determinism.
func (t *loserTree) tieBeats(o, w int32) bool {
	co, cw := t.cur[o], t.cur[w]
	if co.rem == 0 {
		return false
	}
	if cw.rem == 0 {
		return true
	}
	c := record.Compare(t.src, int(co.pos), t.src, int(cw.pos))
	if c != 0 {
		return c < 0
	}
	return o < w
}

// pop returns the source position of the next record in merge order and
// advances its run (reloading its cached key). Calling pop more times than
// there are records panics.
func (t *loserTree) pop() int {
	w := t.node[0].ID
	c := &t.cur[w]
	if c.rem == 0 {
		panic("sortalg: loser tree exhausted")
	}
	p := int(c.pos)
	c.rem--
	key := record.MaxKey
	if c.rem > 0 {
		np := p + int(c.stride)
		c.pos = int32(np)
		key = t.src.Key(np)
	}
	tournament.Replay(t.node, w, key, t.tieBeats)
	return p
}
