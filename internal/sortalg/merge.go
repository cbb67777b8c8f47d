package sortalg

import (
	"fmt"

	"colsort/internal/record"
	"colsort/internal/tournament"
)

// Run describes a sorted block [Start, Start+Count) of a record buffer. The
// passes know the run structure of what they read (the paper's footnote 5) and
// merge instead of sorting from scratch; Run is how a caller holding one
// buffer names its runs (MergeRunsInto).
type Run struct {
	Start, Count int
}

// ContiguousRuns cuts n records into k equal contiguous runs.
func ContiguousRuns(n, k int) []Run {
	if k <= 0 || n%k != 0 {
		panic(fmt.Sprintf("sortalg: cannot cut %d records into %d equal runs", n, k))
	}
	runs := make([]Run, k)
	for i := range runs {
		runs[i] = Run{Start: i * (n / k), Count: n / k}
	}
	return runs
}

// checkLanes panics unless lanes can hold exactly n records of the given size
// in the chosen layout: any lengths summing to n when filled one after
// another; when dealt, the lengths a round-robin deal of n records produces
// (lane d holds ranks d, d+L, d+2L, …).
func checkLanes(lanes []record.Slice, deal bool, n, size int) {
	if n > 1<<31-1 {
		panic("sortalg: buffer exceeds 2^31 records")
	}
	total, L := 0, len(lanes)
	for d, l := range lanes {
		if n > 0 && l.Size != size {
			panic(fmt.Sprintf("sortalg: lane of %d-byte records for %d-byte records", l.Size, size))
		}
		if deal && l.Len() != (n-d+L-1)/L {
			panic(fmt.Sprintf("sortalg: lane %d of %d holds %d records, a deal of %d gives it %d", d, L, l.Len(), n, (n-d+L-1)/L))
		}
		total += l.Len()
	}
	if total != n {
		panic(fmt.Sprintf("sortalg: lanes hold %d records, the input has %d", total, n))
	}
}

// MergeLow writes the dst.Len() smallest records of the merge of the sorted
// slices a and b into dst, in order: the low half of a boundary merge, the
// half a merge-split keeps on the low side, or — at dst.Len() = a.Len() +
// b.Len() — the whole merge. dst must not alias a or b.
func MergeLow(dst, a, b record.Slice) {
	checkHalf(dst, a, b)
	mergeFront(dst, a, b)
}

// MergeHigh writes the dst.Len() largest records of the merge of the sorted
// slices a and b into dst, in order. dst may be b itself (the same records of
// the same buffer): the merge then runs in place, which is how a boundary
// merge leaves its high half where the top half of the block was — after
// MergeLow has taken the low half out of it. Otherwise dst must not alias a
// or b.
func MergeHigh(dst, a, b record.Slice) {
	checkHalf(dst, a, b)
	// Split the merge at rank m = |a|+|b|−|dst| (the co-rank search of a
	// merge-path split), then merge the tails front to back. In place this is
	// safe: while a lasts, the write position stays behind b's read position
	// (the tail of a holds exactly as many records as b's low part freed), and
	// once a is spent the rest of b is already where it belongs.
	m := a.Len() + b.Len() - dst.Len()
	lo, hi := max(0, m-b.Len()), min(m, a.Len())
	for lo < hi {
		i := int(uint(lo+hi) >> 1)
		if record.Compare(a, i, b, m-i-1) <= 0 {
			lo = i + 1 // a[i] precedes b[m−i−1]: among the low m
		} else {
			hi = i
		}
	}
	mergeFront(dst, a.Sub(lo, a.Len()), b.Sub(m-lo, b.Len()))
}

func checkHalf(dst, a, b record.Slice) {
	if dst.Len() > a.Len()+b.Len() || dst.Size != a.Size || a.Size != b.Size {
		panic(fmt.Sprintf("sortalg: half merge of %d+%d records into %d, sizes %d/%d/%d",
			a.Len(), b.Len(), dst.Len(), a.Size, b.Size, dst.Size))
	}
}

// mergeFront fills dst with the first dst.Len() records of the merge of a and
// b; on a tie a's record goes first. Whatever one side leaves once the other
// is spent moves as one copy.
func mergeFront(dst, a, b record.Slice) {
	z, n := dst.Size, dst.Len()
	i, j, k := 0, 0, 0
	for ; k < n && i < a.Len() && j < b.Len(); k++ {
		if record.Compare(b, j, a, i) < 0 {
			dst.CopyRecord(k, b, j)
			j++
		} else {
			dst.CopyRecord(k, a, i)
			i++
		}
	}
	if k < n {
		rest := b.Data[j*z:]
		if i < a.Len() {
			rest = a.Data[i*z:]
		}
		copy(dst.Data[k*z:], rest)
	}
}

// loserTree is the k-way merge over sorted slices, on the shared tournament
// kernel (internal/tournament): contestant r is run r, its key the 8-byte
// prefix of the run's front record — loaded once each time the front advances
// — or record.MaxKey once the run is exhausted. The common-case match is then
// one 16-byte node load and one uint64 compare — no pointer-chased record
// loads from buffers arbitrarily larger than cache; only key ties (including
// the genuine-maximal-key vs exhausted ambiguity) fall back to the cursors and
// the record bytes. This is what keeps wide merges (k = 64) near the
// throughput of narrow ones. Both state arrays are caller-supplied (a Scratch
// lends its reusable buffers) so that a merge stage allocates nothing in
// steady state.
type loserTree struct {
	runs []record.Slice
	node []tournament.Node // the tournament, one entry per run
	cur  []runCursor       // per-run cursor
}

// runCursor is one run's live state.
type runCursor struct {
	pos int32 // index of the run's front record
	rem int32 // records remaining; 0 = exhausted
}

// init wires the tree onto the given state (node and cur of length
// len(runs)) and plays the initial tournament.
func (t *loserTree) init(runs []record.Slice, node []tournament.Node, cur []runCursor) {
	t.runs, t.node, t.cur = runs, node, cur
	for r, run := range runs {
		t.cur[r] = runCursor{rem: int32(run.Len())}
	}
	tournament.Play(node, t.front, t.tieBeats)
}

// front is run r's tournament entry: its front record's key prefix, or the
// maximal key once it is exhausted.
func (t *loserTree) front(r int32) tournament.Node {
	if t.cur[r].rem == 0 {
		return tournament.Node{Key: record.MaxKey, ID: r}
	}
	return tournament.Node{Key: t.runs[r].Key(int(t.cur[r].pos)), ID: r}
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
	c := record.Compare(t.runs[o], int(co.pos), t.runs[w], int(cw.pos))
	if c != 0 {
		return c < 0
	}
	return o < w
}

// pop returns the run and position of the next record in merge order and
// advances that run (reloading its cached key). Calling pop more times than
// there are records panics.
func (t *loserTree) pop() (int32, int) {
	w := t.node[0].ID
	c := &t.cur[w]
	if c.rem == 0 {
		panic("sortalg: loser tree exhausted")
	}
	p := int(c.pos)
	c.rem--
	key := record.MaxKey
	if c.rem > 0 {
		c.pos++
		key = t.runs[w].Key(p + 1)
	}
	tournament.Replay(t.node, w, key, t.tieBeats)
	return w, p
}
