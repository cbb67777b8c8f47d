package sortalg

import "colsort/internal/record"

// detectRuns scans s and returns its maximal ascending contiguous runs.
// A test oracle: product code always knows its run structure statically.
func detectRuns(s record.Slice) []Run {
	n := s.Len()
	if n == 0 {
		return nil
	}
	var runs []Run
	start := 0
	for i := 1; i < n; i++ {
		if s.Less(i, i-1) {
			runs = append(runs, Contiguous(start, i-start))
			start = i
		}
	}
	return append(runs, Contiguous(start, n-start))
}

// heapMergeRunsInto is a simple binary-heap k-way merge used as a reference
// implementation to cross-check the loser tree in tests.
func heapMergeRunsInto(dst, src record.Slice, runs []Run) {
	checkInto(dst, src)
	type cur struct{ run, next int }
	h := make([]cur, 0, len(runs))
	pos := func(c cur) int { return runs[c.run].Start + c.next*runs[c.run].Stride }
	lessCur := func(a, b cur) bool {
		c := record.Compare(src, pos(a), src, pos(b))
		if c != 0 {
			return c < 0
		}
		return a.run < b.run
	}
	var down func(i int)
	down = func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && lessCur(h[c+1], h[c]) {
				c++
			}
			if !lessCur(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for r := range runs {
		if runs[r].Count > 0 {
			h = append(h, cur{run: r})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	k := 0
	for len(h) > 0 {
		top := h[0]
		dst.CopyRecord(k, src, pos(top))
		k++
		top.next++
		if top.next < runs[top.run].Count {
			h[0] = top
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
}
