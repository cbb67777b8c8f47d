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
			runs = append(runs, Run{start, i - start})
			start = i
		}
	}
	return append(runs, Run{start, n - start})
}

// heapMerge is a simple binary-heap k-way merge of sorted slices into dst,
// the reference the loser tree is cross-checked against in tests.
func heapMerge(dst record.Slice, runs []record.Slice) {
	type cur struct{ run, next int }
	h := make([]cur, 0, len(runs))
	lessCur := func(a, b cur) bool {
		c := record.Compare(runs[a.run], a.next, runs[b.run], b.next)
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
		if len(runs[r].Data) > 0 {
			h = append(h, cur{run: r})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	k := 0
	for len(h) > 0 {
		top := h[0]
		dst.CopyRecord(k, runs[top.run], top.next)
		k++
		top.next++
		if top.next < runs[top.run].Len() {
			h[0] = top
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	if k != dst.Len() {
		panic("heapMerge: runs do not fill dst")
	}
}

// cut returns the runs of src as slices.
func cut(src record.Slice, runs []Run) []record.Slice {
	v := make([]record.Slice, len(runs))
	for i, r := range runs {
		v[i] = src.Sub(r.Start, r.Start+r.Count)
	}
	return v
}
