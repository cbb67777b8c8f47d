package runform

import (
	"bytes"
	"encoding/binary"
	"sort"

	"colsort/internal/record"
)

// batchOracle is batched replacement selection spelled out naively, record
// by record, with none of the Former's machinery — no arena, page links,
// tournament or binary search — as the definition the Former must reproduce
// exactly:
//
//   - the arena is capacity/page pages of page = clamp(capacity/2048, 1, 64)
//     records; a chunk is max(pages/8, 1) pages' worth of arrivals;
//   - stage: read up to a chunk of arrivals, tallying key steps in arrival
//     order (the direction heuristic);
//   - sort: the chunk in record order, records 0..page−1 on its first page,
//     the next page's worth on its second, and so on;
//   - split: with the run going, the records that can follow the run's last
//     emitted record join it as one mini-run, the others are parked as
//     another; before the first run every chunk is parked;
//   - emit: the first (ascending) or last (descending) remaining record of
//     some live mini-run — the smallest in the run's direction, equal records
//     from the earlier chunk first;
//   - page-free: a page is free once every record on it is emitted, and a
//     chunk is staged as soon as, after an emission, a chunk's worth of
//     pages is free and the input is not exhausted;
//   - a run ends when its mini-runs are empty; the next starts from the
//     parked ones, descending on more than four downward steps per upward.
type batchOracle struct {
	read  func(rec []byte) (bool, error)
	z     int
	page  int
	pages int
	chunk int // records staged at a time

	onPage map[int]int // page id → its records not yet emitted; absent: free
	pageID int         // the next page's id

	live, parked []*oracleMini
	chunks       int
	desc         bool

	ups, downs int64
	prev       uint64
	seen       bool

	eof, started bool

	// The tree skip's cases, counted as the Former meets them: an emission
	// from the mini-run that made the last streakLen emissions in a row
	// (since the tree was last played: at NextRun, or an admission that added
	// a live mini-run) whose next key prefix — the tree's key — is below
	// every other live mini-run's (a skipped replay), and of those the ones
	// after which a chunk is admitted or that descend; or is equal to the
	// least of them (a tie with the bound, which the tree's tie rule orders).
	streak                               int
	streakOf                             *oracleMini
	skips, skipAdmits, descSkips, bounds int
}

// streakLen is the first emission of a streak whose replay the Former can
// skip: the one after skipAfter replays the same mini-run has won.
const streakLen = skipAfter + 1

// oracleMini is one mini-run: its remaining records, ascending, and the page
// each one lies on.
type oracleMini struct {
	recs [][]byte
	page []int
	seq  int
}

func newBatchOracle(capacity, z int, read func(rec []byte) (bool, error)) *batchOracle {
	capacity = max(capacity, 1)
	page := min(max(capacity/2048, 1), 64)
	pages := capacity / page
	return &batchOracle{read: read, z: z, page: page, pages: pages,
		chunk: max(pages/8, 1) * page, onPage: map[int]int{}}
}

func (o *batchOracle) Close() {}

func (o *batchOracle) freePages() int { return o.pages - len(o.onPage) }

// stage reads up to a chunk of arrivals, sorts them, puts them on fresh
// pages and splits them at last (nil: park them all).
func (o *batchOracle) stage(last []byte) error {
	var recs [][]byte
	for len(recs) < o.chunk {
		rec := make([]byte, o.z)
		ok, err := o.read(rec)
		if err != nil {
			return err
		}
		if !ok {
			o.eof = true
			break
		}
		k := binary.BigEndian.Uint64(rec)
		if o.seen && k > o.prev {
			o.ups++
		} else if o.seen && k < o.prev {
			o.downs++
		}
		o.prev, o.seen = k, true
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil
	}
	sort.Slice(recs, func(a, b int) bool { return bytes.Compare(recs[a], recs[b]) < 0 })
	o.chunks++
	run, park := &oracleMini{seq: o.chunks}, &oracleMini{seq: o.chunks}
	for i, rec := range recs {
		id := o.pageID + i/o.page
		o.onPage[id]++
		to := park
		if last != nil && o.follows(rec, last) {
			to = run
		}
		to.recs = append(to.recs, rec)
		to.page = append(to.page, id)
	}
	o.pageID += (len(recs) + o.page - 1) / o.page
	if len(run.recs) > 0 {
		o.live = append(o.live, run)
		o.streakOf = nil
	}
	if len(park.recs) > 0 {
		o.parked = append(o.parked, park)
	}
	return nil
}

// follows reports whether rec may follow last in the current run.
func (o *batchOracle) follows(rec, last []byte) bool {
	c := bytes.Compare(rec, last)
	return c == 0 || (c > 0) != o.desc
}

func (o *batchOracle) NextRun() (desc, ok bool, err error) {
	if !o.started {
		o.started = true
		for o.freePages() >= o.chunk/o.page && !o.eof {
			if err := o.stage(nil); err != nil {
				return false, false, err
			}
		}
	}
	o.BreakRun()
	if len(o.parked) == 0 {
		return false, false, nil
	}
	o.desc = o.downs > 4*o.ups
	o.ups, o.downs, o.seen = 0, 0, false
	o.live, o.parked, o.streakOf = o.parked, nil, nil
	return o.desc, true, nil
}

func (o *batchOracle) Fill(out record.Slice) (int, error) {
	n := 0
	for n < out.Len() {
		// The live mini-runs' next records; the winner is the smallest in
		// the run's direction, the earlier chunk's on a tie.
		var best *oracleMini
		var bestAt int
		for _, m := range o.live {
			if len(m.recs) == 0 {
				continue
			}
			at := 0
			if o.desc {
				at = len(m.recs) - 1
			}
			if best == nil {
				best, bestAt = m, at
				continue
			}
			c := bytes.Compare(m.recs[at], best.recs[bestAt])
			if o.desc {
				c = -c
			}
			if c < 0 || c == 0 && m.seq < best.seq {
				best, bestAt = m, at
			}
		}
		if best == nil {
			break
		}
		last := best.recs[bestAt]
		copy(out.Record(n), last)
		n++
		if o.onPage[best.page[bestAt]]--; o.onPage[best.page[bestAt]] == 0 {
			delete(o.onPage, best.page[bestAt])
		}
		best.recs = append(best.recs[:bestAt], best.recs[bestAt+1:]...)
		best.page = append(best.page[:bestAt], best.page[bestAt+1:]...)
		admit := o.freePages() >= o.chunk/o.page && !o.eof
		o.countSkip(best, admit)
		if admit {
			if err := o.stage(last); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

func (o *batchOracle) BreakRun() {
	for _, m := range o.live {
		if len(m.recs) > 0 {
			o.parked = append(o.parked, m)
		}
	}
	o.live = nil
}

// countSkip counts the tree skip's cases at an emission from best, the
// record that admits a chunk when admit is set.
func (o *batchOracle) countSkip(best *oracleMini, admit bool) {
	if best != o.streakOf {
		o.streak, o.streakOf = 0, best
	}
	if o.streak++; o.streak < streakLen {
		return
	}
	bound := record.MaxKey
	for _, m := range o.live {
		if m != best {
			bound = min(bound, o.treeKey(m))
		}
	}
	switch next := o.treeKey(best); {
	case next < bound:
		o.skips++
		if admit {
			o.skipAdmits++
		}
		if o.desc {
			o.descSkips++
		}
	case next == bound:
		o.bounds++
	}
}

// treeKey is m's key in the Former's tree: its next record's prefix in the
// run's direction, or the maximal key once it is exhausted.
func (o *batchOracle) treeKey(m *oracleMini) uint64 {
	if len(m.recs) == 0 {
		return record.MaxKey
	}
	if o.desc {
		return ^binary.BigEndian.Uint64(m.recs[len(m.recs)-1])
	}
	return binary.BigEndian.Uint64(m.recs[0])
}
