// Package runform forms sorted runs from a record stream by batched
// replacement selection (Larson, "External Sorting: Run Formation
// Revisited", IEEE TKDE 2003; Bender, McCauley, McGregor, Singh, Vu — "Run
// Generation Revisited"): replacement selection whose unit of admission is a
// sorted chunk instead of a record, so that every record is moved by the
// radix sort and k-way merge kernels, over a tournament as wide as the
// chunks in play rather than as memory.
//
// A Former holds `capacity` normalized records in one arena cut into pages
// of clamp(capacity/2048, 1, 64) records. It takes its arrivals as sorted
// chunks of up to an eighth of the pages' worth (ChunkLen), each sorted and
// tallied by SortChunk on the producer's side — the caller's own stage, or
// New's per-record adapter — copies each into free pages and splits it by
// one binary search at the run's last emitted record: the part that can
// still extend the run becomes a mini-run of this run, the rest is parked
// for the next. The run itself is a k-way merge of its live mini-runs on
// internal/tournament's loser tree — k is at most ~20 on random input —
// each mini-run read sequentially through its pages; a
// page returns to the free list when its last record is emitted, and the
// next chunk is admitted as soon as a chunk's worth of pages is free. On
// random input runs come out at ~1.9× the capacity in steady state (classic
// replacement selection: 2×; fixed batches: 1×); on sorted input the former
// yields a single run.
//
// Runs may be ascending or descending: before each run starts, the
// key-step tally of the arrivals admitted since the previous run began —
// each chunk's own steps in arrival order, plus the step from the previous
// chunk's last arrival when that chunk was admitted since then — picks the
// direction, and descending needs a decisive supermajority of
// downward steps — so monotonically decreasing inputs (the mirror of the
// nearly-sorted production case) collapse to one run, while random input
// always forms ascending runs. The supermajority matters: on random input
// the direction signal is a coin flip, and alternating run directions cuts
// the expected run length (Knuth TAOCP vol. 3 §5.4.1). A descending run
// reads its mini-runs backwards. Descending runs are spilled as written and
// consumed through a reversed run reader downstream; the Former itself only
// guarantees each run is monotone in its declared direction.
//
// All comparisons happen in normalized key space: records are memcmp-
// ordered after KeySpec encoding, and the 8-byte big-endian key prefix held
// inline in the tournament resolves almost every match without touching the
// record bytes. Byte-identical records go first from the mini-run admitted
// earlier, so the runs are a function of the input alone.
package runform

import (
	"bytes"
	"math/bits"
	"slices"
	"sort"

	"colsort/internal/record"
	"colsort/internal/sortalg"
	"colsort/internal/tournament"
)

// Former produces sorted runs from a stream of sorted chunks by batched
// replacement selection. It is single-goroutine; the caller drives it with
// NextRun / Fill and must Close it to return the pooled arena.
type Former struct {
	pool *record.Pool
	src  func() (Chunk, error)
	done func() // returns what New's adapter holds; nil from NewChunked

	arena record.Slice // the resident records: len(holders) pages of `page` records
	page  int          // records per page
	need  int          // free pages that admit a chunk: ChunkLen / page

	// The page table. A chunk's pages are linked in its sorted order (next,
	// prev); holders[p] counts the mini-runs with records not yet emitted
	// in page p — 0 (free), 1, or 2 for the page a split cuts.
	free       []int32
	next, prev []int32
	holders    []uint8

	live   []miniRun         // the current run's mini-runs: contestant i is live[i]
	parked []miniRun         // mini-runs of the next run
	node   []tournament.Node // the tournament over live: prefix XOR flip, or MaxKey once exhausted
	wins   int               // replays in a row the winner has won
	bound  uint64            // during a streak of skipAfter wins, the winner's tournament.Bound; else 0
	chunks uint64            // chunks admitted: the last one's sequence number

	desc bool   // current run emits in descending order
	flip uint64 // 0 ascending, ^0 descending

	// Direction heuristic state: up/down key steps between consecutive
	// arrivals since the previous run started (the initial fill, for run 1).
	// The next run goes descending only on a decisive supermajority of
	// downward steps; anything noisier defaults to ascending.
	ups, downs int64
	prevKey    uint64 // the last admitted arrival's key prefix
	haveSeen   bool   // a chunk was admitted since the tally was reset

	eof     bool
	started bool
}

// A Chunk is a batch of arrivals as the Former admits it: Recs holds them
// sorted ascending, in a buffer the Former puts back into its pool once it
// has copied them into its pages, and the tally describes them in arrival
// order — the up- and down-steps between consecutive arrivals' key
// prefixes, and the first and last arrival's prefix — which is all the
// direction heuristic reads. A Chunk with no records ends the stream.
type Chunk struct {
	Recs        record.Slice
	Ups, Downs  int64
	First, Last uint64
}

// miniRun is the remaining part of one sorted chunk that belongs to one run:
// records lo..hi of the arena in ascending order, through the chunk's page
// links. A run reads it from lo up, or — descending — from hi down.
type miniRun struct {
	lo, hi int32  // arena index of the first and the last remaining record
	rem    int32  // records remaining; 0 once exhausted
	left   int32  // of those, the ones in the front's page (live mini-runs only)
	seq    uint64 // the chunk's admission number: equal records go older first
}

// geometry is the arena of a Former of the given capacity: pages of page
// records, and the pages one chunk fills.
func geometry(capacity int) (page, pages, need int) {
	capacity = max(capacity, 1)
	page = min(max(capacity/2048, 1), 64)
	pages = capacity / page
	return page, pages, max(pages/8, 1)
}

// Capacity is the arena a Former of the given capacity allocates: the
// capacity rounded down to whole pages. A Former of capacity Capacity(c)
// allocates exactly that.
func Capacity(capacity int) int {
	page, pages, _ := geometry(capacity)
	return page * pages
}

// ChunkLen is the most records one Chunk may hold for a Former of the given
// capacity: C = p·max(⌊H/p⌋/8, 1), an eighth of the arena. A producer hands
// over chunks of exactly C records but the last, so that the runs are a
// function of the input alone.
func ChunkLen(capacity int) int {
	page, _, need := geometry(capacity)
	return need * page
}

// SortChunk makes the Chunk of the arrivals src: it radix-sorts them into
// dst, a buffer as long as src that does not alias it, and keeps the key
// steps in arrival order that the kernel counted as it read the keys.
// Arrivals whose keys all rise are sorted as they stand: then the Chunk holds
// src itself, dst is not written, and inPlace is true. The Former puts the
// Chunk's buffer back into its pool, so the caller keeps the other one — src,
// or with inPlace, dst. sc is the caller's: the Former sorts nothing itself.
func SortChunk(sc *sortalg.Scratch, dst, src record.Slice) (c Chunk, inPlace bool) {
	c.Recs = dst
	if n := src.Len(); n > 0 {
		c.First, c.Last = src.Key(0), src.Key(n-1)
		ups, downs, kept := sc.SortIntoOrKeep(dst, src)
		c.Ups, c.Downs = int64(ups), int64(downs)
		if kept {
			c.Recs, inPlace = src, true
		}
	}
	return c, inPlace
}

// step is the key step from a to b: (1, 0) up, (0, 1) down, (0, 0) flat. It
// takes no branch, since on random keys the direction is a coin flip.
func step(a, b uint64) (up, down int64) {
	_, u := bits.Sub64(a, b, 0)
	_, d := bits.Sub64(b, a, 0)
	return int64(u), int64(d)
}

// New builds a Former over a record stream, one record at a time. capacity is
// the number of resident records, z the record size in bytes. read fills rec
// with the next input record, returning false at end of stream; records must
// already be in normalized (memcmp-ordered) key space. It is an adapter over
// NewChunked: it stages ChunkLen arrivals at a time into a buffer of its own
// and feeds the Former what SortChunk makes of them. The arena, the staging
// buffer and the chunks are taken from pool; with a nil pool, from one of
// the Former's own, so the chunks still cycle through one buffer.
func New(capacity, z int, pool *record.Pool, read func(rec []byte) (bool, error)) *Former {
	if pool == nil {
		pool = record.NewPool()
	}
	stage, sc := pool.Get(ChunkLen(capacity), z), sortalg.GetScratch()
	eof := false
	f := NewChunked(capacity, z, pool, func() (Chunk, error) {
		got := 0
		for ; got < stage.Len() && !eof; got++ {
			ok, err := read(stage.Record(got))
			if err != nil {
				return Chunk{}, err
			}
			if !ok {
				eof = true
				break
			}
		}
		dst := pool.Get(got, z)
		c, inPlace := SortChunk(sc, dst, stage.Sub(0, got))
		if inPlace {
			stage = dst // short only at the end of the stream, when nothing more is staged
		}
		return c, nil
	})
	f.done = func() {
		pool.Put(stage)
		sortalg.PutScratch(sc)
	}
	return f
}

// NewChunked builds a Former over a stream of sorted chunks. capacity is the
// number of resident records, z the record size in bytes. next returns the
// next Chunk — at most ChunkLen(capacity) records, all of them full-length
// chunks but the last, made by SortChunk from records in normalized
// (memcmp-ordered) key space — or one with no records at end of stream; it
// is not called again after that or after an error. The arena is taken from
// pool (which may be nil), and every admitted chunk's buffer goes back to it.
func NewChunked(capacity, z int, pool *record.Pool, next func() (Chunk, error)) *Former {
	page, pages, need := geometry(capacity)
	f := &Former{
		pool:    pool,
		src:     next,
		arena:   pool.Get(pages*page, z),
		page:    page,
		need:    need,
		free:    make([]int32, pages),
		next:    make([]int32, pages),
		prev:    make([]int32, pages),
		holders: make([]uint8, pages),
		live:    make([]miniRun, 0, 64),
		parked:  make([]miniRun, 0, 64),
		node:    make([]tournament.Node, 0, 64),
	}
	for i := range f.free {
		f.free[i] = int32(pages - 1 - i) // page 0 on top
	}
	return f
}

// Close returns the arena (and what New's adapter holds). The Former must not
// be used after.
func (f *Former) Close() {
	if f.arena.Data != nil {
		f.pool.Put(f.arena)
		f.arena = record.Slice{}
		if f.done != nil {
			f.done()
		}
	}
}

// NextRun starts the next run, choosing its direction from the arrival
// drift, and returns that direction. ok is false when the input is
// exhausted and every resident record has been emitted.
func (f *Former) NextRun() (desc, ok bool, err error) {
	if !f.started {
		f.started = true
		for len(f.free) >= f.need && !f.eof {
			if err := f.admit(nil); err != nil {
				return false, false, err
			}
		}
	}
	f.BreakRun() // a run abandoned unfinished rejoins the parked records
	if len(f.parked) == 0 {
		return false, false, nil
	}
	f.desc = f.downs > 4*f.ups
	f.flip = 0
	if f.desc {
		f.flip = ^uint64(0)
	}
	f.ups, f.downs, f.haveSeen = 0, 0, false
	f.live, f.parked = f.parked, f.live[:0]
	for i := range f.live {
		f.aim(&f.live[i])
	}
	f.play()
	return f.desc, true, nil
}

// aim sets m's page count for reading it in the run's direction.
func (f *Former) aim(m *miniRun) {
	if f.desc {
		m.left = min(m.hi%int32(f.page)+1, m.rem)
	} else {
		m.left = min(int32(f.page)-m.lo%int32(f.page), m.rem)
	}
}

// front returns the arena index of m's next record in the run's direction.
func (f *Former) front(m *miniRun) int {
	if f.desc {
		return int(m.hi)
	}
	return int(m.lo)
}

// play drops the exhausted mini-runs and plays the tournament over the rest.
func (f *Former) play() {
	f.live = slices.DeleteFunc(f.live, func(m miniRun) bool { return m.rem == 0 })
	f.node = append(f.node[:0], make([]tournament.Node, len(f.live))...)
	f.wins, f.bound = 0, 0
	if len(f.live) > 0 {
		tournament.Play(f.node, f.enter, f.tieBeats)
	}
}

// enter is mini-run i's tournament entry.
func (f *Former) enter(i int32) tournament.Node {
	return tournament.Node{Key: f.arena.Key(f.front(&f.live[i])) ^ f.flip, ID: i}
}

// tieBeats resolves an adjusted-prefix tie between mini-runs o and w: an
// exhausted one loses to everything (its maximal key can tie a live
// record's), live ones compare their fronts in the run's direction, and
// equal records go first from the older chunk.
func (f *Former) tieBeats(o, w int32) bool {
	mo, mw := &f.live[o], &f.live[w]
	if mo.rem == 0 {
		return false
	}
	if mw.rem == 0 {
		return true
	}
	c := bytes.Compare(f.arena.Record(f.front(mo)), f.arena.Record(f.front(mw)))
	if f.desc {
		c = -c
	}
	if c != 0 {
		return c < 0
	}
	return mo.seq < mw.seq
}

// Fill emits up to out.Len() records of the current run, in the run's
// direction, admitting the next staged chunk whenever a chunk's worth of
// pages is free. It returns 0 when the run is complete (call NextRun for
// the next one).
func (f *Former) Fill(out record.Slice) (int, error) {
	n, tie := 0, f.tieBeats
	for room := out.Len(); n < room && len(f.node) > 0; {
		w := f.node[0].ID
		m := &f.live[w]
		if m.rem == 0 {
			break // every mini-run of the run is exhausted: the run is over
		}
		last := out.Record(n) // the run's last record so far lives on in out
		copy(last, f.arena.Record(f.front(m)))
		n++
		key := record.MaxKey
		if f.advance(m) {
			key = f.arena.Key(f.front(m)) ^ f.flip
		}
		if key < f.bound { // still below every other mini-run's key: no stored loser changes
			f.node[0].Key = key
		} else {
			tournament.Replay(f.node, w, key, tie)
			f.count(w)
		}
		if len(f.free) >= f.need && !f.eof {
			if err := f.admit(last); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// skipAfter is how many replays in a row the same mini-run must win before
// the Former looks up its bound. On random input the winner changes at
// nearly every record and a bound would be paid for and not used; a mini-run
// that has won this long — it holds a key range alone, as every chunk of
// presorted input does — usually keeps winning for many records more.
const skipAfter = 4

// count records the outcome of the replay of winner w: the streak it extends
// or ends, and once the streak is skipAfter wins long, w's bound — which
// Fill's next keys from w must stay below to win without a replay.
func (f *Former) count(w int32) {
	wins := f.wins + 1
	if f.node[0].ID != w { // a coin flip on random input: a conditional move, not a branch
		wins = 0
	}
	f.wins, f.bound = wins, 0
	if wins >= skipAfter {
		f.bound = tournament.Bound(f.node, w)
	}
}

// advance steps m past its emitted front, releasing the page it leaves, and
// reports whether m has records left.
func (f *Former) advance(m *miniRun) bool {
	m.rem--
	if m.left--; m.left > 0 {
		if f.desc {
			m.hi--
		} else {
			m.lo++
		}
		return true
	}
	pg := int32(f.front(m) / f.page)
	f.release(pg)
	if m.rem == 0 {
		return false
	}
	if f.desc {
		pg = f.prev[pg]
		m.hi = (pg+1)*int32(f.page) - 1 // a chunk's pages are full but its last
	} else {
		pg = f.next[pg]
		m.lo = pg * int32(f.page)
	}
	m.left = min(int32(f.page), m.rem)
	return true
}

// release drops one mini-run's hold on page pg, freeing it with the last.
func (f *Former) release(pg int32) {
	if f.holders[pg]--; f.holders[pg] == 0 {
		f.free = append(f.free, pg)
	}
}

// admit takes the next sorted chunk, copies it into free pages — then puts
// its buffer back — and splits it at last, the run's last emitted record:
// what can still extend the run joins it as a mini-run, the rest is parked
// for the next run. With no last (the initial fill) the whole chunk is
// parked.
func (f *Former) admit(last []byte) error {
	c, err := f.src()
	if err != nil {
		return err
	}
	if len(c.Recs.Data) == 0 {
		f.eof = true
		return nil
	}
	got := c.Recs.Len()
	if f.haveSeen { // the step from the previous chunk, if the tally has seen it
		up, down := step(f.prevKey, c.First)
		f.ups, f.downs = f.ups+up, f.downs+down
	}
	f.ups, f.downs, f.prevKey, f.haveSeen = f.ups+c.Ups, f.downs+c.Downs, c.Last, true

	// Sorted positions [0, s) of the chunk precede last (descending: do not
	// follow it) and [s, got) do not: an ascending run takes the upper part,
	// a descending one the lower.
	s := 0
	if last != nil {
		s = f.split(c.Recs, last)
	}
	np := (got + f.page - 1) / f.page
	pages := f.free[len(f.free)-np:]
	f.free = f.free[:len(f.free)-np]
	for i, pg := range pages {
		lo := int(pg) * f.page
		f.arena.Sub(lo, lo+min(f.page, got-i*f.page)).Copy(c.Recs.Sub(i*f.page, got))
		f.holders[pg] = 1
		if i > 0 {
			f.next[pages[i-1]], f.prev[pg] = pg, pages[i-1]
		}
	}
	f.pool.Put(c.Recs)
	f.chunks++
	if last == nil {
		f.parked = append(f.parked, f.part(pages, 0, got))
		return nil
	}
	if s%f.page != 0 && s < got {
		f.holders[pages[s/f.page]] = 2 // the split page holds both parts
	}
	run, park := [2]int{s, got}, [2]int{0, s}
	if f.desc {
		run, park = park, run
	}
	if park[0] < park[1] {
		f.parked = append(f.parked, f.part(pages, park[0], park[1]))
	}
	if run[0] < run[1] {
		m := f.part(pages, run[0], run[1])
		f.aim(&m)
		f.live = append(f.live, m)
		f.play()
	}
	return nil
}

// split returns the number of records of the sorted chunk that precede last
// in the run's direction: those below it, and for a descending run those
// equal to it too.
func (f *Former) split(chunk record.Slice, last []byte) int {
	return sort.Search(chunk.Len(), func(i int) bool {
		c := bytes.Compare(chunk.Record(i), last)
		return c > 0 || c == 0 && !f.desc
	})
}

// part is the mini-run of sorted positions [a, b) of the chunk on pages.
func (f *Former) part(pages []int32, a, b int) miniRun {
	at := func(i int) int32 { return pages[i/f.page]*int32(f.page) + int32(i%f.page) }
	return miniRun{lo: at(a), hi: at(b - 1), rem: int32(b - a), seq: f.chunks}
}

// BreakRun force-ends the current run: every resident record is deferred
// to the next run, so the next Fill returns 0. Callers use it to bound run
// length when each spilled run must also be retained in memory for redo.
func (f *Former) BreakRun() {
	for _, m := range f.live {
		if m.rem > 0 {
			f.parked = append(f.parked, m)
		}
	}
	f.live, f.node = f.live[:0], f.node[:0]
}
