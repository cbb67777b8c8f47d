// Package runform forms sorted runs from a record stream by replacement
// selection on a tournament tree (Knuth TAOCP vol. 3 §5.4.1, Algorithm R;
// Bender, McCauley, McGregor, Singh, Vu — "Run Generation Revisited").
//
// A Former holds a working set of `capacity` normalized records. It
// repeatedly emits the record that extends the current run, refills the
// freed slot from the input, and defers records that would break the run
// to the next one. On random input this yields runs of expected length
// ~2×capacity (vs exactly capacity for fixed batches); on already-sorted
// input it yields a single run.
//
// Runs may be ascending or descending: before each run starts, the
// key-step tally of the arrivals observed since the previous run began
// picks the direction, and descending needs a decisive supermajority of
// downward steps — so monotonically decreasing inputs (the mirror of the
// nearly-sorted production case) collapse to one run, while random input
// always forms ascending runs. The supermajority matters: on random input
// the direction signal is a coin flip, and alternating run directions cuts
// the expected run length from 2×capacity to 1.5×capacity (Knuth §5.4.1).
// Descending runs are spilled as written and consumed through a reversed
// run reader downstream; the Former itself only guarantees each run is
// monotone in its declared direction.
//
// All comparisons happen in normalized key space: records are memcmp-
// ordered after KeySpec encoding, and the 8-byte big-endian key prefix held
// inline in the tournament resolves almost every match without touching the
// record bytes. The tournament is internal/tournament's loser tree, the
// kernel sortalg's in-memory merge runs on: one contestant per resident
// slot, and emitting a record and admitting its replacement is ONE
// leaf-to-root replay whose node addresses are known up front — where a
// binary heap's sift-down chains a dependent load and a mispredicted branch
// per level.
package runform

import (
	"bytes"
	"encoding/binary"

	"colsort/internal/record"
	"colsort/internal/tournament"
)

// Former produces maximal sorted runs from a record stream via replacement
// selection. It is single-goroutine; the caller drives it with NextRun /
// Fill and must Close it to return the pooled arena.
type Former struct {
	pool *record.Pool
	read func(rec []byte) (bool, error)

	arena record.Slice // the capacity resident records, indexed by slot

	// The tournament over the slots (internal/tournament): a slot in the
	// current run plays its key prefix XOR flip, so the smallest adjusted
	// key is the run's next record in either direction; a parked or dead
	// slot plays record.MaxKey and can never beat a live one. Which of the
	// three a slot is rides in the tree's spare per-contestant word,
	// node[slot].Aux: slotDead, slotParked or slotLive.
	node   []tournament.Node
	parked int // slots deferred to the next run (their arrival would break this one)

	desc bool   // current run emits in descending order
	flip uint64 // 0 ascending, ^0 descending

	// Direction heuristic state: up/down key steps between consecutive
	// arrivals since the previous run started (the initial fill, for run 1).
	// The next run goes descending only on a decisive supermajority of
	// downward steps; anything noisier defaults to ascending.
	ups, downs int64
	prevKey    uint64
	haveSeen   bool

	eof     bool
	started bool
}

const (
	slotDead   uint32 = iota // holds no record (short input, or emitted after EOF)
	slotParked               // holds a record of the NEXT run
	slotLive                 // holds a record of the current run
)

// New builds a Former over a record stream. capacity is the number of
// resident records (the tournament's width), z the record size in bytes.
// read fills rec with the next input record, returning false at end of
// stream; records must already be in normalized (memcmp-ordered) key space.
// The arena is taken from pool (which may be nil).
func New(capacity, z int, pool *record.Pool, read func(rec []byte) (bool, error)) *Former {
	if capacity < 1 {
		capacity = 1
	}
	return &Former{
		pool:  pool,
		read:  read,
		arena: pool.Get(capacity, z),
		node:  make([]tournament.Node, capacity),
	}
}

// Close returns the arena to the pool. The Former must not be used after.
func (f *Former) Close() {
	if f.arena.Data != nil {
		f.pool.Put(f.arena)
		f.arena = record.Slice{}
	}
}

// readInto refills slot from the input, feeding the direction heuristic,
// and returns the arrival's key prefix. ok is false (and eof latched) at
// end of stream.
func (f *Former) readInto(slot int32) (k uint64, ok bool, err error) {
	rec := f.arena.Record(int(slot))
	ok, err = f.read(rec)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		f.eof = true
		return 0, false, nil
	}
	k = binary.BigEndian.Uint64(rec)
	if f.haveSeen {
		if k > f.prevKey {
			f.ups++
		} else if k < f.prevKey {
			f.downs++
		}
	}
	f.prevKey = k
	f.haveSeen = true
	return k, true, nil
}

// NextRun starts the next run, choosing its direction from the arrival
// drift, and returns that direction. ok is false when the input is
// exhausted and every resident record has been emitted.
func (f *Former) NextRun() (desc, ok bool, err error) {
	if !f.started {
		f.started = true
		for i := range f.node {
			_, ok, err := f.readInto(int32(i))
			if err != nil {
				return false, false, err
			}
			if !ok {
				break
			}
			f.node[i].Aux = slotParked
			f.parked++
		}
	}
	if f.parked == 0 {
		return false, false, nil
	}
	f.desc = f.downs > 4*f.ups
	f.flip = 0
	if f.desc {
		f.flip = ^uint64(0)
	}
	f.ups, f.downs, f.haveSeen = 0, 0, false
	f.parked = 0
	tournament.Play(f.node, f.enter, f.tieBeats)
	return f.desc, true, nil
}

// enter admits slot to the run now starting — every parked record joins it
// — and returns the slot's tournament entry.
func (f *Former) enter(slot int32) tournament.Node {
	if f.node[slot].Aux == slotDead {
		return tournament.Node{Key: record.MaxKey, ID: slot}
	}
	f.node[slot].Aux = slotLive
	return tournament.Node{Key: f.arena.Key(int(slot)) ^ f.flip, ID: slot}
}

// tieBeats resolves an adjusted-prefix tie between slots o and w: a slot
// outside the current run loses to everything (its maximal key can tie a
// live record's, so liveness is re-checked here) and live ties compare the
// full records in the run's direction.
func (f *Former) tieBeats(o, w int32) bool {
	if f.node[o].Aux != slotLive {
		return false
	}
	if f.node[w].Aux != slotLive {
		return true
	}
	c := bytes.Compare(f.arena.Record(int(o)), f.arena.Record(int(w)))
	if f.desc {
		return c > 0
	}
	return c < 0
}

// Fill emits up to out.Len() records of the current run, in the run's
// direction, replacing each emitted record from the input. It returns 0
// when the run is complete (call NextRun for the next one).
func (f *Former) Fill(out record.Slice) (int, error) {
	n, tie := 0, f.tieBeats
	for room := out.Len(); n < room; {
		w := f.node[0]
		slot := w.ID
		if f.node[slot].Aux != slotLive {
			break // the winner is not of this run: the run is over
		}
		rec := f.arena.Record(int(slot))
		last := out.Record(n) // the run's last record so far lives on in out
		copy(last, rec)
		n++
		// The arrival replacing the emitted record in its slot either
		// extends the run or is parked for the next; past EOF the slot dies.
		key, st := record.MaxKey, slotDead
		if !f.eof {
			k, ok, err := f.readInto(slot)
			if err != nil {
				return n, err
			}
			switch k ^= f.flip; {
			case !ok: // end of input
			case f.extends(rec, k, last, w.Key):
				key, st = k, slotLive
			default:
				st = slotParked
				f.parked++
			}
		}
		f.node[slot].Aux = st
		tournament.Replay(f.node, slot, key, tie)
	}
	return n, nil
}

// BreakRun force-ends the current run: every resident record is deferred
// to the next run, so the next Fill returns 0. Callers use it to bound run
// length when each spilled run must also be retained in memory for redo.
func (f *Former) BreakRun() {
	for i := range f.node {
		if f.node[i].Aux == slotLive {
			f.node[i].Aux = slotParked
			f.parked++
		}
	}
}

// extends reports whether the arrival rec (adjusted key prefix k) can join
// the current run after the last emitted record without violating the run's
// direction.
func (f *Former) extends(rec []byte, k uint64, last []byte, lastKey uint64) bool {
	if k != lastKey {
		return k > lastKey
	}
	c := bytes.Compare(rec, last)
	if f.desc {
		return c <= 0
	}
	return c >= 0
}
