package core

import (
	"reflect"
	"slices"
	"testing"

	"colsort/internal/bitperm"
	"colsort/internal/matrix"
	"colsort/internal/record"
)

// scatterShapes lists plans whose distribution passes cover every spec at
// g ∈ {1, 2, P}, with Subblock on both sides of √s = P (at √s < P the keep
// plans differ per source processor).
func scatterShapes(t *testing.T) []Plan {
	t.Helper()
	plan := func(pl Plan, err error) Plan {
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	return []Plan{
		plan(NewPlan(Threaded, 128*8, 4, 4, 128, 16)),
		plan(NewPlan(Threaded4, 128*8, 4, 4, 128, 16)),
		plan(NewPlan(Threaded, 32*4, 1, 1, 32, 16)),
		plan(NewPlan(Subblock, 256*16, 8, 8, 256, 16)), // √s < P
		plan(NewPlan(Subblock, 256*16, 2, 2, 256, 16)), // √s ≥ P
		plan(NewHybridPlan(2*64*4, 4, 4, 64, 16, 2)),
		plan(NewPlan(MColumn, 4*64*8, 4, 4, 64, 16)),
		plan(NewPlan(Combined, 4*64*16, 4, 4, 64, 16)),
	}
}

// expand unrolls run-length extents into the destination sequence.
func expand(exts []extent) []int {
	var seq []int
	for _, e := range exts {
		for k := 0; k < int(e.Count); k++ {
			seq = append(seq, int(e.Dst))
		}
	}
	return seq
}

// canon is what a table set says, without what a recycled set brings along:
// its slices cut to their lengths, empty ones nil.
func canon(tb *scatterTables) scatterTables {
	c := scatterTables{direct: tb.direct, colTotal: append([]int32(nil), tb.colTotal...),
		send: sendPlan{Counts: append([]int32(nil), tb.send.Counts...), Exts: append([]extent(nil), tb.send.Exts...)}}
	for _, kp := range tb.keep {
		c.keep = append(c.keep, colPlan{total: kp.total,
			counts: append([]int32(nil), kp.counts...), exts: append([]extent(nil), kp.exts...)})
	}
	return c
}

// TestPatternPlansMatchNaiveReplay verifies the compiled tables of the group
// scatter against the definition they compile — asking dest rank by rank —
// for every distribution spec, processor and round of every shape, and the
// period each spec declares against the rounds it lets share a table set.
// Every set is also built into one a different shape used last, as a set
// from the free list is, and must come out as a fresh build does.
func TestPatternPlansMatchNaiveReplay(t *testing.T) {
	type builder struct {
		shape int
		gs    groupScatter
	}
	var others []builder
	for k, pl := range scatterShapes(t) {
		for _, spec := range groupSpecs(pl) {
			if spec.dest != nil {
				gs, err := newGroupScatter(pl, spec, pl.P-1)
				if err != nil {
					t.Fatal(err)
				}
				others = append(others, builder{k, gs})
			}
		}
	}
	var recycled scatterTables
	next := 0
	for k, pl := range scatterShapes(t) {
		P, g := pl.P, pl.Group
		ng, rb := P/g, pl.R/g
		for _, spec := range groupSpecs(pl) {
			if spec.dest == nil {
				continue
			}
			share := spec.chunk / g
			for q := 0; q < P; q++ {
				gs, err := newGroupScatter(pl, spec, q)
				if err != nil {
					t.Fatal(err)
				}
				var tb scatterTables
				for round := 0; round < pl.Rounds(); round++ {
					if err := gs.build(&tb, round); err != nil {
						t.Fatalf("%s %s q=%d round %d: %v", pl, spec.name, q, round, err)
					}
					// The pass reuses the set of round mod classes: spec.period
					// must not promise more than dest keeps.
					var first scatterTables
					if err := gs.build(&first, round%gs.classes()); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(canon(&first), canon(&tb)) {
						t.Fatalf("%s %s q=%d: tables of round %d differ from round %d's (period %d)",
							pl, spec.name, q, round, round%gs.classes(), spec.period)
					}
					for ; others[next%len(others)].shape == k; next++ {
					}
					o := others[next%len(others)]
					next++
					if err := o.gs.build(&recycled, round%o.gs.classes()); err != nil {
						t.Fatal(err)
					}
					if err := gs.build(&recycled, round); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(canon(&recycled), canon(&tb)) {
						t.Fatalf("%s %s q=%d round %d: tables built into a set of %s %s differ from a fresh build",
							pl, spec.name, q, round, scatterShapes(t)[o.shape], o.gs.spec.name)
					}
					var sent []int
					sentTo := make([]int32, P)
					kept := make([][]int, P)
					colTotal := make([]int32, pl.S)
					allSelf := true
					for src := 0; src < P; src++ {
						j := round*ng + src/g
						for i := 0; i < rb; i++ {
							tj, occ := spec.dest(int64(src%g*rb+i), j)
							d := tj%ng*g + int(occ)/share
							if src == q {
								sent = append(sent, d)
								sentTo[d]++
							}
							if d == q {
								kept[src] = append(kept[src], tj)
								colTotal[tj]++
							}
							allSelf = allSelf && d == src
						}
					}
					where := func() string { return pl.String() + " " + spec.name }
					if want := allSelf && !spec.redistribute; tb.direct != want {
						t.Fatalf("%s q=%d round %d: direct = %v, want %v", where(), q, round, tb.direct, want)
					}
					if !tb.direct {
						if got := expand(tb.send.Exts); !slices.Equal(got, sent) || !slices.Equal(tb.send.Counts, sentTo) {
							t.Fatalf("%s q=%d round %d: send plan routes %v (counts %v), want %v (%v)",
								where(), q, round, got, tb.send.Counts, sent, sentTo)
						}
					}
					for src := 0; src < P; src++ {
						kp := &tb.keep[src%len(tb.keep)]
						if got := expand(kp.exts); !slices.Equal(got, kept[src]) || kp.total != len(kept[src]) {
							t.Fatalf("%s q=%d round %d: keep plan of source %d replays %v (total %d), want %v",
								where(), q, round, src, got, kp.total, kept[src])
						}
					}
					if !slices.Equal(tb.colTotal, colTotal) {
						t.Fatalf("%s q=%d round %d: column totals %v, want %v", where(), q, round, tb.colTotal, colTotal)
					}
				}
			}
		}
	}
}

// TestSpecMapsMatchOracle ties the rank maps of the pass specs to the
// reference permutations they restate on powers of two: the target column is
// the oracle's, and a rank's occurrence is its target row's offset within the
// rows the source column fills — so arrival order is target-row order.
func TestSpecMapsMatchOracle(t *testing.T) {
	const r, s = 256, 16
	pl, err := NewPlan(Subblock, r*s, 4, 4, r, 16)
	if err != nil {
		t.Fatal(err)
	}
	sb := bitperm.MustSubblock(r, s)
	q, c := sb.SqrtS(), r/s
	oracle := []func(i, j int) (tj, occ int){
		func(i, j int) (int, int) { ti, tj := matrix.Step2Map(r, s, i, j); return tj, ti - j*c },
		func(i, j int) (int, int) { ti, tj := sb.Map(i, j); return tj, ti - j/q*(r/q) },
		func(i, j int) (int, int) { ti, tj := matrix.Step4Map(r, s, i, j); return tj, (ti - j) / s },
	}
	for k, want := range oracle {
		spec := groupSpecs(pl)[k]
		for j := 0; j < s; j++ {
			for i := 0; i < r; i++ {
				tj, occ := spec.dest(int64(i), j)
				if wtj, wocc := want(i, j); tj != wtj || int(occ) != wocc {
					t.Fatalf("%s: rank %d of column %d goes to column %d occurrence %d, oracle says %d, %d",
						spec.name, i, j, tj, occ, wtj, wocc)
				}
			}
		}
	}
}

// subblockScatter is the column-dependent pass at g = 1 with √s < P: every
// round rebuilds P keep plans that differ per source.
func subblockScatter(t *testing.T, q int) (Plan, groupScatter) {
	t.Helper()
	pl, err := NewPlan(Subblock, 256*16, 8, 8, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := newGroupScatter(pl, groupSpecs(pl)[1], q)
	if err != nil {
		t.Fatal(err)
	}
	return pl, gs
}

// TestScatterRoundWarmAllocs pins the steady-state property of the scatter
// hot path: with a warm table set and a warm pool, one round — the rebuild of
// the P column-dependent keep plans, the exchange-style pack and the replay
// into per-column chunks — performs no allocator work at all.
func TestScatterRoundWarmAllocs(t *testing.T) {
	const q = 1
	pl, gs := subblockScatter(t, q)
	P, s, z := pl.P, pl.S, pl.Z
	pool := record.NewPool()
	col := record.Make(pl.R, z)
	record.Fill(col, record.Uniform{Seed: 5}, 0)
	var tb scatterTables
	fill := make([]int32, P)
	fillCol := make([]int32, s)

	round := 0
	oneRound := func() {
		if err := gs.build(&tb, round); err != nil {
			t.Fatal(err)
		}
		round = (round + 1) % pl.Rounds()
		// Exchange: pack per destination processor.
		outMsgs := record.GetHeaders(P)
		for d := 0; d < P; d++ {
			outMsgs[d] = pool.Get(int(tb.send.Counts[d]), z)
			fill[d] = 0
		}
		replayExtents(outMsgs, fill, col, tb.send.Exts, z)
		// Replay: my own message into per-column chunks.
		kp := &tb.keep[q]
		perCol := record.GetHeaders(s)
		for tj := range perCol {
			if kp.counts[tj] > 0 {
				perCol[tj] = pool.Get(int(kp.counts[tj]), z)
			}
			fillCol[tj] = 0
		}
		replayExtents(perCol, fillCol, outMsgs[q], kp.exts, z)
		for tj := range perCol {
			pool.Put(perCol[tj])
		}
		record.PutHeaders(perCol)
		for d := 0; d < P; d++ {
			pool.Put(outMsgs[d])
		}
		record.PutHeaders(outMsgs)
	}

	for i := 0; i < pl.Rounds(); i++ {
		oneRound() // warm the tables, the pool and the header free list
	}
	if allocs := testing.AllocsPerRun(10, oneRound); allocs != 0 {
		t.Errorf("%v allocs per warm scatter round, want 0", allocs)
	}
}

// TestPlanBuildWarmAllocs pins that rebuilding the tables per round (the
// column-dependent passes) reuses their backing arrays.
func TestPlanBuildWarmAllocs(t *testing.T) {
	pl, gs := subblockScatter(t, 2)
	var tb scatterTables
	for round := 0; round < pl.Rounds(); round++ {
		if err := gs.build(&tb, round); err != nil {
			t.Fatal(err)
		}
	}
	round := 0
	allocs := testing.AllocsPerRun(10, func() {
		if err := gs.build(&tb, round); err != nil {
			t.Fatal(err)
		}
		round = (round + 1) % pl.Rounds()
	})
	if allocs != 0 {
		t.Errorf("%v allocs per warm table rebuild, want 0", allocs)
	}
}
