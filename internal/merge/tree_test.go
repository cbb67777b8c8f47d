package merge

// The tournament over the readers, held to the tree it replaced: the old
// streaming loser tree survives here as an unexported reference, the way
// runform keeps its binary-heap former, and FuzzMergeTree drives both over
// the same runs.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"colsort/internal/faultinject"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// refTree is the streaming loser tree Merge ran on before it moved onto
// internal/tournament, kept verbatim as the reference the tourney is held
// to: node[0] holds the current overall winner and every internal node the
// loser of its match, over bare reader indices; the leaf count is padded to
// a power of two with permanently exhausted dummies. Ties break on run index
// for determinism.
type refTree struct {
	readers []Reader
	node    []int
	k       int
}

func (t *refTree) init(readers []Reader) {
	t.readers = readers
	t.k = 1
	for t.k < len(readers) {
		t.k *= 2
	}
	t.node = make([]int, t.k)
	t.node[0] = t.play(1)
}

func (t *refTree) play(i int) int {
	if i >= t.k {
		r := i - t.k
		if r >= len(t.readers) {
			return -1
		}
		return r
	}
	wl, wr := t.play(2*i), t.play(2*i+1)
	if t.beats(wl, wr) {
		t.node[i] = wr
		return wl
	}
	t.node[i] = wl
	return wr
}

func (t *refTree) cur(r int) []byte {
	if r < 0 {
		return nil
	}
	return t.readers[r].Cur()
}

func (t *refTree) beats(a, b int) bool {
	if a < 0 || t.readers[a].done() {
		return false
	}
	if b < 0 || t.readers[b].done() {
		return true
	}
	// Record order is plain lexicographic byte order: the engine's key is
	// the first 8 bytes big-endian with payload tie-break, which coincides
	// with bytes.Compare over the whole record. The readers cache that
	// 8-byte prefix at each advance, so the common case is one uint64
	// compare without touching the chunk bytes; ties fall back to the full
	// record.
	ra, rb := &t.readers[a], &t.readers[b]
	if ra.Key() != rb.Key() {
		return ra.Key() < rb.Key()
	}
	c := bytes.Compare(ra.Cur(), rb.Cur())
	if c != 0 {
		return c < 0
	}
	return a < b
}

// winner returns the current smallest record, or nil when all runs are
// exhausted.
func (t *refTree) winner() []byte { return t.cur(t.node[0]) }

// pop advances the winning run and replays its path to the root.
func (t *refTree) pop() error {
	w := t.node[0]
	if err := t.readers[w].Advance(); err != nil {
		return fmt.Errorf("merge: run %d: %w", w, err)
	}
	winner := w
	for i := (w + t.k) / 2; i > 0; i /= 2 {
		if t.beats(t.node[i], winner) {
			t.node[i], winner = winner, t.node[i]
		}
	}
	t.node[0] = winner
	return nil
}

// primedReaders opens one primed reader per run.
func primedReaders(t *testing.T, runs []*Run) []Reader {
	t.Helper()
	readers := make([]Reader, len(runs))
	for i, r := range runs {
		readers[i] = *NewReader(r, nil)
		if err := readers[i].Prime(); err != nil {
			t.Fatal(err)
		}
	}
	return readers
}

// FuzzMergeTree merges k ∈ 1..70 runs — empty ones among them, ascending and
// descending — of records drawn from so small an alphabet that key prefixes
// tie across runs, whole records repeat across runs (only the run index can
// order those) and live records carry the all-ones prefix an exhausted run
// plays. The tourney and the reference tree are popped in lockstep: same
// record from the same run at every step; then Merge's emitted stream and
// Stats must be what the reference produced.
func FuzzMergeTree(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{5})
	f.Add(uint8(2), uint64(2), []byte{0, 7, 0x83})
	f.Add(uint8(15), uint64(3), []byte{4, 0x84, 0, 9, 0x81})
	f.Add(uint8(63), uint64(4), []byte{1, 2, 0x80, 3})
	f.Add(uint8(69), uint64(5), []byte{})
	f.Fuzz(func(t *testing.T, kSel uint8, seed uint64, shape []byte) {
		const z, chunk = 16, 3
		k := 1 + int(kSel)%70
		rng := rand.New(rand.NewSource(int64(seed)))
		prefixes := []uint64{0, 1, 1 << 63, record.MaxKey}
		m := pdm.Machine{P: 1, D: 1}
		runs := make([]*Run, k)
		var total int64
		for i := range runs {
			var sel byte // low bits: length 0..11; top bit: descending
			if len(shape) > 0 {
				sel = shape[i%len(shape)]
			}
			recs := record.Make(int(sel&0x7f)%12, z)
			for j := 0; j < recs.Len(); j++ {
				record.PutKey(recs.Record(j), prefixes[rng.Intn(len(prefixes))])
				recs.Record(j)[z-1] = byte(rng.Intn(3))
			}
			if sel&0x80 != 0 {
				runs[i] = buildDescRun(t, m, recs, chunk)
			} else {
				runs[i] = buildRun(t, m, recs, chunk)
			}
			defer runs[i].Close()
			total += runs[i].Records
		}

		var ref refTree
		ref.init(primedReaders(t, runs))
		got := newTourney(primedReaders(t, runs))
		var want bytes.Buffer
		for n := 0; ; n++ {
			a, b := ref.winner(), got.winner()
			if !bytes.Equal(a, b) {
				t.Fatalf("pop %d: tourney yields %x, reference tree %x", n, b, a)
			}
			if a == nil {
				break
			}
			if ra, rb := ref.node[0], int(got.node[0].ID); ra != rb {
				t.Fatalf("pop %d: record %x taken from run %d, reference tree takes it from run %d", n, a, rb, ra)
			}
			want.Write(a)
			if err := errors.Join(ref.pop(), got.pop()); err != nil {
				t.Fatal(err)
			}
		}
		wantStats := Stats{BytesWritten: total * z}
		for i := range ref.readers {
			wantStats.BytesRead += ref.readers[i].BytesRead()
		}

		out, _, st, err := collect(t, context.Background(), runs, z, Options{ChunkRecs: chunk})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Data, want.Bytes()) {
			t.Fatal("Merge's stream differs from the reference tree's")
		}
		if st != wantStats {
			t.Fatalf("Merge stats %+v, reference %+v", st, wantStats)
		}
	})
}

// TestMergeTreeEdges pins the corners of the kernel's contract with the
// readers: a tournament of one (Replay's loop must not run), a reader whose
// Advance fails on a chunk boundary (the error names the run and nothing
// past the boundary is emitted), and a frame corrupted in flight mid-merge
// (detected, healed by the reread, invisible in the output).
func TestMergeTreeEdges(t *testing.T) {
	const n, z, chunk = 1024, 16, 64
	for _, tc := range []struct {
		name    string
		k       int
		wrap    func(pdm.Disk) pdm.Disk // around run 1's disk
		wantErr error
		heals   int64
	}{
		{name: "k=1", k: 1},
		{name: "advance fails on a chunk boundary", k: 4, wantErr: faultinject.ErrInjected,
			wrap: func(d pdm.Disk) pdm.Disk { return &faultinject.FaultDisk{Inner: d, Budget: chunk * z} }},
		{name: "corrupt frame healed mid-merge", k: 4, heals: 1,
			wrap: func(d pdm.Disk) pdm.Disk { return &corruptReadDisk{Disk: d, skip: 2} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			runs, ref := genRuns(t, pdm.Machine{P: 1, D: 1}, n, tc.k, z, chunk, 9)
			for _, r := range runs {
				defer r.Close()
			}
			var boundary []byte // last record of run 1's first chunk
			if tc.wrap != nil {
				boundary = append(boundary, primedReaders(t, runs[1:2])[0].chunk[(chunk-1)*z:chunk*z]...)
				runs[1].Disk = tc.wrap(runs[1].Disk)
			}
			var faults pdm.FaultStats
			out, _, _, err := collect(t, context.Background(), runs, z, Options{ChunkRecs: chunk, Faults: &faults})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || !strings.Contains(fmt.Sprint(err), "merge: run 1:") {
					t.Fatalf("err = %v, want %v naming run 1", err, tc.wantErr)
				}
				if !bytes.HasPrefix(ref.Data, out.Data) {
					t.Fatal("emitted records are not a prefix of the sorted output")
				}
				if last := out.Len() - 1; last >= 0 && bytes.Compare(out.Record(last), boundary) > 0 {
					t.Fatalf("record %x emitted after the failed advance past %x", out.Record(last), boundary)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Data, ref.Data) {
				t.Fatal("merged output differs from the reference sort")
			}
			if c, r := faults.CorruptChunks.Load(), faults.Rereads.Load(); c != tc.heals || r != tc.heals {
				t.Errorf("faults: %d detected, %d healed; want %d of each", c, r, tc.heals)
			}
		})
	}
}
