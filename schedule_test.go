package colsort

// The merge schedule (schedule: Huffman's optimal merge pattern) against
// its definition — the fewest merged records of any legal merge order — and
// across a crash: a resumed job continues the schedule the crashed one was
// following, merge for merge.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"colsort/internal/record"
)

// TestMergeScheduleOptimal: over runs of every length pattern tried, the
// schedule's merges emit the fewest records any legal merge order does —
// every merge takes 2..f live runs, and the final one all that remain, at
// most f — found by exhaustive search, for k ≤ 7 runs and f ∈ {2, 3, 4}.
// Lengths are drawn from a small range, so ties are common.
func TestMergeScheduleOptimal(t *testing.T) {
	memo := map[string]int64{}
	// fewest is the least an order can merge before the final merge.
	var fewest func(lens []int64, f int) int64
	fewest = func(lens []int64, f int) int64 {
		if len(lens) <= f {
			return 0
		}
		sorted := slices.Sorted(slices.Values(lens))
		key := fmt.Sprint(f, sorted)
		if v, ok := memo[key]; ok {
			return v
		}
		best := int64(math.MaxInt64)
		for mask := 1; mask < 1<<len(lens); mask++ {
			if c := bits.OnesCount(uint(mask)); c < 2 || c > f {
				continue
			}
			var sum int64
			var rest []int64
			for i, l := range lens {
				if mask>>i&1 == 1 {
					sum += l
				} else {
					rest = append(rest, l)
				}
			}
			best = min(best, sum+fewest(append(rest, sum), f))
		}
		memo[key] = best
		return best
	}
	rng := rand.New(rand.NewPCG(42, 7))
	for f := 2; f <= 4; f++ {
		for k := 1; k <= 7; k++ {
			for trial := 0; trial < 30; trial++ {
				lens := make([]int64, k)
				for i := range lens {
					lens[i] = 1 + rng.Int64N(12)
				}
				want := fewest(lens, f)
				if _, got, _ := schedule(slices.Clone(lens), f); got != want {
					t.Errorf("f=%d runs %v: the schedule merges %d records before the final merge, the best order %d", f, lens, got, want)
				}
			}
		}
	}
}

// TestMergeScheduleShape pins the schedule's two stated rules — the first
// merge takes ((k−2) mod (f−1)) + 2 runs, ties go to the earlier position —
// and the height of its trees: over k equal runs mergeLevels(k, f), the
// worst case PlanSort prints, and over skewed runs more.
func TestMergeScheduleShape(t *testing.T) {
	// k = 6 at f = 3: two runs first, the two smallest — of the equal 3s
	// the earlier — and the output joins the end: [5 3 9 3 4], then f each.
	merges, _, _ := schedule([]int64{5, 3, 3, 9, 3, 1}, 3)
	if want := [][]int{{1, 5}, {1, 3, 4}}; !slices.EqualFunc(merges, want, slices.Equal) {
		t.Errorf("k=6 f=3: merges %v, want %v", merges, want)
	}
	if merges, _, _ := schedule([]int64{4, 4, 4, 4, 4}, 2); !slices.Equal(merges[0], []int{0, 1}) {
		t.Errorf("equal runs: first merge takes positions %v, want [0 1]", merges[0])
	}
	if merges, records, height := schedule([]int64{7, 2, 9}, 4); len(merges) != 0 || records != 0 || height != 1 {
		t.Errorf("k ≤ f: merges %v of %d records, height %d; want only the final merge", merges, records, height)
	}
	if _, _, height := schedule([]int64{1, 2, 3, 5, 8, 13}, 2); height != 5 {
		t.Errorf("6 Fibonacci runs at fan-in 2: a tree %d high, want 5 (the schedule reads least, not shallowest)", height)
	}
	for f := 2; f <= 6; f++ {
		for k := 1; k <= 200; k++ {
			lens := make([]int64, k)
			for i := range lens {
				lens[i] = 100
			}
			if _, _, got := schedule(lens, f); got != mergeLevels(k, f) {
				t.Fatalf("k=%d f=%d equal runs: a tree %d high, mergeLevels says %d", k, f, got, mergeLevels(k, f))
			}
		}
	}
}

// TestCheckpointResumeContinuesSchedule: a checkpointed fan-in-2 job of 5
// runs, cancelled right after its first "merged" entry, is continued by the
// same Sort: byte-identical output, every live run adopted, and the merges
// the continuation logs are the ones the uninterrupted job logged — same
// inputs, same ids, same records — so the schedule needs no manifest field
// of its own.
func TestCheckpointResumeContinuesSchedule(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	raw := genRaw(int(7*s.MaxRecords(Threaded))+321, 32, record.Uniform{Seed: 13})

	// sortLogged runs the Sort under a checkpoint and returns its output
	// and the "merged" entries its manifest held at its last merge event.
	// cancelAfterFirst crashes the job at its first merge event after the
	// first "merged" entry became durable.
	sortLogged := func(ckptDir string, cancelAfterFirst bool) ([]byte, *Result, []manifestEntry, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var once sync.Once
		var wal []byte
		var out bytes.Buffer
		res, err := s.Sort(ctx, FromBytes(raw), ToWriter(&out), WithMergeFanIn(2), WithCheckpoint(ckptDir),
			WithProgress(func(ev Progress) {
				if ev.MergedRecords == 0 {
					return
				}
				wal, _ = os.ReadFile(filepath.Join(ckptDir, manifestName))
				if cancelAfterFirst && bytes.Contains(wal, []byte(`{"type":"merged"`)) {
					once.Do(cancel)
				}
			}))
		if err != nil {
			wal, _ = os.ReadFile(filepath.Join(ckptDir, manifestName))
		}
		var merged []manifestEntry
		for _, line := range bytes.Split(bytes.TrimSpace(wal), []byte("\n")) {
			var e manifestEntry
			if json.Unmarshal(line, &e) == nil && e.Type == "merged" {
				merged = append(merged, e)
			}
		}
		return out.Bytes(), res, merged, err
	}

	want, res, wantMerged, err := sortLogged(filepath.Join(dir, "whole"), false)
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if res.Merge.Runs != 5 || len(wantMerged) != 3 {
		t.Fatalf("uninterrupted job: %d runs, %d merged entries; the test needs 5 runs and 3 intermediate merges", res.Merge.Runs, len(wantMerged))
	}

	ckptDir := filepath.Join(dir, "crashed")
	if _, _, merged, err := sortLogged(ckptDir, true); err == nil || len(merged) != 1 {
		t.Fatalf("crashed job: err %v with %d merged entries, want a cancel after the first", err, len(merged))
	}
	got, rres, gotMerged, err := sortLogged(ckptDir, false)
	if err != nil {
		t.Fatalf("Sort over the checkpoint: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(got, want) {
		t.Error("the continued job's output differs from the uninterrupted job's")
	}
	if live := res.Merge.Runs - 1; rres.Merge.ResumedRuns != live {
		t.Errorf("ResumedRuns = %d, want the %d runs live after the first merge", rres.Merge.ResumedRuns, live)
	}
	if len(gotMerged) != len(wantMerged) {
		t.Fatalf("the manifest logged %d merges across the crash, the uninterrupted job %d", len(gotMerged), len(wantMerged))
	}
	for i, w := range wantMerged {
		g := gotMerged[i]
		if g.Run.ID != w.Run.ID || g.Run.Records != w.Run.Records || !slices.Equal(g.Inputs, w.Inputs) || !slices.Equal(g.Run.CRCs, w.Run.CRCs) {
			t.Errorf("merge %d: run %d of %d records from %v, the uninterrupted job's run %d of %d from %v",
				i+1, g.Run.ID, g.Run.Records, g.Inputs, w.Run.ID, w.Run.Records, w.Inputs)
		}
	}
}
