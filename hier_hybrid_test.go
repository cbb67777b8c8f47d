package colsort

// A hybrid group is a g like any other above the bound too: it goes
// hierarchical over the cap, the manifest's begin line carries the group
// size, and a Sort over the checkpoint continues the job only when it asks
// for the same group (a hybrid job once could not go hierarchical at all).

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"colsort/internal/record"
)

// TestHybridHierarchicalResume: a WithHybridGroup(2) job over its cap under
// WithCheckpoint, crashed after formation, is continued by the same Sort to
// byte-identical output adopting every run, on the run capacity the cap
// resolved; the same Sort without the hybrid options is refused.
func TestHybridHierarchicalResume(t *testing.T) {
	const z, g, runRecs = 32, 2, 2048
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	hybrid := []Option{WithHybridGroup(g), WithMaxMemory(runRecs * z), WithMergeFanIn(2)}
	n := 6*runRecs + 5
	sp, err := s.PlanSort(int64(n), hybrid...)
	if err != nil || sp.MaxRuns == 0 || sp.RunRecords != runRecs {
		t.Fatalf("PlanSort = %v, %v; want hierarchical over H = %d records", sp, err, runRecs)
	}
	raw := genRaw(n, z, record.Uniform{Seed: 71})
	ckptDir := filepath.Join(dir, "ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(), append(hybrid, WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 { // formation is complete and durable
				once.Do(cancel)
			}
		}))...)
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	wal, err := os.ReadFile(filepath.Join(ckptDir, manifestName))
	if err != nil {
		t.Fatalf("crashed job left no manifest: %v", err)
	}
	begin, _, _ := bytes.Cut(wal, []byte("\n"))
	for _, field := range []string{`"type":"begin"`, `"alg_name":"hybrid"`, `"group":2`, `"run_records":2048`} {
		if !bytes.Contains(begin, []byte(field)) {
			t.Errorf("begin line lacks %s:\n%s", field, begin)
		}
	}
	runs := bytes.Count(wal, []byte(`{"type":"run"`))

	// The manifest records the job's options; a call without them is
	// another job, refused before it touches the checkpoint.
	if _, err := s.Sort(context.Background(), FromBytes(raw), Discard(), WithCheckpoint(ckptDir)); err == nil ||
		!strings.Contains(err.Error(), "alg=hybrid group=2 ") {
		t.Errorf("Sort without the hybrid options: err = %v, want the checkpoint's hybrid job refused", err)
	}
	var out bytes.Buffer
	rres, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out), append(hybrid, WithCheckpoint(ckptDir))...)
	if err != nil {
		t.Fatalf("Sort over the checkpoint: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
		t.Error("resumed output is not byte-identical to the reference sort")
	}
	if m := rres.Merge; m.Runs != runs || m.ResumedRuns != runs || m.RunRecords != runRecs || rres.Faults.BatchRedos != 0 {
		t.Errorf("resumed %d of %d runs over %d-record capacity, %d redos; want all %d over %d, none",
			m.ResumedRuns, m.Runs, m.RunRecords, rres.Faults.BatchRedos, runs, runRecs)
	}
	if rres.Plan.Alg != Hybrid {
		t.Errorf("resumed under plan [%v], want the hybrid job's", rres.Plan)
	}
}
