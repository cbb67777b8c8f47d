package colsort

// Tests of the durable-job path: WithCheckpoint's persisted run manifest,
// the same Sort called again after a mid-merge and mid-formation crash (one
// entry point: a Sort under WithCheckpoint(dir) continues whatever job dir
// holds), the deadline option, and the manifest replay's crash-tolerance.
// The "crash" is a context cancellation fired from a progress callback —
// the same abrupt teardown a SIGKILL inflicts on the checkpoint state, since
// the WAL is fsync'd at every durability point and never repaired on the
// way down (scripts/crash_resume_e2e.sh kills a real process for the
// end-to-end version of the same contract).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"colsort/internal/record"
	"colsort/internal/testutil"
)

// ckptConfig builds a file-backed engine small enough that n records force a
// deep hierarchical sort, with scratch under dir/scratch.
func ckptConfig(t *testing.T, dir string) *Sorter {
	t.Helper()
	s, err := New(Config{Procs: 4, MemPerProc: 256, RecordSize: 32,
		Dir: filepath.Join(dir, "scratch"), Async: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// checkFormationRestarted returns a progress callback for a continuation
// that must restart formation. At the resumed job's first formation event —
// the one place the restart is observable, since success retires the whole
// checkpoint directory — it checks that the manifest was begun afresh (a
// begin entry naming the one formation, no run entry yet) and that the
// crashed job's run files, stale, were swept.
func checkFormationRestarted(t *testing.T, ckptDir string, stale []string) func(Progress) {
	var once sync.Once
	return func(ev Progress) {
		if ev.FormedRecords == 0 {
			return
		}
		once.Do(func() {
			fresh, err := os.ReadFile(filepath.Join(ckptDir, manifestName))
			if err != nil {
				t.Errorf("restarted job has no manifest: %v", err)
				return
			}
			if !bytes.HasPrefix(fresh, []byte(`{"type":"begin"`)) || bytes.Contains(fresh, []byte(`{"type":"run"`)) ||
				!bytes.Contains(fresh, []byte(`"formation":"`+formationName+`"`)) {
				t.Errorf("restarted formation did not re-begin the manifest:\n%s", fresh)
			}
			for _, path := range stale {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("run file %s of the crashed job survived the restart (stat err %v)", path, err)
				}
			}
		})
	}
}

// TestCheckpointResumeMidMerge calls a Sort again over a checkpoint whose
// job died during the merge phase: the output must be byte-identical to the
// uninterrupted sort and NOTHING re-sorted — every run is adopted from the
// manifest (ResumedRuns == the full live set, BatchRedos == 0). The
// checkpoint is this build's: a job crashed at its first merge event.
func TestCheckpointResumeMidMerge(t *testing.T) {
	resume := func(t *testing.T, s *Sorter, ckptDir string, raw []byte, z int) {
		var out bytes.Buffer
		rres, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out), WithMergeFanIn(2), WithCheckpoint(ckptDir))
		if err != nil {
			t.Fatalf("Sort over the checkpoint: %v", err)
		}
		defer rres.Close()
		if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
			t.Error("resumed output is not byte-identical to the uninterrupted sort")
		}
		if rres.Merge == nil {
			t.Fatal("resumed sort reports no merge stats")
		}
		// The checkpoint holds 4 runs at fan-in 2, so an intermediate merge
		// level came first and the crash left formation runs live.
		if rres.Merge.Runs != 4 || rres.Merge.ResumedRuns != rres.Merge.Runs {
			t.Errorf("ResumedRuns = %d of %d runs, want all 4: a merge-phase resume re-sorts nothing",
				rres.Merge.ResumedRuns, rres.Merge.Runs)
		}
		if rres.Faults.BatchRedos != 0 {
			t.Errorf("BatchRedos = %d after a merge-phase resume, want 0", rres.Faults.BatchRedos)
		}
		// Success retires the checkpoint: manifest and run files are gone.
		if _, err := os.Stat(filepath.Join(ckptDir, "manifest.wal")); !os.IsNotExist(err) {
			t.Errorf("manifest survived a completed job (stat err %v)", err)
		}
		st := s.Stats()
		if st.JobsResumed != 1 || st.RunsResumed != int64(rres.Merge.ResumedRuns) {
			t.Errorf("engine stats JobsResumed=%d RunsResumed=%d, want 1/%d",
				st.JobsResumed, st.RunsResumed, rres.Merge.ResumedRuns)
		}
	}

	t.Run("replacement-select", func(t *testing.T) {
		dir := t.TempDir()
		s := ckptConfig(t, dir)
		raw := genRaw(int(6*s.MaxRecords(Threaded)), 32, record.Uniform{Seed: 31}) // forms 4 runs
		ckptDir := filepath.Join(dir, "ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var once sync.Once
		res, err := s.Sort(ctx, FromBytes(raw), Discard(),
			WithMergeFanIn(2), WithCheckpoint(ckptDir),
			WithProgress(func(ev Progress) {
				if ev.Pass == 0 && ev.MergedRecords > 0 {
					once.Do(cancel)
				}
			}))
		if err == nil {
			res.Close()
			t.Fatal("cancelled checkpointed sort returned no error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if _, err := os.Stat(filepath.Join(ckptDir, "manifest.wal")); err != nil {
			t.Fatalf("crashed job left no manifest: %v", err)
		}
		resume(t, s, ckptDir, raw, 32)
	})
}

// TestCheckpointResumeMidMergeNilSource: once the manifest records
// ingest_done, the input is never read again — the continuing Sort opens
// its Source (for the record count its begin entry must match) and reads
// zero records from it.
func TestCheckpointResumeMidMergeNilSource(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := int(4 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 33})
	ckptDir := filepath.Join(dir, "ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(),
		WithMergeFanIn(2), WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}

	var out bytes.Buffer
	src := &countingSource{Source: FromBytes(raw)}
	rres, err := s.Sort(context.Background(), src, ToWriter(&out), WithMergeFanIn(2), WithCheckpoint(ckptDir))
	if err != nil {
		t.Fatalf("Sort over the checkpoint: %v", err)
	}
	defer rres.Close()
	if src.read != 0 {
		t.Errorf("a merge-phase continuation read %d records from its Source, want 0", src.read)
	}
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("resumed output differs from the reference")
	}
	// 3 runs at fan-in 2: the crash hit the intermediate merge of runs 1+2.
	if rres.Merge.Runs != 3 || rres.Merge.ResumedRuns != 3 || rres.Merge.Levels != 2 {
		t.Errorf("resumed %d of %d runs over %d levels, want 3 of 3 over 2", rres.Merge.ResumedRuns, rres.Merge.Runs, rres.Merge.Levels)
	}
}

// TestCheckpointResumeMidFormation crashes a job between formation runs,
// with verified runs already durable in its manifest: those runs do not
// cover a source prefix (the former that cut them held records from well
// past their end), so the Sort called again adopts none of them — it sweeps
// them, re-begins the manifest and forms every run again, byte-identical.
func TestCheckpointResumeMidFormation(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := int(12 * bound) // this seed forms 8 runs
	raw := genRaw(n, 32, record.Uniform{Seed: 35})
	ckptDir := filepath.Join(dir, "ckpt")
	manifest := filepath.Join(ckptDir, "manifest.wal")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(), WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			// Forming run 5 of 8: runs 1 and 2 are durable. Runs 3 and 4
			// need not be — durability lags select by at most two runs:
			// one being spilled while the one before it is committed (§12).
			if ev.Batch >= 5 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}
	crashed, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(crashed, []byte(`{"type":"run"`)); got < 2 || bytes.Contains(crashed, []byte(`"ingest_done"`)) {
		t.Fatalf("crashed manifest holds %d run entries, want ≥ 2 durable runs and unfinished formation:\n%s", got, crashed)
	}
	stale, err := filepath.Glob(filepath.Join(ckptDir, ckptRunPrefix+"*"))
	if err != nil || len(stale) < 2 {
		t.Fatalf("crashed job left run files %v (%v), want at least its 2 durable runs", stale, err)
	}

	var out bytes.Buffer
	rres, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out), WithCheckpoint(ckptDir),
		WithProgress(checkFormationRestarted(t, ckptDir, stale)))
	if err != nil {
		t.Fatalf("Sort over the checkpoint: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("formation-restarted output is not byte-identical to the reference")
	}
	if rres.Merge.ResumedRuns != 0 || rres.Merge.Runs != 8 {
		t.Errorf("ResumedRuns = %d of %d runs, want 0 of 8: a formation-phase resume forms every run again",
			rres.Merge.ResumedRuns, rres.Merge.Runs)
	}
}

// TestCheckpointRSFormationRestart crashes formation at its first chunk,
// before any run is durable (TestCheckpointResumeMidFormation crashes it
// after two are): the former's resident records died with the process, so
// the Sort called again restarts formation from scratch — and the restarted
// job still ends byte-identical.
func TestCheckpointRSFormationRestart(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := int(6 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 37})
	ckptDir := filepath.Join(dir, "ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(),
		WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.FormedRecords > 0 && ev.MergedRecords == 0 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Skip("sort completed before formation could be interrupted")
	}

	var out bytes.Buffer
	rres, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out), WithCheckpoint(ckptDir))
	if err != nil {
		t.Fatalf("Sort over the checkpoint: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("restarted replacement-selection output differs from the reference")
	}
	if rres.Merge.ResumedRuns != 0 {
		t.Errorf("ResumedRuns = %d after an RS formation restart, want 0 (formation redone)", rres.Merge.ResumedRuns)
	}
}

// TestResumeValidation covers what a Sort over a crashed job's checkpoint
// refuses — an engine that resolves the job differently, a source of another
// record count, a nil Sink — and the one leftover it sweeps: a manifest
// whose job completed but whose cleanup failed is a fresh sort.
func TestResumeValidation(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := int(3 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 39})
	ckptDir := filepath.Join(dir, "ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(),
		WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}
	// An engine that resolves the job differently — half the memory per
	// processor — must refuse: the durable runs were formed over a capacity
	// it would not choose.
	other, err := New(Config{Procs: 4, MemPerProc: 128, RecordSize: 32, Dir: filepath.Join(dir, "scratch-other")})
	if err != nil {
		t.Fatal(err)
	}
	_, err = other.Sort(context.Background(), FromBytes(raw), Discard(), WithCheckpoint(ckptDir))
	for _, want := range []string{ckptDir, fmt.Sprintf("run_records=%d ", bound), fmt.Sprintf("run_records=%d ", other.MaxRecords(Threaded))} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Sort on a differently sized engine: err = %v, want it to name %q", err, want)
		}
	}
	short := raw[:len(raw)-32]
	if _, err := s.Sort(context.Background(), FromBytes(short), Discard(), WithCheckpoint(ckptDir)); err == nil {
		t.Error("a checkpoint was continued from a source with another record count")
	}
	if _, err := s.Sort(context.Background(), FromBytes(raw), nil, WithCheckpoint(ckptDir)); !errors.Is(err, ErrSinkRequired) {
		t.Errorf("Sort with nil Sink: err = %v, want ErrSinkRequired", err)
	}

	// A done entry is only left behind when the completed job's cleanup
	// failed: its runs are swept and the job sorts afresh.
	f, err := os.OpenFile(filepath.Join(ckptDir, manifestName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"done"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	res, err = s.Sort(context.Background(), FromBytes(raw), ToWriter(&out), WithCheckpoint(ckptDir))
	if err != nil {
		t.Fatalf("Sort over a completed job's manifest: %v", err)
	}
	defer res.Close()
	if res.Merge.ResumedRuns != 0 || !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Errorf("Sort over a completed job's manifest adopted %d runs (want 0) or differs from the reference", res.Merge.ResumedRuns)
	}
	if _, err := os.Stat(ckptDir); !os.IsNotExist(err) {
		t.Errorf("checkpoint directory survived the completed sort (stat err %v)", err)
	}
}

// TestCheckpointTornBeginIsNoJob: a manifest with no complete line — empty,
// or only the fragment of a begin entry the crash tore — is no job, so the
// Sort sweeps it and sorts afresh; a log with complete lines but no begin
// entry is damaged, and refused without touching it.
func TestCheckpointTornBeginIsNoJob(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	raw := genRaw(int(3*s.MaxRecords(Threaded)), 32, record.Uniform{Seed: 47})
	want := refSortBytes(t, raw, 32, KeySpec{})
	for _, tc := range []struct{ name, manifest string }{
		{"empty", ""},
		{"torn begin", `{"type":"beg`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckptDir := filepath.Join(dir, "ckpt-"+strings.ReplaceAll(tc.name, " ", "-"))
			if err := os.MkdirAll(ckptDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(ckptDir, manifestName), []byte(tc.manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out), WithCheckpoint(ckptDir))
			if err != nil {
				t.Fatalf("Sort over a manifest with no complete line: %v", err)
			}
			defer res.Close()
			if res.Merge.ResumedRuns != 0 || !bytes.Equal(out.Bytes(), want) {
				t.Errorf("adopted %d runs (want 0), or the output differs from the unchecked sort", res.Merge.ResumedRuns)
			}
			if _, err := os.Stat(ckptDir); !os.IsNotExist(err) {
				t.Errorf("checkpoint directory survived the sort (stat err %v)", err)
			}
		})
	}

	ckptDir := filepath.Join(dir, "ckpt-no-begin")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	damaged := []byte(`{"type":"ingest_done"}` + "\n")
	if err := os.WriteFile(filepath.Join(ckptDir, manifestName), damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := s.Sort(context.Background(), FromBytes(raw), Discard(), WithCheckpoint(ckptDir))
	if err == nil || !strings.Contains(err.Error(), "has no begin entry") {
		t.Errorf("Sort over a log without a begin entry: err = %v, want it refused", err)
	}
	if got, _ := os.ReadFile(filepath.Join(ckptDir, manifestName)); !bytes.Equal(got, damaged) {
		t.Errorf("the refused manifest was rewritten to %q", got)
	}
}

// TestCheckpointCrashTwice is "the same command that crashed resumes" taken
// at its word: a checkpointed Sort crashed mid-merge, the SAME call crashed
// again mid-merge, then the same call run to completion. Each continuation
// adopts the runs the previous process left — no second begin entry, no
// orphaned runs — so the last one re-sorts nothing (ResumedRuns == Runs),
// its output is byte-identical, and the checkpoint directory is gone.
func TestCheckpointCrashTwice(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	raw := genRaw(int(6*s.MaxRecords(Threaded)), 32, record.Uniform{Seed: 31}) // forms 4 runs
	ckptDir := filepath.Join(dir, "ckpt")
	sortOnce := func(ctx context.Context, dst Sink, progress func(Progress)) (*Result, error) {
		return s.Sort(ctx, FromBytes(raw), dst, WithMergeFanIn(2), WithCheckpoint(ckptDir), WithProgress(progress))
	}
	for crash := 1; crash <= 2; crash++ {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		res, err := sortOnce(ctx, Discard(), func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			if err == nil {
				res.Close()
			}
			t.Fatalf("crash %d: err = %v, want context.Canceled", crash, err)
		}
		wal, err := os.ReadFile(filepath.Join(ckptDir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		if begins := bytes.Count(wal, []byte(`{"type":"begin"`)); begins != 1 {
			t.Fatalf("after crash %d the manifest holds %d begin entries, want 1:\n%s", crash, begins, wal)
		}
		// The 4 runs, and at most the merge output the crash cut short.
		if files, _ := filepath.Glob(filepath.Join(ckptDir, ckptRunPrefix+"*")); len(files) > 5 {
			t.Errorf("after crash %d the checkpoint holds %d run files for a 4-run job: %v", crash, len(files), files)
		}
	}

	var out bytes.Buffer
	res, err := sortOnce(context.Background(), ToWriter(&out), nil)
	if err != nil {
		t.Fatalf("Sort after two crashes: %v", err)
	}
	defer res.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("output after two crashes is not byte-identical to the uninterrupted sort")
	}
	if m := res.Merge; m.ResumedRuns == 0 || m.ResumedRuns != m.Runs {
		t.Errorf("ResumedRuns = %d of %d runs, want all: the second crash left the first job's runs adoptable", m.ResumedRuns, m.Runs)
	}
	if ents, err := os.ReadDir(ckptDir); len(ents) != 0 || !os.IsNotExist(err) {
		t.Errorf("checkpoint directory after completion: %d entries (err %v), want it gone", len(ents), err)
	}
}

// TestCheckpointForeignJobRefused: a Sort whose parameters differ from those
// of the job its checkpoint directory holds — another record count, another
// fan-in — is refused with both parameter sets named, and leaves every byte
// of that job's manifest and run files as it found them.
func TestCheckpointForeignJobRefused(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	raw := genRaw(int(4*bound), 32, record.Uniform{Seed: 33})
	ckptDir := filepath.Join(dir, "ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(), WithMergeFanIn(2), WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		}))
	if !errors.Is(err, context.Canceled) {
		if err == nil {
			res.Close()
		}
		t.Fatalf("crash: err = %v, want context.Canceled", err)
	}
	snapshot := func() map[string]string {
		ents, err := os.ReadDir(ckptDir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]string, len(ents))
		for _, de := range ents {
			b, err := os.ReadFile(filepath.Join(ckptDir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[de.Name()] = string(b)
		}
		return files
	}
	before := snapshot()

	for _, tc := range []struct {
		name  string
		raw   []byte
		fanIn int
		want  []string
	}{
		{"another n", raw[:len(raw)-5*32], 2, []string{fmt.Sprintf("n=%d ", 4*bound), fmt.Sprintf("n=%d ", 4*bound-5)}},
		{"another fan-in", raw, 3, []string{"fan_in=2 ", "fan_in=3 "}},
	} {
		_, err := s.Sort(context.Background(), FromBytes(tc.raw), Discard(), WithMergeFanIn(tc.fanIn), WithCheckpoint(ckptDir))
		for _, want := range append(tc.want, ckptDir) {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want a refusal naming %q", tc.name, err, want)
			}
		}
		if after := snapshot(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the refused Sort changed the checkpoint directory", tc.name)
		}
	}
}

// TestManifestTornTail appends garbage (a torn final line) to a crashed
// job's manifest: replay must ignore the tear and the resume still succeed.
func TestManifestTornTail(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := int(4 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 41})
	ckptDir := filepath.Join(dir, "ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(),
		WithMergeFanIn(2), WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}

	f, err := os.OpenFile(filepath.Join(ckptDir, "manifest.wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"merged","run":{"id":99`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	rres, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out), WithMergeFanIn(2), WithCheckpoint(ckptDir))
	if err != nil {
		t.Fatalf("Sort over a torn manifest tail: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("resumed output differs from the reference after a torn tail")
	}
	// 3 runs at fan-in 2: the crash (and the fragment) came during the
	// intermediate merge of runs 1+2, before any "merged" entry.
	if rres.Merge.Runs != 3 || rres.Merge.ResumedRuns != 3 {
		t.Errorf("resumed %d of %d runs, want 3 of 3", rres.Merge.ResumedRuns, rres.Merge.Runs)
	}
}

// TestManifestTornTailSecondInterruption is the torn tail met twice: a crash
// leaves a fragment at the end of the manifest, the resumed process appends
// "merged" entries after it and is itself interrupted, and a third process
// must still find every one of those entries. A log that appended straight
// after the fragment glued its first entry onto it; replay dropped the
// glued line as torn, and with it the record of a merge whose inputs were
// already removed — "durable run 1 is missing".
func TestManifestTornTailSecondInterruption(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := int(16 * bound) // 10 runs: five intermediate merges at fan-in 2, then more levels
	raw := genRaw(n, 32, record.Uniform{Seed: 47})
	ckptDir := filepath.Join(dir, "ckpt")
	opts := func(cancelAt int64, cancel func()) []Option {
		var once sync.Once
		return []Option{WithMergeFanIn(2), WithCheckpoint(ckptDir),
			WithProgress(func(ev Progress) {
				if ev.Pass == 0 && ev.MergedRecords > cancelAt {
					once.Do(cancel)
				}
			})}
	}

	// First interruption: at the first merge event.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := s.Sort(ctx, FromBytes(raw), Discard(), opts(0, cancel)...)
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}
	f, err := os.OpenFile(filepath.Join(ckptDir, "manifest.wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"merged","run":{"id":99`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Second interruption: once the resumed process has merged 6×bound
	// records. No run is longer than ~2×bound, so the first merge (runs 1+2)
	// is complete and logged by then, and a later one is in flight.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	res, err = s.Sort(ctx2, FromBytes(raw), Discard(), opts(6*bound, cancel2)...)
	if err == nil {
		res.Close()
		t.Fatal("cancelled resume returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("second interruption: err = %v, want context.Canceled", err)
	}
	if wal, err := os.ReadFile(filepath.Join(ckptDir, "manifest.wal")); err != nil ||
		!bytes.Contains(wal, []byte("\n"+`{"type":"merged","run":{"id":11,`)) {
		t.Fatalf("the resumed process logged no merged entry (as id 11, after 10 runs) before its interruption (%v):\n%s", err, wal)
	}

	var out bytes.Buffer
	rres, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out), WithMergeFanIn(2), WithCheckpoint(ckptDir))
	if err != nil {
		t.Fatalf("Sort after a second interruption over a torn tail: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("resumed output differs from the reference after two interruptions")
	}
}

// TestWithDeadlineExceeded checks the per-job deadline end to end: the sort
// fails with a wrapped context.DeadlineExceeded and unwinds leak-free — no
// goroutines, no scratch files.
func TestWithDeadlineExceeded(t *testing.T) {
	dir := t.TempDir()
	testutil.CheckLeaks(t, filepath.Join(dir, "scratch"))
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := 4 * bound

	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 43}, n), Discard(),
		WithDeadline(time.Nanosecond))
	if err == nil {
		res.Close()
		t.Fatal("sort with a 1ns deadline succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is(err, context.DeadlineExceeded)", err)
	}

	// The engine stays serviceable after the deadline blew.
	res, err = s.Sort(context.Background(), Generate(record.Uniform{Seed: 44}, bound/2), Discard(),
		WithDeadline(time.Minute))
	if err != nil {
		t.Fatalf("sort with a generous deadline: %v", err)
	}
	res.Close()
}

// TestCheckpointSingleRunIgnored pins that WithCheckpoint on a below-bound
// sort (no hierarchical path) is accepted and harmless.
func TestCheckpointSingleRunIgnored(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 45}, bound/2), Discard(),
		WithCheckpoint(filepath.Join(dir, "ckpt")))
	if err != nil {
		t.Fatalf("single-run sort with WithCheckpoint: %v", err)
	}
	res.Close()
	if _, err := os.Stat(filepath.Join(dir, "ckpt", "manifest.wal")); !os.IsNotExist(err) {
		t.Errorf("single-run sort wrote a manifest (stat err %v)", err)
	}
}

// countingSource is a Source whose reader counts the records Sort reads from
// it — record by record, since it does not offer the built-in readers' bulk
// path.
type countingSource struct {
	Source
	read int64
}

func (c *countingSource) Open(recSize int) (int64, RecordReader, error) {
	n, rd, err := c.Source.Open(recSize)
	return n, &countingReader{RecordReader: rd, read: &c.read}, err
}

type countingReader struct {
	RecordReader
	read *int64
}

func (r *countingReader) ReadRecord(rec []byte) error {
	*r.read++
	return r.RecordReader.ReadRecord(rec)
}
