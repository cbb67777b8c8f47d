package colsort

// Tests of the durable-job path: WithCheckpoint's persisted run manifest,
// Engine.Resume after a mid-merge and mid-formation crash, the deadline
// option, and the manifest replay's crash-tolerance. The "crash" is a
// context cancellation fired from a progress callback — the same abrupt
// teardown a SIGKILL inflicts on the checkpoint state, since the WAL is
// fsync'd at every durability point and never repaired on the way down
// (scripts/crash_resume_e2e.sh kills a real process for the end-to-end
// version of the same contract).

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
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
	return s
}

// TestCheckpointResumeMidMerge crashes a checkpointed sort during the merge
// phase and resumes it: the output must be byte-identical to the
// uninterrupted sort and ZERO batches re-sorted — every run is adopted from
// the manifest (ResumedRuns == the full live set, BatchRedos == 0).
func TestCheckpointResumeMidMerge(t *testing.T) {
	for _, form := range []RunFormation{FixedBatch, ReplacementSelect} {
		form := form
		t.Run(form.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := ckptConfig(t, dir)
			bound := s.MaxRecords(Threaded)
			n := int(6 * bound)
			raw := genRaw(n, 32, record.Uniform{Seed: 31})
			want := refSortBytes(t, raw, 32, KeySpec{})
			ckptDir := filepath.Join(dir, "ckpt")

			// Crash once the merge is demonstrably running: fan-in 2 over ≥6
			// runs guarantees intermediate merge levels, so the manifest holds
			// a mix of formation runs and merged outputs at the crash.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			res, err := s.Sort(ctx, FromBytes(raw), Discard(),
				WithRunFormation(form), WithMergeFanIn(2), WithCheckpoint(ckptDir),
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

			var out bytes.Buffer
			rres, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), ToWriter(&out))
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			defer rres.Close()
			if !bytes.Equal(out.Bytes(), want) {
				t.Error("resumed output is not byte-identical to the uninterrupted sort")
			}
			if rres.Merge == nil {
				t.Fatal("resumed sort reports no merge stats")
			}
			if rres.Merge.ResumedRuns == 0 || rres.Merge.ResumedRuns != rres.Merge.Runs {
				t.Errorf("ResumedRuns = %d, want the full live set (%d): a merge-phase resume re-sorts nothing",
					rres.Merge.ResumedRuns, rres.Merge.Runs)
			}
			if rres.Faults.BatchRedos != 0 {
				t.Errorf("BatchRedos = %d after a merge-phase resume, want 0", rres.Faults.BatchRedos)
			}
			// Success retires the checkpoint: manifest and run files are gone.
			if _, err := os.Stat(filepath.Join(ckptDir, "manifest.wal")); !os.IsNotExist(err) {
				t.Errorf("manifest survived a completed job (stat err %v)", err)
			}
			st := s.Engine().Stats()
			if st.JobsResumed != 1 || st.RunsResumed != int64(rres.Merge.ResumedRuns) {
				t.Errorf("engine stats JobsResumed=%d RunsResumed=%d, want 1/%d",
					st.JobsResumed, st.RunsResumed, rres.Merge.ResumedRuns)
			}
		})
	}
}

// TestCheckpointResumeMidMergeNilSource is the merge-phase resume with no
// Source at all: once the manifest records ingest_done, the input is never
// read again.
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
		WithRunFormation(FixedBatch), WithMergeFanIn(2), WithCheckpoint(ckptDir),
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
	rres, err := s.Resume(context.Background(), ckptDir, nil, ToWriter(&out))
	if err != nil {
		t.Fatalf("Resume with nil Source: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("nil-source resumed output differs from the reference")
	}
}

// TestCheckpointResumeMidFormation crashes a fixed-batch job between
// formation batches: Resume must skip (and checksum-verify) the source
// prefix the durable runs cover, re-sort only the interrupted tail, and
// still produce byte-identical output.
func TestCheckpointResumeMidFormation(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)
	bound := s.MaxRecords(Threaded)
	n := int(6 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 35})
	ckptDir := filepath.Join(dir, "ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := s.Sort(ctx, FromBytes(raw), Discard(),
		WithRunFormation(FixedBatch), WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Batch >= 3 { // at least two whole batches are durable
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}

	var out bytes.Buffer
	rres, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), ToWriter(&out))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("formation-resumed output is not byte-identical to the reference")
	}
	if rres.Merge.ResumedRuns == 0 || rres.Merge.ResumedRuns >= rres.Merge.Runs {
		t.Errorf("ResumedRuns = %d of %d runs; a formation-phase resume adopts some and forms the rest",
			rres.Merge.ResumedRuns, rres.Merge.Runs)
	}

	// A changed source is refused, not silently merged against stale runs.
	// (Resume after success already retired this manifest, so crash again.)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var once2 sync.Once
	res, err = s.Sort(ctx2, FromBytes(raw), Discard(),
		WithRunFormation(FixedBatch), WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Batch >= 3 {
				once2.Do(cancel2)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("second cancelled sort returned no error")
	}
	altered := append([]byte(nil), raw...)
	altered[0] ^= 0xff
	if _, err := s.Resume(context.Background(), ckptDir, FromBytes(altered), Discard()); err == nil {
		t.Error("Resume accepted a source whose consumed prefix no longer matches the manifest")
	}
}

// TestCheckpointRSFormationRestart crashes replacement-selection formation:
// the heap's contents died with the process, so Resume restarts formation
// from scratch — and the restarted job still ends byte-identical.
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
		WithRunFormation(ReplacementSelect), WithCheckpoint(ckptDir),
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
	rres, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), ToWriter(&out))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("restarted replacement-selection output differs from the reference")
	}
	if rres.Merge.ResumedRuns != 0 {
		t.Errorf("ResumedRuns = %d after an RS formation restart, want 0 (formation redone)", rres.Merge.ResumedRuns)
	}
}

// TestResumeValidation covers the refusals: no manifest, a completed job,
// and a mismatched source size.
func TestResumeValidation(t *testing.T) {
	dir := t.TempDir()
	s := ckptConfig(t, dir)

	if _, err := s.Resume(context.Background(), filepath.Join(dir, "nope"), nil, Discard()); err == nil {
		t.Error("Resume on a nonexistent manifest dir succeeded")
	}

	// A completed checkpointed job retires its state; resuming it must fail.
	bound := s.MaxRecords(Threaded)
	n := int(3 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 39})
	ckptDir := filepath.Join(dir, "ckpt")
	res, err := s.Sort(context.Background(), FromBytes(raw), Discard(), WithCheckpoint(ckptDir))
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if _, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), Discard()); err == nil {
		t.Error("Resume after successful completion succeeded")
	}

	// Crash one, then offer a source of the wrong size.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err = s.Sort(ctx, FromBytes(raw), Discard(),
		WithRunFormation(FixedBatch), WithCheckpoint(ckptDir),
		WithProgress(func(ev Progress) {
			if ev.Pass == 0 && ev.MergedRecords > 0 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		res.Close()
		t.Fatal("cancelled checkpointed sort returned no error")
	}
	short := raw[:len(raw)-32]
	if _, err := s.Resume(context.Background(), ckptDir, FromBytes(short), Discard()); err == nil {
		t.Error("Resume accepted a source with the wrong record count")
	}
	if _, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), nil); !errors.Is(err, ErrSinkRequired) {
		t.Errorf("Resume with nil Sink: err = %v, want ErrSinkRequired", err)
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
		WithRunFormation(FixedBatch), WithMergeFanIn(2), WithCheckpoint(ckptDir),
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
	rres, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), ToWriter(&out))
	if err != nil {
		t.Fatalf("Resume over a torn manifest tail: %v", err)
	}
	defer rres.Close()
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, 32, KeySpec{})) {
		t.Error("resumed output differs from the reference after a torn tail")
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
	n := int(8 * bound)
	raw := genRaw(n, 32, record.Uniform{Seed: 47})
	ckptDir := filepath.Join(dir, "ckpt")
	opts := func(cancelAt int64, cancel func()) []Option {
		var once sync.Once
		return []Option{WithRunFormation(FixedBatch), WithMergeFanIn(2), WithCheckpoint(ckptDir),
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

	// Second interruption: after the resumed process has logged at least
	// three runs' worth of merged records (≥ 1 "merged" entry at fan-in 2).
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	res, err = s.Resume(ctx2, ckptDir, FromBytes(raw), Discard(), opts(3*bound, cancel2)...)
	if err == nil {
		res.Close()
		t.Fatal("cancelled resume returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("second interruption: err = %v, want context.Canceled", err)
	}

	var out bytes.Buffer
	rres, err := s.Resume(context.Background(), ckptDir, FromBytes(raw), ToWriter(&out))
	if err != nil {
		t.Fatalf("Resume after a second interruption over a torn tail: %v", err)
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
