package colsort

// The hierarchical path on striped spill disks (DESIGN.md §14): with an
// async layer or a disk model and D > 1, every spilled run is striped over
// the machine's D disks. These tests rerun the storage-fault scenarios of
// hier_fault_test.go through the lanes (Async, a disk model, Disks: 4),
// hold the striped stack's output, counters and manifest to the sync,
// unmodeled stack's, and check that the model was not loosened to buy speed.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"colsort/internal/faultinject"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/testutil"
)

const stripedZ = 32

// stripedConfig is the machine of these tests: four modeled asynchronous
// disks, on a stripe the sort's 4 KiB spill frames do not divide into.
func stripedConfig(dir string) Config {
	return Config{Procs: 4, Disks: 4, MemPerProc: 256, RecordSize: stripedZ, Dir: dir,
		Async: true, DiskSeekMicros: 20, DiskMBps: 64, StripeBytes: 3000}
}

// plainConfig is the same machine with neither layer: the spill stack every
// sync, unmodeled job has always had.
func plainConfig(dir string) Config {
	return Config{Procs: 4, Disks: 4, MemPerProc: 256, RecordSize: stripedZ, Dir: dir}
}

func sorterOf(t *testing.T, cfg Config) *Sorter {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStripedChaosRecovery reruns the chaos scenarios through the lanes.
func TestStripedChaosRecovery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chaos faultinject.ChaosConfig
		check func(*testing.T, FaultStats)
	}{
		{"torn spill write is scrubbed and redone", faultinject.ChaosConfig{Seed: 1, TornSpillWrite: 1},
			func(t *testing.T, f FaultStats) {
				if f.CorruptChunks == 0 || f.BatchRedos != 1 {
					t.Errorf("faults %+v, want the torn frame detected and its run redone once", f)
				}
			}},
		{"transient faults heal under each lane's async layer", faultinject.ChaosConfig{Seed: 2, PTransient: 0.02},
			func(t *testing.T, f FaultStats) {
				if f.DiskRetries == 0 || f.DiskGiveUps != 0 || f.BatchRedos != 0 {
					t.Errorf("faults %+v, want retries only: a transient fault must heal before a lane latches it", f)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			testutil.CheckLeaks(t, dir)
			s := sorterOf(t, stripedConfig(dir))
			raw := genRaw(int(6*s.MaxRecords(Threaded))+77, stripedZ, record.Uniform{Seed: 41})
			var out bytes.Buffer
			res, err := s.Sort(chaosCtx(tc.chaos), FromBytes(raw), ToWriter(&out), WithAlgorithm(Threaded))
			if err != nil {
				t.Fatalf("sort under chaos: %v", err)
			}
			defer res.Close()
			tc.check(t, res.Faults)
			if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, stripedZ, KeySpec{})) {
				t.Error("output differs from the fault-free reference")
			}
		})
	}
}

// laneFaultBackend builds memory spill disks of which the chosen ordinals
// fail — permanently, with err — every write touching the given byte, and
// the refused ones cannot be allocated at all.
type laneFaultBackend struct {
	ordinals, refuse map[int]bool
	at               int64
	err              error
}

func (b laneFaultBackend) Name() string { return "lane-fault" }
func (b laneFaultBackend) NewDisk(idx int) (pdm.Disk, error) {
	if b.refuse[idx] {
		return nil, b.err
	}
	if !b.ordinals[idx] {
		return pdm.NewMemDisk(), nil
	}
	return &byteFaultDisk{Disk: pdm.NewMemDisk(), at: b.at, err: b.err}, nil
}

type byteFaultDisk struct {
	pdm.Disk
	at  int64
	err error
}

func (d *byteFaultDisk) WriteAt(p []byte, off int64) error {
	if off <= d.at && d.at < off+int64(len(p)) {
		return pdm.MarkPermanent(d.err)
	}
	return d.Disk.WriteAt(p, off)
}

// TestStripedLaneWriteErrors plants a permanent write error in the second
// stripe of lane 2 — deferred behind that lane's write-behind queue, while
// the other lanes keep retiring — of a sort that retains its runs for redo.
// An ordinary failure costs one redo onto a fresh disk; a full filesystem
// fails the job at once, naming the cause, with the redo budget untouched.
func TestStripedLaneWriteErrors(t *testing.T) {
	cfg := stripedConfig("")
	at := int64((4+2)*cfg.StripeBytes + 5)
	sortWith := func(t *testing.T, b pdm.Backend) (*Sorter, []byte, []byte, *Result, error) {
		testutil.CheckGoroutines(t)
		s := sorterOf(t, cfg)
		s.m.Backend = b // the hierarchical path allocates spill disks only
		raw := genRaw(int(4*s.MaxRecords(Threaded)), stripedZ, record.Uniform{Seed: 43})
		var out bytes.Buffer
		res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
			WithAlgorithm(Threaded), WithRetry(RetryPolicy{Scrub: true}))
		return s, raw, out.Bytes(), res, err
	}

	t.Run("a lane's latched error redoes the run", func(t *testing.T) {
		lost := errors.New("stripe lost")
		_, raw, out, res, err := sortWith(t, laneFaultBackend{ordinals: map[int]bool{0: true}, at: at, err: lost})
		if err != nil {
			t.Fatalf("sort across a failed lane: %v", err)
		}
		defer res.Close()
		if res.Faults.BatchRedos != 1 {
			t.Errorf("BatchRedos = %d, want 1: the run on the failed lane re-spilled once", res.Faults.BatchRedos)
		}
		if !bytes.Equal(out, refSortBytes(t, raw, stripedZ, KeySpec{})) {
			t.Error("output differs from the reference")
		}
	})

	t.Run("no space fails fast", func(t *testing.T) {
		full := fmt.Errorf("write spill: %w", pdm.ErrNoSpace)
		s, _, _, res, err := sortWith(t, laneFaultBackend{ordinals: map[int]bool{0: true, 1: true, 2: true}, at: at, err: full})
		if err == nil {
			res.Close()
			t.Fatal("sort onto a full filesystem succeeded")
		}
		if !errors.Is(err, pdm.ErrNoSpace) {
			t.Errorf("err = %v, want errors.Is(err, pdm.ErrNoSpace)", err)
		}
		if f := s.Stats().Faults; f.BatchRedos != 0 || f.DiskRetries != 0 {
			t.Errorf("faults %+v: a full disk must burn neither the redo budget nor the retry budget", f)
		}
	})
}

// stackOutcome is everything a job reports that must not depend on what the
// spill stack is made of.
type stackOutcome struct {
	sha      [32]byte
	counters sim.Counters
	merge    MergeStats
	events   int
}

// TestStripedMultiLevelMerge runs a three-level fan-in-2 merge — every
// intermediate run is written to the heads its inputs are being read from —
// on the striped stack and on the plain one: same bytes, same counters,
// same merge shape, same number of progress events.
func TestStripedMultiLevelMerge(t *testing.T) {
	testutil.CheckGoroutines(t)
	var raw []byte
	run := func(cfg Config) stackOutcome {
		dir := t.TempDir()
		testutil.CheckLeaks(t, dir)
		cfg.Dir = dir
		s := sorterOf(t, cfg)
		if raw == nil {
			raw = genRaw(int(12*s.MaxRecords(Threaded)), stripedZ, record.Zipf{Seed: 8})
		}
		var out bytes.Buffer
		var o stackOutcome
		res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
			WithAlgorithm(Threaded), WithMergeFanIn(2), WithProgress(func(Progress) { o.events++ }))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		o.sha, o.counters, o.merge = sha256.Sum256(out.Bytes()), res.TotalCounters(), *res.Merge
		return o
	}
	plain, striped := run(plainConfig("")), run(stripedConfig(""))
	if striped.merge.Levels < 3 {
		t.Fatalf("merge tree has %d levels, want ≥ 3", striped.merge.Levels)
	}
	if !reflect.DeepEqual(striped, plain) {
		t.Errorf("striped stack reports\n  %+v\nplain stack\n  %+v", striped, plain)
	}
	if striped.sha != sha256.Sum256(refSortBytes(t, raw, stripedZ, KeySpec{})) {
		t.Error("output differs from the reference sort")
	}
}

// generation matches the process-wide file counter in a spill file's name —
// the one part of a manifest line that depends on what else the process ran.
var generation = regexp.MustCompile(`-g\d{5}\.dat`)

// TestStripedCheckpointResume crashes a checkpointed job after formation on
// each stack, in the same checkpoint directory: a striped run is one file,
// one fsync and one manifest line, so the two manifests must be identical
// line for line; and the striped job, resumed, re-sorts nothing and produces
// the plain stack's bytes.
func TestStripedCheckpointResume(t *testing.T) {
	testutil.CheckGoroutines(t)
	base := t.TempDir()
	ckptDir := filepath.Join(base, "ckpt")
	var raw []byte
	crash := func(cfg Config) (*Sorter, []byte) {
		cfg.Dir = filepath.Join(base, "scratch")
		s := sorterOf(t, cfg)
		if raw == nil {
			raw = genRaw(int(6*s.MaxRecords(Threaded)), stripedZ, record.Uniform{Seed: 31})
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var once sync.Once
		res, err := s.Sort(ctx, FromBytes(raw), Discard(), WithMergeFanIn(2), WithCheckpoint(ckptDir),
			WithProgress(func(ev Progress) {
				if ev.MergedRecords > 0 {
					once.Do(cancel)
				}
			}))
		if !errors.Is(err, context.Canceled) {
			if err == nil {
				res.Close()
			}
			t.Fatalf("crashed sort returned %v, want context.Canceled", err)
		}
		wal, err := os.ReadFile(filepath.Join(ckptDir, manifestName))
		if err != nil {
			t.Fatalf("crashed job left no manifest: %v", err)
		}
		return s, generation.ReplaceAll(wal, []byte("-g#.dat"))
	}
	_, plainWAL := crash(plainConfig(""))
	if err := os.RemoveAll(ckptDir); err != nil {
		t.Fatal(err)
	}
	s, stripedWAL := crash(stripedConfig(""))
	if !bytes.Equal(stripedWAL, plainWAL) {
		t.Errorf("striped job's manifest\n%s\nplain job's\n%s", stripedWAL, plainWAL)
	}
	if bytes.Count(stripedWAL, []byte(`{"type":"run"`)) != 4 || !bytes.Contains(stripedWAL, []byte(`{"type":"ingest_done"`)) {
		t.Fatalf("crash did not land after formation of 4 runs:\n%s", stripedWAL)
	}

	var out bytes.Buffer
	res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out), WithMergeFanIn(2), WithCheckpoint(ckptDir))
	if err != nil {
		t.Fatalf("Sort over the checkpoint: %v", err)
	}
	defer res.Close()
	if res.Merge.ResumedRuns != 4 || res.Faults.BatchRedos != 0 {
		t.Errorf("resumed %d of 4 runs with %d redos: a merge-phase resume re-sorts nothing", res.Merge.ResumedRuns, res.Faults.BatchRedos)
	}
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, stripedZ, KeySpec{})) {
		t.Error("resumed output is not byte-identical to the uninterrupted sort")
	}
}

// TestSpillModelNotLoosened: the speed of a modeled job comes from its D
// disks and from nowhere else. Formation ends (every run flushed) before the
// first merge event and the merge starts (its first read) after the last
// formation event, so each of those two phases moves the whole input once
// and can take no less than bytes ÷ (D × rate) — at D = 4, and at D = 1,
// where the k runs a merge reads share the ONE head they were written to.
// Lower bounds only: a sleeping head overshoots, never undershoots.
func TestSpillModelNotLoosened(t *testing.T) {
	const mbps = 1
	for _, disks := range []int{1, 4} {
		t.Run(fmt.Sprintf("D=%d", disks), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			s := sorterOf(t, Config{Procs: 1, Disks: disks, MemPerProc: 256, RecordSize: stripedZ,
				Async: true, DiskMBps: mbps, StripeBytes: 3000})
			raw := genRaw(int(3*s.MaxRecords(Threaded)), stripedZ, record.Uniform{Seed: 47})
			var lastFormed, firstMerged time.Time
			start := time.Now()
			res, err := s.Sort(context.Background(), FromBytes(raw), Discard(), WithAlgorithm(Threaded),
				WithProgress(func(ev Progress) {
					switch {
					case ev.FormedRecords > 0:
						lastFormed = time.Now()
					case ev.MergedRecords > 0 && firstMerged.IsZero():
						firstMerged = time.Now()
					}
				}))
			end := time.Now()
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			if res.Merge.Levels != 1 {
				t.Fatalf("%d merge levels, want 1: the bound below assumes every byte is spilled once", res.Merge.Levels)
			}
			least := time.Duration(float64(len(raw)) / float64(disks*mbps<<20) * float64(time.Second))
			if form := firstMerged.Sub(start); form < least {
				t.Errorf("formation spilled %d bytes in %v: faster than %d disks at %d MiB/s allow (%v)", len(raw), form, disks, mbps, least)
			}
			if merge := end.Sub(lastFormed); merge < least {
				t.Errorf("merge read %d bytes in %v: faster than %d disks at %d MiB/s allow (%v)", len(raw), merge, disks, mbps, least)
			}
		})
	}
}

// TestHierarchicalEstimateDisks: a hierarchical result's two synthetic
// passes each carry ONE counter set, served by all D disks, and are priced
// so; an engine pass's P sets are priced at D/P disks each, bit for bit as
// before.
func TestHierarchicalEstimateDisks(t *testing.T) {
	s := sorterOf(t, Config{Procs: 4, Disks: 8, MemPerProc: 256, RecordSize: stripedZ})
	cm := sim.Beowulf2003()
	bound := s.MaxRecords(Threaded)

	res, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 5}, 4*bound), Discard(), WithAlgorithm(Threaded))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	est := res.EstimateBeowulf()
	if res.Merge == nil || len(est.Passes) != 2 {
		t.Fatalf("want a hierarchical result with 2 synthetic passes, got merge %v, %d passes", res.Merge, len(est.Passes))
	}
	for k, pass := range res.PassCounters {
		c := pass[0]
		want := float64(c.DiskReadBytes+c.DiskWriteBytes)/(cm.DiskBandwidth*8) + float64(c.DiskReadOps+c.DiskWriteOps)/8*cm.SeekTime
		if est.Passes[k].Disk != want || want == 0 {
			t.Errorf("pass %d: disk term %v, want bytes ÷ (D × bandwidth) + seeks = %v", k, est.Passes[k].Disk, want)
		}
	}

	below, err := s.Sort(context.Background(), Generate(record.Uniform{Seed: 6}, bound), nil, WithAlgorithm(Threaded))
	if err != nil {
		t.Fatal(err)
	}
	defer below.Close()
	if got, want := below.Estimate(cm), cm.EstimateRun(below.PassCounters, 8/4); below.Merge != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("below-bound estimate %+v, want D/P disks per processor as ever: %+v", got, want)
	}
}
