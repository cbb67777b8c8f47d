package colsort

// Fault-tolerance tests of the storage stack (DESIGN.md §9): CRC-framed
// spill runs, batch-level recovery, the context every escaping disk error
// carries, and the seeded chaos harness (internal/faultinject) driving them.
//
// The acceptance bar: a file-backed sort ≥3× the single-run bound completes
// byte-identical to a fault-free run under seeded chaos combining at least
// one corrupted spill chunk and one permanently failed spill disk — with the
// reread/redo activity visible in the counters.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"colsort/internal/faultinject"
	"colsort/internal/merge"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// chaosSorter builds a file-backed async sorter under dir/scratch, for
// jobs run under chaosCtx.
func chaosSorter(t *testing.T, dir string, z int) *Sorter {
	t.Helper()
	s, err := New(Config{Procs: 4, MemPerProc: 256, RecordSize: z,
		Dir: filepath.Join(dir, "scratch"), Async: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// chaosCtx is a context whose Sort jobs run every disk under the seeded
// fault model c.
func chaosCtx(c faultinject.ChaosConfig) context.Context {
	return pdm.WithInjector(context.Background(), faultinject.Injector(c))
}

// TestChaosAcceptance is the headline run: a file-backed input >3× the
// single-run bound sorted, with the scrub armed, under seeded chaos that
// tears the first spill disk's first write (persistent corruption, caught by
// the post-spill scrub), flips a bit on a later spill disk's first read
// (transient corruption, healed by a CRC reread at merge time), and
// permanently kills one spill disk mid-write. The output must be
// byte-identical to the fault-free reference and every recovery mechanism
// must have visibly fired.
func TestChaosAcceptance(t *testing.T) {
	const p, mem, z = 4, 256, 32
	probe, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := probe.MaxRecords(Threaded)
	n := int(3*bound) + 123
	raw := genRaw(n, z, record.Uniform{Seed: 77})

	dir := t.TempDir()
	testutil.CheckLeaks(t, filepath.Join(dir, "scratch"))
	in := filepath.Join(dir, "in.dat")
	out := filepath.Join(dir, "out.dat")
	if err := os.WriteFile(in, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Spill ordinals: run 1 spills to ordinal 1 (torn → scrub fails →
	// re-spilled onto 2), run 2 to 3 (dies mid-write → re-spilled onto 4,
	// whose first merge read is bit-flipped), later runs from 5 on. Each spill
	// is striped over the machine's four disks (Async): the scripted faults
	// sit on a spill's first lane.
	s := chaosSorter(t, dir, z)
	ctx := chaosCtx(faultinject.ChaosConfig{
		Seed:           uint64(2),
		TornSpillWrite: 1,
		DeadSpillDisk:  3,
		DeadSpillAfter: 16 << 10,
		FlipSpillRead:  4,
	})
	res, err := s.Sort(ctx, FromFile(in), ToFile(out), WithAlgorithm(Threaded),
		WithRetry(RetryPolicy{Scrub: true}))
	if err != nil {
		t.Fatalf("sort under chaos: %v", err)
	}
	defer res.Close()

	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refSortBytes(t, raw, z, KeySpec{})) {
		t.Error("chaos output is not byte-identical to the fault-free reference")
	}

	f := res.Faults
	if !f.Any() {
		t.Fatal("no fault activity recorded under chaos")
	}
	if f.CorruptChunks < 2 {
		t.Errorf("CorruptChunks = %d, want ≥ 2 (torn write + flipped read)", f.CorruptChunks)
	}
	if f.ChunkRereads == 0 {
		t.Error("the flipped spill read was not healed by a reread")
	}
	if f.BatchRedos < 2 {
		t.Errorf("BatchRedos = %d, want ≥ 2 (torn spill + dead spill disk)", f.BatchRedos)
	}
}

// TestChaosBatchRedoAfterDeadSpillDisk kills the first spill disk almost
// immediately. With the scrub armed the run is retained, so it must be
// re-spilled onto a fresh disk and the sort must complete correctly,
// reporting the redo. Under the default policy nothing was retained to redo
// from: the dead disk is terminal, and the error names the run, the failed
// operation and the dead disk — without leaking a goroutine or a scratch
// file.
func TestChaosBatchRedoAfterDeadSpillDisk(t *testing.T) {
	const z = 16
	ctx := chaosCtx(faultinject.ChaosConfig{Seed: 3, DeadSpillDisk: 1, DeadSpillAfter: 1 << 10})
	sorter := func(t *testing.T) (*Sorter, []byte) {
		scratch := filepath.Join(t.TempDir(), "scratch")
		testutil.CheckLeaks(t, scratch)
		s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: z, Dir: scratch})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s, genRaw(int(2*s.MaxRecords(Threaded)), z, record.Uniform{Seed: 17})
	}

	t.Run("scrub", func(t *testing.T) {
		s, raw := sorter(t)
		var out bytes.Buffer
		res, err := s.Sort(ctx, FromBytes(raw), ToWriter(&out), WithAlgorithm(Threaded),
			WithRetry(RetryPolicy{Scrub: true}))
		if err != nil {
			t.Fatalf("sort across a dead spill disk: %v", err)
		}
		defer res.Close()
		if res.Faults.BatchRedos == 0 {
			t.Error("no batch redo recorded after the spill disk died")
		}
		if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
			t.Error("output differs from the fault-free reference")
		}
	})

	t.Run("default", func(t *testing.T) {
		s, raw := sorter(t)
		res, err := s.Sort(ctx, FromBytes(raw), Discard(), WithAlgorithm(Threaded))
		if err == nil {
			res.Close()
			t.Fatal("an unscrubbed sort survived a dead spill disk: nothing was retained to redo it from")
		}
		if !strings.Contains(err.Error(), "run 1:") {
			t.Errorf("err = %v, want it to name the run", err)
		}
		var oe *pdm.OpError
		if !errors.As(err, &oe) || !oe.Spill || oe.Op != "write" {
			t.Errorf("err = %v, want the failed spill write's OpError", err)
		}
		if !errors.Is(err, faultinject.ErrDiskDead) {
			t.Errorf("err = %v, want errors.Is(err, faultinject.ErrDiskDead)", err)
		}
	})
}

// TestChaosCorruptionNeverSilent tears a spill write under the default
// policy, which does not scrub: the torn run reaches the merge, its CRC
// reread fails again, and the sort MUST fail with the CRC sentinel —
// persistent corruption must never flow into a plausible-looking output.
func TestChaosCorruptionNeverSilent(t *testing.T) {
	testutil.CheckGoroutines(t)
	const z = 16
	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := int(2 * bound)
	res, err := s.Sort(chaosCtx(faultinject.ChaosConfig{Seed: 4, TornSpillWrite: 1}),
		Generate(record.Uniform{Seed: 19}, int64(n)), Discard(),
		WithAlgorithm(Threaded))
	if err == nil {
		res.Close()
		t.Fatal("torn spill write under the default policy produced a 'successful' sort")
	}
	if !errors.Is(err, merge.ErrCorrupt) {
		t.Fatalf("err = %v, want errors.Is(err, merge.ErrCorrupt)", err)
	}
}

// failedCall is one disk operation a trip wire failed.
type failedCall struct {
	op    string
	disk  int
	spill bool
	off   int64
	n     int
}

// loggedDisk records every failed operation of the disk under it in failed.
type loggedDisk struct {
	pdm.Disk
	failed *sync.Map // failedCall → true
	disk   int
	spill  bool
}

func (d loggedDisk) log(c failedCall, err error) error {
	if err != nil {
		d.failed.Store(c, true)
	}
	return err
}

func (d loggedDisk) ReadAt(p []byte, off int64) error {
	return d.log(failedCall{"read", d.disk, d.spill, off, len(p)}, d.Disk.ReadAt(p, off))
}

func (d loggedDisk) WriteAt(p []byte, off int64) error {
	return d.log(failedCall{"write", d.disk, d.spill, off, len(p)}, d.Disk.WriteAt(p, off))
}

func (d loggedDisk) Unwrap() pdm.Disk { return d.Disk }

// TestDiskFailureCarriesContext puts a spent faultinject.FaultDisk under
// every disk of the job, so its first disk operation fails permanently: the
// failure must surface promptly and carry the underlying sentinel plus the
// exact operation, disk and extent of a call that failed.
func TestDiskFailureCarriesContext(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	var failed sync.Map
	ctx := pdm.WithInjector(context.Background(), func(d pdm.Disk, idx, _ int, spill bool) pdm.Disk {
		return loggedDisk{&faultinject.FaultDisk{Inner: d}, &failed, idx, spill}
	})
	res, err := s.Sort(ctx, Generate(record.Uniform{Seed: 23}, 1024), nil)
	if err == nil {
		res.Close()
		t.Fatal("sort succeeded with every disk operation failing")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("err = %v, want the injected-fault sentinel preserved", err)
	}
	var oe *pdm.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want OpError operation/disk/extent context", err)
	}
	if _, ok := failed.Load(failedCall{oe.Op, oe.Disk, oe.Spill, oe.Off, oe.Len}); !ok {
		t.Errorf("OpError %+v names no call that failed", oe)
	}
}

// TestChaosSoak is the nightly chaos soak (scripts/chaos_soak.sh runs it
// under -race; it skips unless CHAOS_SOAK_RECORDS is set): a file-backed
// hierarchical sort of CHAOS_SOAK_RECORDS 64-byte records — 8 MiB runs and
// a k-way merge, the scrub armed — under a torn first spill write, a
// bit-flipped spill read and a spill disk that dies permanently mid-write
// must finish byte-identical to the fault-free run of the same input,
// leaving no scratch file behind, and every scripted fault must show in the
// counters. The seed comes from COLSORT_CHAOS_SEED (replay), else from the
// date, so every night draws a new fault pattern; a failure prints it.
func TestChaosSoak(t *testing.T) {
	records, err := strconv.Atoi(os.Getenv("CHAOS_SOAK_RECORDS"))
	if err != nil {
		t.Skip("set CHAOS_SOAK_RECORDS to run the chaos soak")
	}
	seed, err := strconv.ParseUint(os.Getenv("COLSORT_CHAOS_SEED"), 10, 64)
	if err != nil {
		seed, _ = strconv.ParseUint(time.Now().Format("20060102"), 10, 64)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("CHAOS SOAK FAILED (seed %d); replay with: COLSORT_CHAOS_SEED=%d scripts/chaos_soak.sh", seed, seed)
		}
	})

	const z = 64
	dir := t.TempDir()
	scratch := filepath.Join(dir, "scratch")
	testutil.CheckLeaks(t, scratch)
	in := filepath.Join(dir, "input.dat")
	if err := os.WriteFile(in, genRaw(records, z, record.Uniform{Seed: seed}), 0o644); err != nil {
		t.Fatal(err)
	}
	sortInto := func(ctx context.Context, out string) FaultStats {
		t.Helper()
		s, err := New(Config{Procs: 4, MemPerProc: 16384, RecordSize: z, Dir: scratch, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.Sort(ctx, FromFile(in), ToFile(out), WithAlgorithm(Threaded), WithMaxMemory(8<<20),
			WithRetry(RetryPolicy{Scrub: true}))
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(out), err)
		}
		defer res.Close()
		return res.Faults
	}

	// Spill ordinals: run 1 spills to ordinal 1 (torn first write → scrub
	// fails → redo onto 2, whose first merge read is bit-flipped and healed
	// by a CRC reread); run 2 spills to ordinal 3 (dies after 4 MiB of the
	// run → redo onto 4). A run is striped over the machine's D = 4 lanes
	// and the scripted faults sit on lane 0, so the death counts lane 0's
	// quarter of those 4 MiB.
	const lanes = 4
	ref, out := filepath.Join(dir, "ref.dat"), filepath.Join(dir, "out.dat")
	sortInto(context.Background(), ref)
	faults := sortInto(chaosCtx(faultinject.ChaosConfig{Seed: seed,
		TornSpillWrite: 1, FlipSpillRead: 2, DeadSpillDisk: 3, DeadSpillAfter: (4 << 20) / lanes}), out)
	t.Logf("seed %d, %d records: %+v", seed, records, faults)
	if faults.BatchRedos < 2 {
		t.Errorf("BatchRedos = %d, want ≥ 2: the torn write's redo and the dead spill disk's", faults.BatchRedos)
	}
	if faults.CorruptChunks < 2 {
		t.Errorf("CorruptChunks = %d, want ≥ 2: the torn write's scrub failure and the flipped read", faults.CorruptChunks)
	}
	if faults.ChunkRereads < 1 {
		t.Errorf("ChunkRereads = 0, want ≥ 1: the flipped read's reread")
	}

	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("output under chaos differs from the fault-free run")
	}
}
