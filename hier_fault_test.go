package colsort

// Fault-tolerance tests of the storage stack (DESIGN.md §9): transient
// faults healed by retry, CRC-framed spill runs, batch-level recovery, and
// the seeded chaos harness driving them.
//
// The acceptance bar (ISSUE 6): a file-backed sort ≥3× the single-run bound
// completes byte-identical to a fault-free run under seeded chaos combining
// transient faults, at least one corrupted spill chunk, and one permanently
// failed spill disk — with the retry/redo activity visible in the counters.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"colsort/internal/merge"
	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/testutil"
)

// chaosSorter builds a file-backed async sorter under dir/scratch, for
// jobs run WithChaos.
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

// TestChaosAcceptance is the headline run: a file-backed input >3× the
// single-run bound sorted under seeded chaos that injects probabilistic
// transient faults, tears the first spill disk's first write (persistent
// corruption, caught by the post-spill scrub), flips a bit on a later spill
// disk's first read (transient corruption, healed by a CRC reread at merge
// time), and permanently kills one spill disk mid-write. The output must be
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
	// sit on a spill's first lane, the transient draws run per lane — the
	// seed is one under which the ~200 operations of this small sort draw at
	// least one.
	s := chaosSorter(t, dir, z)
	res, err := s.Sort(context.Background(), FromFile(in), ToFile(out),
		WithAlgorithm(Threaded), WithChaos(&ChaosConfig{
			Seed:           uint64(2),
			PTransient:     0.01,
			TornSpillWrite: 1,
			DeadSpillDisk:  3,
			DeadSpillAfter: 16 << 10,
			FlipSpillRead:  4,
		}))
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
	if f.DiskRetries == 0 {
		t.Error("no transient faults retried at p=0.01")
	}
	if f.DiskGiveUps != 0 {
		t.Errorf("%d transient faults exhausted the retry budget", f.DiskGiveUps)
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

	// The fault activity folds into the counters report.
	tot := res.TotalCounters()
	if tot.DiskRetries != f.DiskRetries || tot.BatchRedos != f.BatchRedos ||
		tot.CorruptChunks != f.CorruptChunks || tot.ChunkRereads != f.ChunkRereads {
		t.Errorf("TotalCounters fault fields %+v do not match Result.Faults %+v", tot, f)
	}
}

// TestChaosTransientsHealMidMerge runs probabilistic transient faults only
// — across run formation AND the merge's spill reads — and requires a
// clean, byte-identical finish with retries recorded and nothing leaked.
func TestChaosTransientsHealMidMerge(t *testing.T) {
	const z = 32
	dir := t.TempDir()
	testutil.CheckLeaks(t, filepath.Join(dir, "scratch"))
	s := chaosSorter(t, dir, z)
	bound := s.MaxRecords(Threaded)
	n := int(3 * bound)
	raw := genRaw(n, z, record.Zipf{Seed: 13})
	var out bytes.Buffer
	res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
		WithAlgorithm(Threaded), WithChaos(&ChaosConfig{Seed: 2, PTransient: 0.01}))
	if err != nil {
		t.Fatalf("sort under transient chaos: %v", err)
	}
	defer res.Close()
	if res.Faults.DiskRetries == 0 {
		t.Error("no retries recorded under p=0.01 transient faults")
	}
	if res.Faults.DiskGiveUps != 0 {
		t.Errorf("%d gave-ups", res.Faults.DiskGiveUps)
	}
	if !bytes.Equal(out.Bytes(), refSortBytes(t, raw, z, KeySpec{})) {
		t.Error("output differs from the fault-free reference")
	}
}

// TestChaosBatchRedoAfterDeadSpillDisk kills the first spill disk almost
// immediately: the batch must be re-spilled onto a fresh disk and the sort
// must complete correctly, reporting the redo.
func TestChaosBatchRedoAfterDeadSpillDisk(t *testing.T) {
	testutil.CheckGoroutines(t)
	const z = 16
	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := int(2 * bound)
	raw := genRaw(n, z, record.Uniform{Seed: 17})
	var out bytes.Buffer
	res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
		WithAlgorithm(Threaded), WithChaos(&ChaosConfig{Seed: 3, DeadSpillDisk: 1, DeadSpillAfter: 1 << 10}))
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
}

// TestChaosCorruptionNeverSilent disables batch redo and tears a spill
// write: the sort MUST fail with the CRC sentinel — persistent corruption
// must never flow into a plausible-looking output.
func TestChaosCorruptionNeverSilent(t *testing.T) {
	testutil.CheckGoroutines(t)
	const z = 16
	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: z})
	if err != nil {
		t.Fatal(err)
	}
	bound := s.MaxRecords(Threaded)
	n := int(2 * bound)
	res, err := s.Sort(context.Background(),
		Generate(record.Uniform{Seed: 19}, int64(n)), Discard(),
		WithAlgorithm(Threaded),
		WithRetry(RetryPolicy{RedoBudget: -1}),
		WithChaos(&ChaosConfig{Seed: 4, TornSpillWrite: 1}))
	if err == nil {
		res.Close()
		t.Fatal("torn spill write with redo disabled produced a 'successful' sort")
	}
	if !errors.Is(err, merge.ErrCorrupt) {
		t.Fatalf("err = %v, want errors.Is(err, merge.ErrCorrupt)", err)
	}
}

// TestRetryGiveUpCarriesContext drowns every disk operation in transient
// faults with a single-attempt policy: the failure must surface promptly
// and carry the exact operation/disk/extent context plus the underlying
// sentinel.
func TestRetryGiveUpCarriesContext(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, err := New(Config{Procs: 2, MemPerProc: 256, RecordSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Sort(context.Background(),
		Generate(record.Uniform{Seed: 23}, 1024), nil,
		WithRetry(RetryPolicy{MaxAttempts: 1, RedoBudget: -1}),
		WithChaos(&ChaosConfig{Seed: 5, PTransient: 1}))
	if err == nil {
		res.Close()
		t.Fatal("sort succeeded with every disk operation failing")
	}
	if !errors.Is(err, pdm.ErrInjected) {
		t.Errorf("err = %v, want the injected-fault sentinel preserved", err)
	}
	var oe *pdm.OpError
	if !errors.As(err, &oe) {
		t.Errorf("err = %v, want OpError operation/disk/extent context", err)
	}
}
