package pdm_test

// The seeded fault model (internal/faultinject) over pdm's disks, and the
// machine seam it enters by. An external test package: faultinject imports
// pdm, so pdm's own tests cannot import it.

import (
	"bytes"
	"errors"
	"testing"

	"colsort/internal/faultinject"
	"colsort/internal/pdm"
)

// chaosFaultPattern records which of n sequential reads fail or corrupt
// under the given config and seed.
func chaosFaultPattern(cfg faultinject.ChaosConfig, n int) []bool {
	inner := pdm.NewMemDisk()
	clean := make([]byte, 64)
	_ = inner.WriteAt(clean, 0)
	d := faultinject.NewChaosDisk(inner, cfg, 0, false)
	pattern := make([]bool, n)
	buf := make([]byte, 64)
	for i := range pattern {
		err := d.ReadAt(buf, 0)
		pattern[i] = err != nil || !bytes.Equal(buf, clean)
	}
	return pattern
}

func TestChaosSeededReproducibility(t *testing.T) {
	cfg := faultinject.ChaosConfig{Seed: 42, PBitFlip: 0.2}
	a := chaosFaultPattern(cfg, 200)
	b := chaosFaultPattern(cfg, 200)
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault pattern diverged at op %d under one seed", i)
		}
		if a[i] {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no faults injected at p=0.2 over 200 ops")
	}
	cfg.Seed = 43
	c := chaosFaultPattern(cfg, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault patterns")
	}
}

func TestChaosScriptedTornSpillWrite(t *testing.T) {
	inner := pdm.NewMemDisk()
	// Spill ordinal 3 (1-based): disks 0-based index 2.
	d := faultinject.NewChaosDisk(inner, faultinject.ChaosConfig{Seed: 1, TornSpillWrite: 3}, 2, true)
	payload := bytes.Repeat([]byte{0xAB}, 64)
	if err := d.WriteAt(payload, 0); err != nil {
		t.Fatalf("torn write must report success: %v", err)
	}
	got := make([]byte, 64)
	if err := inner.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:32], payload[:32]) {
		t.Error("torn write lost its persisted prefix")
	}
	if bytes.Equal(got[32:], payload[32:]) {
		t.Error("scripted torn write persisted the whole buffer")
	}
	// Only the FIRST write tears.
	if err := d.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := inner.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("second write was torn too")
	}
	// A different spill ordinal is untouched.
	other := pdm.NewMemDisk()
	d2 := faultinject.NewChaosDisk(other, faultinject.ChaosConfig{Seed: 1, TornSpillWrite: 3}, 0, true)
	if err := d2.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := other.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("torn write hit the wrong spill ordinal")
	}
}

func TestChaosScriptedFlipSpillRead(t *testing.T) {
	inner := pdm.NewMemDisk()
	clean := bytes.Repeat([]byte{0x55}, 64)
	_ = inner.WriteAt(clean, 0)
	d := faultinject.NewChaosDisk(inner, faultinject.ChaosConfig{Seed: 9, FlipSpillRead: 1}, 0, true)
	got := make([]byte, 64)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatalf("flip read must report success: %v", err)
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^clean[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Errorf("first read flipped %d bits, want exactly 1", diff)
	}
	// The flip is transient: the reread returns clean bytes.
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clean) {
		t.Error("second read still corrupt; the disk's bytes should be intact")
	}
}

func TestChaosScriptedDeadSpillDisk(t *testing.T) {
	inner := pdm.NewMemDisk()
	d := faultinject.NewChaosDisk(inner, faultinject.ChaosConfig{Seed: 1, DeadSpillDisk: 1, DeadSpillAfter: 100}, 0, true)
	if err := d.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatalf("write under budget: %v", err)
	}
	err := d.WriteAt(make([]byte, 64), 64)
	if !errors.Is(err, faultinject.ErrDiskDead) {
		t.Fatalf("err = %v, want ErrDiskDead once traffic exceeds the budget", err)
	}
	if err := d.ReadAt(make([]byte, 8), 0); !errors.Is(err, faultinject.ErrDiskDead) {
		t.Errorf("read from dead disk: %v", err)
	}
	// Close still releases the backing: scratch must not leak because its
	// disk "failed".
	if err := d.Close(); err != nil {
		t.Errorf("Close after death: %v", err)
	}
}

// TestChaosZeroConfigInjectsNothing: a machine whose injector can inject
// nothing builds its disks with no fault layer at all.
func TestChaosZeroConfigInjectsNothing(t *testing.T) {
	inner := pdm.NewMemDisk()
	if d := faultinject.Injector(faultinject.ChaosConfig{})(inner, 0, 0, true); d != pdm.Disk(inner) {
		t.Fatalf("zero ChaosConfig wrapped the disk in %T", d)
	}
	m := pdm.Machine{P: 1, D: 1, Inject: faultinject.Injector(faultinject.ChaosConfig{})}
	if d := m.WrapSpillDisk(pdm.NewMemDisk(), 0); d == nil {
		t.Fatal("no spill disk")
	} else if _, ok := d.(*faultinject.ChaosDisk); ok {
		t.Error("disabled chaos config still wrapped the disk")
	}
}

// TestInjectedLayerReachesFile: DiskFile walks through an injected layer
// (and the machine's own) to the FileDisk under it, so SyncDisk and the
// keep/retire paths still reach the file of a job under fault injection.
func TestInjectedLayerReachesFile(t *testing.T) {
	fd, err := pdm.FileBackend{Dir: t.TempDir()}.NewDisk(0)
	if err != nil {
		t.Fatal(err)
	}
	m := pdm.Machine{P: 1, D: 2, Async: &pdm.AsyncConfig{},
		Inject: faultinject.Injector(faultinject.ChaosConfig{Seed: 1, PBitFlip: 0.5})}
	d := m.WrapSpillDisk(fd, 0)
	defer d.Close()
	if got := pdm.DiskFile(d); got != fd {
		t.Fatalf("DiskFile = %v, want the backing %v", got, fd)
	}
	if got := pdm.DiskFile(&faultinject.FaultDisk{Inner: fd, Budget: 1}); got != fd {
		t.Fatalf("DiskFile through a FaultDisk = %v, want the backing %v", got, fd)
	}
	if err := pdm.SyncDisk(d); err != nil {
		t.Fatal(err)
	}
}

func TestFaultDisk(t *testing.T) {
	d := &faultinject.FaultDisk{Inner: pdm.NewMemDisk(), Budget: 10}
	if err := d.WriteAt(make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(make([]byte, 8), 8); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if err := d.ReadAt(make([]byte, 1), 0); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatal("reads should fail after budget exhaustion")
	}
}

func TestFaultDiskPassthrough(t *testing.T) {
	inner := pdm.NewMemDisk()
	d := &faultinject.FaultDisk{Inner: inner, Budget: 100}
	if err := d.WriteAt([]byte("xyz"), 5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := inner.ReadAt(got, 0); err != nil || string(got) != "\x00\x00\x00\x00\x00xyz" {
		t.Fatalf("inner disk holds %q (%v), want the write passed through", got, err)
	}
	// Exactly exhausting the budget still succeeds; the next byte fails.
	if err := d.WriteAt(make([]byte, 97), 8); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(make([]byte, 1), 0); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatal("budget boundary not enforced")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncDiskWriteErrorPropagation(t *testing.T) {
	// The fault budget admits the first write only; the second fails in the
	// background and must surface on the next operation, on Flush, and on
	// Close.
	d := pdm.NewAsyncDisk(&faultinject.FaultDisk{Inner: pdm.NewMemDisk(), Budget: 8}, pdm.AsyncConfig{})
	if err := d.WriteAt(make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt(make([]byte, 8), 8); err != nil && !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("queued write failed with unexpected error %v", err)
	}
	if err := d.Flush(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Flush = %v, want injected fault", err)
	}
	if err := d.WriteAt(make([]byte, 8), 16); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("WriteAt after fault = %v, want latched error", err)
	}
	if err := d.ReadAt(make([]byte, 8), 0); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("ReadAt after fault = %v, want latched error", err)
	}
	if err := d.Close(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Close = %v, want injected fault", err)
	}
}
