package pdm

import (
	"bytes"
	"errors"
	"testing"
)

// chaosFaultPattern records which of n sequential reads fail or corrupt
// under the given config and seed.
func chaosFaultPattern(cfg ChaosConfig, n int) []bool {
	inner := NewMemDisk()
	clean := make([]byte, 64)
	_ = inner.WriteAt(clean, 0)
	d := NewChaosDisk(inner, cfg, 0, false)
	pattern := make([]bool, n)
	buf := make([]byte, 64)
	for i := range pattern {
		err := d.ReadAt(buf, 0)
		pattern[i] = err != nil || !bytes.Equal(buf, clean)
	}
	return pattern
}

func TestChaosSeededReproducibility(t *testing.T) {
	cfg := ChaosConfig{Seed: 42, PTransient: 0.2, PBitFlip: 0.2}
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

func TestChaosTransientClassification(t *testing.T) {
	d := NewChaosDisk(NewMemDisk(), ChaosConfig{Seed: 1, PTransient: 1}, 0, false)
	err := d.ReadAt(make([]byte, 8), 0)
	if err == nil {
		t.Fatal("p=1 transient injected nothing")
	}
	if !Transient(err) {
		t.Errorf("chaos transient fault not classified transient: %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("chaos fault lost the ErrInjected sentinel: %v", err)
	}
}

func TestChaosScriptedTornSpillWrite(t *testing.T) {
	inner := NewMemDisk()
	// Spill ordinal 3 (1-based): disks 0-based index 2.
	d := NewChaosDisk(inner, ChaosConfig{Seed: 1, TornSpillWrite: 3}, 2, true)
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
	other := NewMemDisk()
	d2 := NewChaosDisk(other, ChaosConfig{Seed: 1, TornSpillWrite: 3}, 0, true)
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
	inner := NewMemDisk()
	clean := bytes.Repeat([]byte{0x55}, 64)
	_ = inner.WriteAt(clean, 0)
	d := NewChaosDisk(inner, ChaosConfig{Seed: 9, FlipSpillRead: 1}, 0, true)
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
	inner := NewMemDisk()
	d := NewChaosDisk(inner, ChaosConfig{Seed: 1, DeadSpillDisk: 1, DeadSpillAfter: 100}, 0, true)
	if err := d.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatalf("write under budget: %v", err)
	}
	err := d.WriteAt(make([]byte, 64), 64)
	if !errors.Is(err, ErrDiskDead) {
		t.Fatalf("err = %v, want ErrDiskDead once traffic exceeds the budget", err)
	}
	if !Permanent(err) || Transient(err) {
		t.Error("disk death must classify permanent")
	}
	if err := d.ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrDiskDead) {
		t.Errorf("read from dead disk: %v", err)
	}
	// Close still releases the backing: scratch must not leak because its
	// disk "failed".
	if err := d.Close(); err != nil {
		t.Errorf("Close after death: %v", err)
	}
}

func TestChaosZeroConfigInjectsNothing(t *testing.T) {
	if (ChaosConfig{}).enabled() {
		t.Fatal("zero ChaosConfig reports enabled")
	}
	var m Machine
	m.P, m.D = 1, 1
	m.Chaos = &ChaosConfig{}
	d := m.wrapFaultLayers(NewMemDisk(), 0, 0, false)
	if _, ok := d.(*ChaosDisk); ok {
		t.Error("disabled chaos config still wrapped the disk")
	}
}
