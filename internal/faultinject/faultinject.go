// Package faultinject is the seeded disk-fault model the fault-tolerance
// layers are tested against. Only tests import it: the product's one seam is
// pdm.Injector, which a test puts on a Sort's context with pdm.WithInjector —
//
//	ctx = pdm.WithInjector(ctx, faultinject.Injector(faultinject.ChaosConfig{Seed: 7, PBitFlip: 0.01}))
//
// — and every disk of that job is built through it, between the service-time
// model and the context layer that names each failure. FaultDisk, the
// byte-budget trip wire, wraps a disk directly.
package faultinject

import (
	"errors"
	"fmt"
	"sync"

	"colsort/internal/pdm"
)

// ChaosDisk is the seeded fault-injection harness the fault-tolerance
// layers are tested against — FaultDisk's byte-budget trip wire grown into
// a storage-failure model, each fault one a product layer heals:
//
//   - silent BIT-FLIP corruption of read data (bit rot / in-flight
//     corruption: no error is reported — only the CRC frames of the merge
//     layer can catch it, and a reread heals it);
//   - silent TORN writes (a crash mid-write: only a prefix persists, no
//     error — caught by the spill scrub's CRC readback);
//   - scripted PERMANENT death of a chosen spill disk after a byte budget
//     (batch-level recovery must redo the run, or the job fails).
//
// All probabilistic draws come from one SplitMix64 stream seeded from
// (Seed, disk identity), so a fault pattern is reproducible for a given
// seed and per-disk operation sequence; tests and the nightly soak print
// the seed on failure for replay (COLSORT_CHAOS_SEED).
type ChaosDisk struct {
	inner pdm.Disk
	cfg   ChaosConfig
	disk  int
	spill bool

	mu     sync.Mutex
	rng    uint64
	wrote  int64 // write traffic seen, for the scripted spill death
	writes int64 // write ops seen, for the scripted torn write
	reads  int64 // read ops seen, for the scripted read bit flip
	dead   bool
}

// ChaosConfig configures one machine's fault injection. The zero value
// injects nothing. The same Seed over the same workload reproduces the same
// fault pattern (the chaos soak prints the seed of a failing run so it can
// be replayed via COLSORT_CHAOS_SEED).
type ChaosConfig struct {
	// Seed drives every probabilistic draw; the same seed over the same
	// per-disk operation sequence reproduces the same fault pattern.
	Seed uint64

	// PBitFlip is the per-read probability of silently flipping one bit of
	// the returned data (the read succeeds; only integrity checks notice).
	PBitFlip float64
	// PTorn is the per-write probability of a silent torn write: only a
	// prefix of the buffer reaches the disk and no error is reported.
	PTorn float64

	// Scripted faults, keyed by 1-based spill-disk ordinal (0 disables) —
	// deterministic triggers for the recovery paths that probabilities
	// alone cannot target precisely.
	//
	// TornSpillWrite tears the first write of that spill disk (caught by the
	// post-spill scrub, driving a batch redo).
	TornSpillWrite int
	// FlipSpillRead silently flips one bit of the first read of that spill
	// disk — the deterministic trigger for a CRC detection healed by an
	// invalidate-and-reread (the flip is transient: the disk's bytes are
	// intact, so the reread returns clean data).
	FlipSpillRead int
	// DeadSpillDisk permanently fails that spill disk once its write
	// traffic reaches DeadSpillAfter bytes (driving a batch redo onto a
	// fresh disk).
	DeadSpillDisk  int
	DeadSpillAfter int64
}

// Injector returns the machine seam's view of c: every disk it is handed
// gets a ChaosDisk over the configuration of its lane, and a lane that can
// inject nothing gets no layer at all.
func Injector(c ChaosConfig) pdm.Injector {
	return func(d pdm.Disk, idx, lane int, spill bool) pdm.Disk {
		if l := c.forLane(lane); l.enabled() {
			return NewChaosDisk(d, l, idx, spill)
		}
		return d
	}
}

// enabled reports whether the configuration can inject anything.
func (c ChaosConfig) enabled() bool {
	return c.PBitFlip > 0 || c.PTorn > 0 ||
		c.TornSpillWrite > 0 || c.FlipSpillRead > 0 || c.DeadSpillDisk > 0
}

// forLane returns the configuration of lane l of a striped spill disk. Lane
// 0 is the disk's own: a run's first stripe, so the scripted triggers — "the
// first write of that spill disk", its first DeadSpillAfter bytes — keep
// their meaning there, and fire once per spill rather than once per lane.
// The other lanes inject the probabilistic faults only, each from a stream
// of its own.
func (c ChaosConfig) forLane(l int) ChaosConfig {
	if l > 0 {
		c.Seed += uint64(l) * 0x9e3779b97f4a7c15
		c.TornSpillWrite, c.FlipSpillRead, c.DeadSpillDisk = 0, 0, 0
	}
	return c
}

// ErrDiskDead is the permanent failure of a chaos-killed disk.
var ErrDiskDead = errors.New("faultinject: disk failed permanently")

// NewChaosDisk wraps inner with the fault model for disk index idx (spill
// ordinal when spill).
func NewChaosDisk(inner pdm.Disk, cfg ChaosConfig, idx int, spill bool) *ChaosDisk {
	seed := cfg.Seed ^ (uint64(idx+1) << 1)
	if spill {
		seed ^= 0xdead << 40
	}
	// One warm-up step decorrelates nearby disk indices.
	return &ChaosDisk{inner: inner, cfg: cfg, disk: idx, spill: spill, rng: splitmix64(&seed)}
}

// draw returns a uniform float64 in [0, 1).
func (d *ChaosDisk) draw() float64 {
	return float64(splitmix64(&d.rng)>>11) / float64(1<<53)
}

func (d *ChaosDisk) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	if d.dead {
		d.mu.Unlock()
		return ErrDiskDead
	}
	d.reads++
	flip := int64(-1)
	if len(p) > 0 {
		if d.spill && d.cfg.FlipSpillRead == d.disk+1 && d.reads == 1 {
			flip = int64(splitmix64(&d.rng) % uint64(len(p)*8))
		} else if d.cfg.PBitFlip > 0 && d.draw() < d.cfg.PBitFlip {
			flip = int64(splitmix64(&d.rng) % uint64(len(p)*8))
		}
	}
	d.mu.Unlock()
	if err := d.inner.ReadAt(p, off); err != nil {
		return err
	}
	if flip >= 0 {
		p[flip/8] ^= 1 << (flip % 8)
	}
	return nil
}

func (d *ChaosDisk) WriteAt(p []byte, off int64) error {
	d.mu.Lock()
	if d.dead {
		d.mu.Unlock()
		return ErrDiskDead
	}
	d.writes++
	d.wrote += int64(len(p))
	if d.spill && d.cfg.DeadSpillDisk == d.disk+1 && d.wrote >= d.cfg.DeadSpillAfter {
		d.dead = true
		d.mu.Unlock()
		return fmt.Errorf("chaos: spill disk %d: %w", d.disk, ErrDiskDead)
	}
	torn := d.spill && d.cfg.TornSpillWrite == d.disk+1 && d.writes == 1
	if !torn && d.cfg.PTorn > 0 && d.draw() < d.cfg.PTorn {
		torn = true
	}
	d.mu.Unlock()
	if torn && len(p) > 1 {
		// A torn write persists only a prefix and reports success — the
		// crash-consistency failure CRC framing exists to catch.
		return d.inner.WriteAt(p[:len(p)/2], off)
	}
	return d.inner.WriteAt(p, off)
}

// Unwrap returns the disk under the fault model (see pdm.DiskFile).
func (d *ChaosDisk) Unwrap() pdm.Disk { return d.inner }

// Close always releases the wrapped disk, even after permanent death —
// scratch space must not leak because its disk "failed".
func (d *ChaosDisk) Close() error { return d.inner.Close() }

// FaultDisk wraps a Disk and fails every operation after a byte budget is
// exhausted, for failure-injection tests.
type FaultDisk struct {
	Inner  pdm.Disk
	Budget int64 // bytes of traffic allowed before failures begin
	used   int64
}

// ErrInjected is the failure returned by an exhausted FaultDisk.
var ErrInjected = errors.New("faultinject: injected disk fault")

func (d *FaultDisk) ReadAt(p []byte, off int64) error {
	if d.used += int64(len(p)); d.used > d.Budget {
		return ErrInjected
	}
	return d.Inner.ReadAt(p, off)
}

func (d *FaultDisk) WriteAt(p []byte, off int64) error {
	if d.used += int64(len(p)); d.used > d.Budget {
		return ErrInjected
	}
	return d.Inner.WriteAt(p, off)
}

// Unwrap returns the disk under the trip wire (see pdm.DiskFile).
func (d *FaultDisk) Unwrap() pdm.Disk { return d.Inner }

func (d *FaultDisk) Close() error { return d.Inner.Close() }

// splitmix64 advances the state and returns the next value of the SplitMix64
// generator, the cheap seeded PRNG of every fault draw.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
