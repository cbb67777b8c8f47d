package record

import (
	"encoding/binary"
	"math"
)

// Generator deterministically fills record payloads for a workload. All
// generators are seeded and reproducible; the same (seed, index) pair always
// yields the same record, which lets distributed producers generate disjoint
// index ranges independently and lets verification re-derive checksums.
type Generator interface {
	// Gen fills rec (one record) for global record index idx.
	Gen(rec []byte, idx int64)
	// Name identifies the distribution in reports.
	Name() string
}

// rng is SplitMix64: a tiny, high-quality, stateless-per-call PRNG. Keyed by
// (seed, index) it gives independent streams without shared state, which is
// exactly what concurrent record generation needs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash64 exposes the mixer for payload hashing and checksums.
func Hash64(x uint64) uint64 { return splitmix64(x) }

func fillPayload(rec []byte, h uint64) {
	for off := KeyBytes; off < len(rec); off += 8 {
		h = splitmix64(h)
		binary.LittleEndian.PutUint64(rec[off:], h)
	}
}

// Uniform generates uniformly random 64-bit keys.
type Uniform struct{ Seed uint64 }

func (g Uniform) Name() string { return "uniform" }

func (g Uniform) Gen(rec []byte, idx int64) {
	h := splitmix64(g.Seed ^ uint64(idx)*0x9e3779b97f4a7c15)
	PutKey(rec, h)
	fillPayload(rec, h^0xabcdef)
}

// Dup generates keys drawn from only K distinct values, stressing
// duplicate-heavy inputs (the algorithms are oblivious, so behaviour must
// be identical; correctness of tie handling is what this exercises).
type Dup struct {
	Seed uint64
	K    uint64 // number of distinct keys; 0 means 16
}

func (g Dup) Name() string { return "duplicates" }

func (g Dup) Gen(rec []byte, idx int64) {
	k := g.K
	if k == 0 {
		k = 16
	}
	h := splitmix64(g.Seed ^ uint64(idx)*0x9e3779b97f4a7c15)
	PutKey(rec, h%k)
	fillPayload(rec, h^0x1234)
}

// Sorted generates keys already in nondecreasing order — best case for the
// run-aware merge stages.
type Sorted struct{ Seed uint64 }

func (g Sorted) Name() string { return "sorted" }

func (g Sorted) Gen(rec []byte, idx int64) {
	PutKey(rec, uint64(idx))
	fillPayload(rec, splitmix64(g.Seed^uint64(idx)))
}

// Reverse generates keys in strictly decreasing order — the classic
// adversarial case for run detection.
type Reverse struct{ Seed uint64 }

func (g Reverse) Name() string { return "reverse" }

func (g Reverse) Gen(rec []byte, idx int64) {
	PutKey(rec, math.MaxUint64-uint64(idx))
	fillPayload(rec, splitmix64(g.Seed^uint64(idx)))
}

// NearlySorted generates strictly ascending keys: record idx's key is a
// random draw from its own window [idx·Window, (idx+1)·Window), so the windows
// space the keys apart and never reorder them — timestamped log data written
// in order, with gaps. Every key exceeds the one before. For bounded local
// disorder, keys displaced among their neighbours, use Disordered.
type NearlySorted struct {
	Seed   uint64
	Window uint64 // the width of each key's window; 0 means 1024
}

func (g NearlySorted) Name() string { return "nearly-sorted" }

func (g NearlySorted) Gen(rec []byte, idx int64) {
	w := g.Window
	if w == 0 {
		w = 1024
	}
	h := splitmix64(g.Seed ^ uint64(idx)*0x9e3779b97f4a7c15)
	k := uint64(idx)*w + h%w
	PutKey(rec, k)
	fillPayload(rec, h)
}

// NearlyReverse is the descending mirror of NearlySorted: strictly
// descending keys, record idx's MaxUint64 − idx·Window less a random draw
// below Window, modelling a log re-sorted into the opposite order.
// Every key is below the one before; replacement selection forms one
// descending run of it. For bounded local disorder use Disordered.
type NearlyReverse struct {
	Seed   uint64
	Window uint64 // the width of each key's window; 0 means 1024
}

func (g NearlyReverse) Name() string { return "nearly-reverse" }

func (g NearlyReverse) Gen(rec []byte, idx int64) {
	w := g.Window
	if w == 0 {
		w = 1024
	}
	h := splitmix64(g.Seed ^ uint64(idx)*0x9e3779b97f4a7c15)
	k := math.MaxUint64 - uint64(idx)*w - h%w
	PutKey(rec, k)
	fillPayload(rec, h)
}

// Disordered generates a sorted sequence where each record's key is
// displaced by at most K positions (keys overlap across neighbours, unlike
// NearlySorted's disjoint windows), so genuine local inversions occur but
// no record is globally far from home — the k-disordered model of "Run
// Generation Revisited".
type Disordered struct {
	Seed uint64
	K    uint64 // max displacement in positions; 0 means 64
}

func (g Disordered) Name() string { return "k-disordered" }

func (g Disordered) Gen(rec []byte, idx int64) {
	k := g.K
	if k == 0 {
		k = 64
	}
	h := splitmix64(g.Seed ^ uint64(idx)*0x9e3779b97f4a7c15)
	PutKey(rec, uint64(idx)+h%(2*k+1))
	fillPayload(rec, h)
}

// Gaussian approximates a clustered key distribution (sum of uniforms),
// modelling seismic-amplitude-like data where keys bunch around a mean.
type Gaussian struct{ Seed uint64 }

func (g Gaussian) Name() string { return "gaussian" }

func (g Gaussian) Gen(rec []byte, idx int64) {
	h := splitmix64(g.Seed ^ uint64(idx)*0x9e3779b97f4a7c15)
	// Irwin–Hall with 4 terms: sum of four 62-bit uniforms ~ bell-shaped.
	var sum uint64
	x := h
	for i := 0; i < 4; i++ {
		x = splitmix64(x)
		sum += x >> 2
	}
	PutKey(rec, sum)
	fillPayload(rec, h^0x5eed)
}

// Zipf generates a heavily skewed distribution where low key values are
// disproportionately frequent, modelling web-search query logs.
type Zipf struct{ Seed uint64 }

func (g Zipf) Name() string { return "zipf" }

func (g Zipf) Gen(rec []byte, idx int64) {
	h := splitmix64(g.Seed ^ uint64(idx)*0x9e3779b97f4a7c15)
	// Approximate Zipf by taking 2^64 / (1+u mod 2^20): rank-inverse weights.
	u := h%(1<<20) + 1
	PutKey(rec, math.MaxUint64/u)
	fillPayload(rec, h^0x21f)
}

// Fill populates records [lo, hi) of s using g, where the record at
// position i of s has global index base+i.
func Fill(s Slice, g Generator, base int64) {
	n := s.Len()
	for i := 0; i < n; i++ {
		g.Gen(s.Record(i), base+int64(i))
	}
}

// ByName returns a generator by its report name, used by the CLIs.
func ByName(name string, seed uint64) (Generator, bool) {
	switch name {
	case "uniform":
		return Uniform{Seed: seed}, true
	case "duplicates", "dup":
		return Dup{Seed: seed}, true
	case "sorted":
		return Sorted{Seed: seed}, true
	case "reverse":
		return Reverse{Seed: seed}, true
	case "nearly-sorted", "nearly":
		return NearlySorted{Seed: seed}, true
	case "nearly-reverse":
		return NearlyReverse{Seed: seed}, true
	case "k-disordered", "disordered":
		return Disordered{Seed: seed}, true
	case "gaussian":
		return Gaussian{Seed: seed}, true
	case "zipf":
		return Zipf{Seed: seed}, true
	}
	return nil, false
}

// Names lists all generator names accepted by ByName.
func Names() []string {
	return []string{"uniform", "duplicates", "sorted", "reverse", "nearly-sorted", "nearly-reverse", "k-disordered", "gaussian", "zipf"}
}
