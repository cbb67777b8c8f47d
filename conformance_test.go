package colsort

// Property-based randomized conformance suite: for pseudo-random draws of
// record count (below the single-run bound, exactly at it, and 2–5× above
// it), record size, key spec and algorithm, the output of Sorter.Sort must
// be BYTE-IDENTICAL to a reference sort.Slice of the same input — both
// in-memory and file-backed. The reference order is bytes.Compare over
// codec-normalized records (refSortBytes), which is exactly the engine's
// documented total order, so any divergence in any layer (ingest, padding,
// engine, runs, merge, decode, egress) fails the comparison.
//
// The draws are deterministic per test run (seeded PCG) so failures
// reproduce; set COLSORT_CONFORMANCE_SEED to re-roll or pin a seed.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"testing"

	"colsort/internal/record"
	"colsort/internal/testutil"
)

// conformanceCase is one drawn configuration.
type conformanceCase struct {
	alg    Algorithm
	z      int
	ks     KeySpec
	n      int64
	regime string // "below" | "at" | "above"
	file   bool   // file-backed scratch disks
	slot   string // last token of the case id; see drawCase
	gen    record.Generator
}

func drawCase(rng *rand.Rand, s *Sorter, alg Algorithm, z int) conformanceCase {
	c := conformanceCase{alg: alg, z: z}
	bound := s.MaxRecords(alg)
	switch rng.IntN(3) {
	case 0:
		c.regime = "below"
		c.n = 1 + rng.Int64N(bound-1) // strictly below: n == bound is the "at" regime
	case 1:
		c.regime = "at"
		c.n = bound
	default:
		c.regime = "above"
		// 2–5× the bound, with a random non-power-of-two tail.
		c.n = bound*(2+rng.Int64N(4)) + rng.Int64N(bound)
	}
	// A random valid key field: any offset, width 1..16, either order.
	w := 1 + rng.IntN(16)
	if w > z {
		w = z
	}
	c.ks = KeySpec{Offset: rng.IntN(z - w + 1), Width: w}
	if rng.IntN(2) == 1 {
		c.ks.Order = Descending
	}
	c.file = rng.IntN(4) == 0 // file-backed is slower: sample it
	// This draw once chose between two run-formation modes and named the
	// case after the one drawn. It still happens, and still renders the
	// same two tokens, only so that the default seed's twenty cases keep
	// the draws that follow it and the ids the tier-1 floor list pins; it
	// selects nothing.
	c.slot = [2]string{"replacement-select", "fixed-batch"}[rng.IntN(2)]
	gens := []record.Generator{
		record.Uniform{Seed: rng.Uint64()},
		record.Dup{Seed: rng.Uint64()},
		record.Dup{Seed: rng.Uint64(), K: 2}, // heavy duplication: long tied runs
		record.NearlySorted{Seed: rng.Uint64(), Window: 64},
		record.NearlyReverse{Seed: rng.Uint64(), Window: 64},
		record.Disordered{Seed: rng.Uint64(), K: 32},
		record.Reverse{Seed: rng.Uint64()},
	}
	c.gen = gens[rng.IntN(len(gens))]
	return c
}

func TestSortConformance(t *testing.T) {
	testutil.CheckGoroutines(t)
	seed := uint64(0xC01A0_4)
	if env := os.Getenv("COLSORT_CONFORMANCE_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 0, 64)
		if err != nil {
			t.Fatalf("COLSORT_CONFORMANCE_SEED=%q: %v", env, err)
		}
		seed = v
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	t.Logf("conformance seed %#x", seed)

	// Small cluster + buffer so the single-run bound is a few thousand
	// records and "5× above" stays test-sized.
	const p, mem = 4, 256
	algs := []Algorithm{Threaded, Threaded4, Subblock, MColumn}
	cases := 0
	sawAbove := false
	for i := 0; i < 20; i++ {
		alg := algs[rng.IntN(len(algs))]
		z := []int{16, 32, 64}[rng.IntN(3)]
		probe, err := New(Config{Procs: p, MemPerProc: mem, RecordSize: z})
		if err != nil {
			t.Fatal(err)
		}
		c := drawCase(rng, probe, alg, z)
		if c.regime == "above" {
			sawAbove = true
		}
		name := fmt.Sprintf("%02d-%v-z%d-%s-%v-%v", i, c.alg, c.z, c.regime, c.ks.Order, c.slot)
		if c.file {
			name += "-file"
		}
		cases++
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Procs: p, MemPerProc: mem, RecordSize: c.z}
			if c.file {
				cfg.Dir = t.TempDir()
				cfg.Async = true
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			raw := genRaw(int(c.n), c.z, c.gen)
			var out bytes.Buffer
			res, err := s.Sort(context.Background(), FromBytes(raw), ToWriter(&out),
				WithAlgorithm(c.alg), WithKeySpec(c.ks))
			if err != nil {
				t.Fatalf("%+v: %v", c, err)
			}
			defer res.Close()
			if res.RealRecords() != c.n {
				t.Errorf("RealRecords = %d, want %d", res.RealRecords(), c.n)
			}
			if c.regime == "above" && res.Merge == nil {
				t.Errorf("above-bound case did not take the hierarchical path")
			}
			want := refSortBytes(t, raw, c.z, c.ks)
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output of %+v is not byte-identical to the reference sort", c)
			}
		})
	}
	if cases == 0 || !sawAbove {
		t.Fatalf("degenerate draw: %d cases, above-bound drawn: %v (re-roll the seed)", cases, sawAbove)
	}
}
