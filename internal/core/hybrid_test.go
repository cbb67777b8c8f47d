package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/verify"
)

// runHybrid plans and runs hybrid group columnsort end to end.
func runHybrid(t *testing.T, n int64, p, d, mem, z, g int, gen record.Generator) *Result {
	t.Helper()
	pl, err := NewHybridPlan(n, p, d, mem, z, g)
	if err != nil {
		t.Fatalf("hybrid N=%d P=%d mem=%d g=%d: %v", n, p, mem, g, err)
	}
	m := pdm.Machine{P: p, D: d}
	input, err := pl.NewInput(m, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer input.Close()
	res, err := Run(context.Background(), pl, m, input, Hooks{})
	if err != nil {
		t.Fatalf("hybrid %s: %v", pl, err)
	}
	t.Cleanup(func() { res.Output.Close() })
	if err := verify.Output(res.Output, record.OfGenerated(gen, n, z)); err != nil {
		t.Fatalf("hybrid %s gen=%s: %v", pl, gen.Name(), err)
	}
	return res
}

func TestHybridGrid(t *testing.T) {
	cases := []struct {
		p, g, mem, s int
	}{
		{4, 2, 64, 2},
		{4, 2, 64, 4},
		{8, 2, 64, 4},
		{8, 4, 64, 4},
		{8, 2, 128, 8},
		{16, 4, 64, 4},
		{8, 4, 256, 16},
	}
	for _, c := range cases {
		r := int64(c.g) * int64(c.mem)
		n := r * int64(c.s)
		runHybrid(t, n, c.p, c.p, c.mem, 16, c.g, record.Uniform{Seed: uint64(c.p*100 + c.g)})
	}
}

func TestHybridGenerators(t *testing.T) {
	for _, gen := range []record.Generator{
		record.Dup{Seed: 2, K: 3},
		record.Reverse{Seed: 3},
		record.Zipf{Seed: 4},
	} {
		runHybrid(t, 128*4, 8, 8, 64, 16, 2, gen)
	}
}

func TestHybridMatchesThreadedByteForByte(t *testing.T) {
	gen := record.Dup{Seed: 21, K: 5}
	const n, z = 512 * 4, 16
	hy := runHybrid(t, n, 8, 8, 256, z, 2, gen) // r = 512, s = 4
	th := runAlg(t, Threaded, n, 4, 4, 512, z, gen)
	a, err := hy.Output.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := th.Output.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Data, b.Data) {
		t.Fatal("hybrid and threaded outputs differ")
	}
}

func TestHybridIOVolume(t *testing.T) {
	res := runHybrid(t, 128*4, 8, 8, 64, 16, 2, record.Uniform{Seed: 6})
	if len(res.PassCounters) != 3 {
		t.Fatalf("hybrid ran %d passes, want 3", len(res.PassCounters))
	}
	want := res.Plan.N * int64(res.Plan.Z)
	for k := range res.PassCounters {
		tot := countersOf(res, k)
		if tot.DiskReadBytes != want || tot.DiskWriteBytes != want {
			t.Fatalf("pass %d: read %d write %d, want %d each", k+1, tot.DiskReadBytes, tot.DiskWriteBytes, want)
		}
	}
}

// TestHybridCommBetweenEndpoints checks the Section-6 trade-off on real
// runs: for the same N, per-processor sort+scatter network traffic grows
// with g from the threaded end toward the M-columnsort end.
func TestHybridCommBetweenEndpoints(t *testing.T) {
	const z = 16
	// Same N = 4096 on P = 8 throughout: threaded (r=512, s=8),
	// hybrid g=2 (r=1024, s=4), hybrid g=4 (r=2048, s=2).
	th := runAlg(t, Threaded, 4096, 8, 8, 512, z, record.Uniform{Seed: 7})
	h2 := runHybrid(t, 4096, 8, 8, 512, z, 2, record.Uniform{Seed: 7})
	h4 := runHybrid(t, 4096, 8, 8, 512, z, 4, record.Uniform{Seed: 7})
	thNet := th.TotalCounters().NetBytes
	h2Net := h2.TotalCounters().NetBytes
	h4Net := h4.TotalCounters().NetBytes
	if !(thNet < h2Net) {
		t.Fatalf("hybrid g=2 net bytes %d should exceed threaded %d", h2Net, thNet)
	}
	if !(h2Net < h4Net) {
		t.Fatalf("hybrid g=4 net bytes %d should exceed g=2 %d", h4Net, h2Net)
	}
}

func TestHybridPlanValidation(t *testing.T) {
	cases := []struct {
		name            string
		n               int64
		p, d, mem, z, g int
		wantErr         string
	}{
		{"g too small", 512, 8, 8, 64, 16, 1, "group size"},
		{"g too big", 512, 8, 8, 64, 16, 8, "group size"},
		{"g not pow2", 512, 8, 8, 64, 16, 3, "group size"},
		{"groups share s", 128 * 2, 8, 8, 64, 16, 2, "evenly share"},
		{"height", 128 * 32, 8, 8, 64, 16, 2, "height restriction"},
		{"incore", 256, 16, 16, 16, 16, 8, "in-core height"},
		{"bad z", 512, 8, 8, 64, 12, 2, "record"},
	}
	for _, c := range cases {
		_, err := NewHybridPlan(c.n, c.p, c.d, c.mem, c.z, c.g)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
	if _, err := NewPlan(Hybrid, 512, 8, 8, 64, 16); err == nil {
		t.Error("NewPlan should reject Hybrid (needs NewHybridPlan)")
	}
}

// TestHybridPlanRejectsBadGroup: a group size must be a power of two
// strictly between 1 and P — g = 1 and g = P are the threaded and
// M-columnsort plans, and anything else names no grid of groups.
func TestHybridPlanRejectsBadGroup(t *testing.T) {
	const p = 8
	for _, g := range []int{0, -1, 1, 3, p, 2 * p} {
		_, err := NewHybridPlan(512, p, p, 64, 16, g)
		if err == nil {
			t.Errorf("group size %d accepted", g)
			continue
		}
		if !strings.Contains(err.Error(), "group size") {
			t.Errorf("group size %d: error %q does not mention the group size", g, err)
		}
	}
}

// TestHybridPlanRejectsBadMachine: the hybrid plan checks the machine the
// way every plan does — P and M/P powers of two, a record wide enough for
// its key — and accepts the machine `colsort-paper bounds -hybrid` prints.
func TestHybridPlanRejectsBadMachine(t *testing.T) {
	cases := []struct {
		name      string
		p, mem, z int
		wantErr   string
	}{
		{"P not pow2", 3, 1 << 10, 64, "power of 2"},
		{"mem not pow2", 4, 1000, 64, "power of 2"},
		{"record too small", 4, 1 << 10, 4, "record"},
	}
	for _, c := range cases {
		_, err := NewHybridPlan(1<<16, c.p, c.p, c.mem, c.z, 2)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
	if _, err := NewHybridPlan(1<<28, 16, 16, 1<<19, 64, 2); err != nil {
		t.Fatal(err)
	}
}

func TestHybridString(t *testing.T) {
	if Hybrid.String() != "hybrid" {
		t.Fatal("Hybrid.String wrong")
	}
	if Hybrid.Passes() != 3 {
		t.Fatal("hybrid should make 3 passes")
	}
}
