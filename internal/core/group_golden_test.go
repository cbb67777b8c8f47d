package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"colsort/internal/pdm"
	"colsort/internal/record"
	"colsort/internal/verify"
)

const groupGoldenPath = "testdata/group_counters.golden"

// groupCase is one configuration of the group pass program: the column-owned
// algorithms are group columnsort at g = 1 and M-columnsort and Combined at
// g = P (g == 0 here: the plan comes from NewPlan), Hybrid at 2 ≤ g ≤ P/2.
type groupCase struct {
	alg          Algorithm
	p, g, mem, s int
}

// columnOwned reports whether NewPlan gives alg a group of one.
func columnOwned(alg Algorithm) bool {
	return alg == Threaded || alg == Threaded4 || alg == Subblock
}

// groupCases lists every shape the golden pins. The buffers are the smallest
// the planner accepts for (P, s), found by doubling — for M-columnsort and
// Combined from the in-core sort's own floor M/P = 2P² (which the planner
// waives at s = 1 though the sort does not), for the column-owned algorithms
// from 16 records; the file shows the plan each case ran. New shapes go at the
// END of the list, so the sections before them never move.
func groupCases(t *testing.T) []groupCase {
	var cases []groupCase
	smallest := func(alg Algorithm, p, s int) {
		from, cols := 2*p*p, p*s
		if columnOwned(alg) {
			from, cols = 16, s
		}
		for mem := from; mem <= 1<<12; mem *= 2 {
			if _, err := NewPlan(alg, int64(mem)*int64(cols), p, p, mem, 16); err == nil {
				cases = append(cases, groupCase{alg: alg, p: p, mem: mem, s: s})
				return
			}
		}
		t.Fatalf("%v P=%d s=%d: no buffer up to 4096 records plans", alg, p, s)
	}
	for _, p := range []int{2, 4, 8} {
		for _, s := range []int{1, 2, 4, 8, 16} { // s < P included
			smallest(MColumn, p, s)
		}
	}
	for _, p := range []int{2, 4} {
		for _, s := range []int{4, 16} {
			smallest(Combined, p, s)
		}
	}
	for _, c := range []struct{ p, g, mem, s int }{ // the TestHybridGrid shapes
		{4, 2, 64, 2}, {4, 2, 64, 4}, {8, 2, 64, 4}, {8, 4, 64, 4},
		{8, 2, 128, 8}, {16, 4, 64, 4}, {8, 4, 256, 16},
	} {
		cases = append(cases, groupCase{alg: Hybrid, p: c.p, g: c.g, mem: c.mem, s: c.s})
	}
	// g = 1: a column owned by one processor. One round a pass (s = P) and
	// several; the single column at P = 1; for Subblock both sides of √s = P
	// (√s ≥ P keeps the subblock pass off the network, √s < P sends ⌈P/√s⌉
	// messages a round).
	for _, c := range []struct{ p, s int }{{1, 1}, {1, 4}, {2, 4}, {4, 8}, {8, 8}, {8, 16}} {
		smallest(Threaded, c.p, c.s)
	}
	for _, c := range []struct{ p, s int }{{1, 2}, {2, 4}, {4, 8}, {8, 8}} {
		smallest(Threaded4, c.p, c.s)
	}
	for _, c := range []struct{ p, s int }{{1, 4}, {2, 4}, {2, 16}, {4, 4}, {4, 16}, {8, 16}, {8, 64}} {
		smallest(Subblock, c.p, c.s)
	}
	return cases
}

// plan builds the case's plan (16-byte records throughout).
func (c groupCase) plan(t *testing.T) Plan {
	t.Helper()
	const z = 16
	var pl Plan
	var err error
	switch {
	case c.alg == Hybrid:
		pl, err = NewHybridPlan(int64(c.g)*int64(c.mem)*int64(c.s), c.p, c.p, c.mem, z, c.g)
	case columnOwned(c.alg):
		pl, err = NewPlan(c.alg, int64(c.mem)*int64(c.s), c.p, c.p, c.mem, z)
	default:
		pl, err = NewPlan(c.alg, int64(c.p)*int64(c.mem)*int64(c.s), c.p, c.p, c.mem, z)
	}
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	return pl
}

// run sorts the case's input under a deadline — a protocol deadlock between
// the pipeline stages of the boundary pass fails here instead of hanging —
// and renders the output digest and every per-pass per-processor counter.
func (c groupCase) run(t *testing.T, gen record.Generator) []string {
	t.Helper()
	pl := c.plan(t)
	m := pdm.Machine{P: c.p, D: c.p}
	input, err := pl.NewInput(m, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer input.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := Run(ctx, pl, m, input, Hooks{})
	if err != nil {
		t.Fatalf("%s gen=%s: %v", pl, gen.Name(), err)
	}
	defer res.Output.Close()
	if err := verify.Output(res.Output, record.OfGenerated(gen, pl.N, pl.Z)); err != nil {
		t.Fatalf("%s gen=%s: %v", pl, gen.Name(), err)
	}
	out, err := res.Output.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{
		fmt.Sprintf("== %s gen=%s", pl, gen.Name()),
		fmt.Sprintf("sha256 %x", sha256.Sum256(out.Data)),
	}
	for k, pass := range res.PassCounters {
		for p, cnt := range pass {
			lines = append(lines, fmt.Sprintf("pass %d proc %d %+v", k+1, p, cnt))
		}
	}
	return lines
}

// TestGroupProgramGolden pins every sorting algorithm — the column-owned
// three, M-columnsort, Combined and Hybrid — to the committed golden: output
// bytes and every counter of every processor in every pass. The file is regenerated only
// under COLSORT_UPDATE_GOLDEN=1, at a commit known good, so a change to the
// group pass program proves its identity by passing against a file it did
// not write.
func TestGroupProgramGolden(t *testing.T) {
	var got []string
	for _, c := range groupCases(t) {
		for _, gen := range []record.Generator{record.Uniform{Seed: 18}, record.Dup{Seed: 18, K: 3}} {
			got = append(got, c.run(t, gen)...)
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if os.Getenv("COLSORT_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(groupGoldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(groupGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with COLSORT_UPDATE_GOLDEN=1 at a commit known good)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	name := ""
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if strings.HasPrefix(g, "== ") {
			name = g[3:]
		}
		if g != w {
			t.Fatalf("line %d (%s) differs from %s:\n got  %s\n want %s", i+1, name, groupGoldenPath, g, w)
		}
	}
}
