package colsort

// The differential every deletion PR runs: a fixed set of hierarchical sorts
// whose every observable — output bytes, Result.Summary(), TotalCounters(),
// the progress-event stream and each manifest.wal line — is pinned in
// testdata/differential.golden. The golden was generated at the commit
// BEFORE the streaming merge moved onto internal/tournament and is
// regenerated only under COLSORT_UPDATE_GOLDEN=1, so a refactor's identity
// claim is this test passing against a file it did not touch.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"colsort/internal/faultinject"
	"colsort/internal/pdm"
	"colsort/internal/record"
)

const diffGoldenPath = "testdata/differential.golden"

// diffCase is one configuration of the differential.
type diffCase struct {
	name    string
	cfg     Config // Dir is filled in per run when onFiles
	onFiles bool   // file-backed disks, FromFile → ToFile; else memory, FromBytes → ToWriter
	ckpt    bool   // WithCheckpoint: the manifest is part of the outcome
	opts    []Option
	inject  pdm.Injector // the job's fault injector; nil = none
	ks      KeySpec
	gen     record.Generator
}

// diffCases lists the 66 configurations: the storage stacks a hierarchical
// sort can run on (memory, files, seeded chaos, forced scrub, checkpoint) ×
// ascending/descending KeySpec × uniform/nearly-sorted/nearly-reverse input,
// then the asynchronous and modeled stacks — where spilled runs are striped
// — at D ∈ {4, 1}, with and without a checkpoint and a fan-in-2 merge tree,
// plus async+scrub and sync+model, each × both KeySpecs on uniform input.
//
// No configuration is left out for timing-dependent counters: chaos draws
// its faults from one seeded stream per disk in that disk's operation order,
// and every case above reproduced line for line over repeated runs.
func diffCases() []diffCase {
	base := Config{Procs: 4, MemPerProc: 256, RecordSize: 32}
	orders := []struct {
		name string
		ks   KeySpec
	}{{"asc", KeySpec{}}, {"desc", KeySpec{Width: 8, Order: Descending}}}
	gens := []record.Generator{record.Uniform{Seed: 13}, record.NearlySorted{Seed: 13}, record.NearlyReverse{Seed: 13}}

	var cases []diffCase
	add := func(c diffCase, gens ...record.Generator) {
		for _, o := range orders {
			for _, g := range gens {
				c := c
				c.name, c.ks, c.gen = fmt.Sprintf("%s/%s/%s", c.name, o.name, g.Name()), o.ks, g
				cases = append(cases, c)
			}
		}
	}

	chaos := faultinject.Injector(faultinject.ChaosConfig{Seed: 7, PTransient: 0.02, TornSpillWrite: 1, FlipSpillRead: 2, DeadSpillDisk: 3, DeadSpillAfter: 8192})
	scrub := WithRetry(RetryPolicy{Scrub: true})
	add(diffCase{name: "mem", cfg: base}, gens...)
	add(diffCase{name: "file", cfg: base, onFiles: true}, gens...)
	add(diffCase{name: "chaos", cfg: base, onFiles: true, inject: chaos}, gens...)
	add(diffCase{name: "scrub", cfg: base, onFiles: true, opts: []Option{scrub}}, gens...)
	add(diffCase{name: "checkpoint", cfg: base, onFiles: true, ckpt: true}, gens...)

	uniform := gens[0]
	for _, model := range []bool{false, true} {
		for _, disks := range []int{4, 1} {
			for _, ckpt := range []bool{false, true} {
				for _, fanIn := range []int{0, 2} {
					c := diffCase{name: fmt.Sprintf("async/D%d", disks), cfg: base, onFiles: true, ckpt: ckpt}
					c.cfg.Async, c.cfg.Disks, c.cfg.StripeBytes = true, disks, 3000
					if disks < c.cfg.Procs {
						c.cfg.Procs = disks
					}
					if model {
						c.name = "model+" + c.name
						c.cfg.DiskSeekMicros, c.cfg.DiskMBps = 20, 64
					}
					if ckpt {
						c.name += "+checkpoint"
					}
					if fanIn > 0 {
						c.name += fmt.Sprintf("+fanin%d", fanIn)
						c.opts = []Option{WithMergeFanIn(fanIn)}
					}
					add(c, uniform)
				}
			}
		}
	}
	async, model := base, base
	async.Async = true
	model.DiskSeekMicros, model.DiskMBps = 20, 64
	add(diffCase{name: "async+scrub", cfg: async, onFiles: true, opts: []Option{scrub}}, uniform)
	add(diffCase{name: "model/sync", cfg: model, onFiles: true}, uniform)
	return cases
}

// diffCRCs matches a manifest line's CRC sidecar.
var diffCRCs = regexp.MustCompile(`"crcs":\[[0-9,]*\]`)

// run executes the case and renders everything it reports as golden lines.
func (c diffCase) run(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	cfg := c.cfg
	if c.onFiles {
		cfg.Dir = filepath.Join(dir, "scratch")
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Above the bound by a count no power of two divides.
	raw := genRaw(int(7*s.MaxRecords(Threaded))+321, cfg.RecordSize, c.gen)

	var src Source = FromBytes(raw)
	var out bytes.Buffer
	var dst Sink = ToWriter(&out)
	outPath := filepath.Join(dir, "out.dat")
	if c.onFiles {
		inPath := filepath.Join(dir, "in.dat")
		if err := os.WriteFile(inPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		src, dst = FromFile(inPath), ToFile(outPath)
	}

	// The manifest is retired on success, so it is read at every merge event:
	// the last snapshot holds every line but the closing "done".
	ckptDir := filepath.Join(dir, "ckpt")
	var wal []byte
	events, stream := 0, sha256.New()
	opts := append([]Option{WithAlgorithm(Threaded), WithKeySpec(c.ks), WithProgress(func(ev Progress) {
		events++
		line, _ := json.Marshal(ev)
		stream.Write(line)
		if c.ckpt && ev.MergedRecords > 0 {
			wal, _ = os.ReadFile(filepath.Join(ckptDir, manifestName))
		}
	})}, c.opts...)
	if c.ckpt {
		opts = append(opts, WithCheckpoint(ckptDir))
	}
	res, err := s.Sort(pdm.WithInjector(context.Background(), c.inject), src, dst, opts...)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	defer res.Close()
	if res.Merge == nil {
		t.Fatalf("%s: not a hierarchical sort", c.name)
	}

	sorted := out.Bytes()
	if c.onFiles {
		if sorted, err = os.ReadFile(outPath); err != nil {
			t.Fatal(err)
		}
	}
	summary, _ := json.Marshal(res.Summary())
	counters, _ := json.Marshal(res.TotalCounters())
	lines := []string{
		"== " + c.name,
		fmt.Sprintf("sha256 %x", sha256.Sum256(sorted)),
		fmt.Sprintf("summary %s", summary),
		fmt.Sprintf("counters %s", counters),
		fmt.Sprintf("events %d sha256 %x", events, stream.Sum(nil)),
	}
	if c.ckpt && len(wal) == 0 {
		t.Fatalf("%s: checkpointed job left no manifest to read", c.name)
	}
	// A manifest line is kept whole but for what names this process or this
	// machine: the checkpoint directory, the process-wide file counter, and
	// the CRC sidecar (thousands of integers), folded to its length and digest.
	wal = bytes.ReplaceAll(wal, []byte(ckptDir), []byte("$CKPT"))
	wal = generation.ReplaceAll(wal, []byte("-g#.dat"))
	wal = diffCRCs.ReplaceAllFunc(wal, func(m []byte) []byte {
		return []byte(fmt.Sprintf(`"crcs":"%d×crc32c sha256 %x"`, bytes.Count(m, []byte(","))+1, sha256.Sum256(m)))
	})
	for _, l := range strings.Split(strings.TrimSuffix(string(wal), "\n"), "\n") {
		if l != "" {
			lines = append(lines, "wal "+l)
		}
	}
	return lines
}

// TestDifferentialGolden runs every configuration and compares it, line for
// line, against the committed golden.
func TestDifferentialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("66 hierarchical sorts")
	}
	cases := diffCases()
	if len(cases) != 66 {
		t.Fatalf("%d configurations, want 66", len(cases))
	}
	var got []string
	for _, c := range cases {
		got = append(got, c.run(t)...)
	}
	text := strings.Join(got, "\n") + "\n"
	if os.Getenv("COLSORT_UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(diffGoldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(diffGoldenPath)
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
			t.Fatalf("line %d (%s) differs from %s:\n got  %s\n want %s", i+1, name, diffGoldenPath, g, w)
		}
	}
}
