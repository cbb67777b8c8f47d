package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"colsort/internal/record"
)

func TestMain(m *testing.M) {
	probeLoads, probeSpins = 1<<10, 1<<12 // the probe's precision is not under test
	os.Exit(m.Run())
}

// spec is BENCHMARK.json as the smoke test reads it.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit string
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload, untraced and traced, at the smoke sizing and
// requires exactly the metrics BENCHMARK.json declares, each once (metrics.set
// refuses a second value) and finite, in the declared unit. It is how tier-1
// notices that colsort's API drifted away from under the benchmark.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	if s.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %v, the program's default is %v", s.RunSeconds, defaultSeconds)
	}
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		for _, pass := range []struct {
			traced bool
			want   []specMetric
		}{{false, s.EndToEnd}, {true, s.PerLayer}} {
			res, err := runWorkload(context.Background(), smokeSizing, name, t.TempDir(), 1, 0, pass.traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, pass.traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, pass.traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(pass.want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, pass.traced, len(res.Metrics), len(pass.want))
			}
			for _, m := range pass.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s is missing", name, pass.traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", name, m.Name, got.Value)
				case !pass.traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want above zero", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCheckSortedRejects feeds the benchmark's own output check the three
// failures it exists to catch.
func TestCheckSortedRejects(t *testing.T) {
	const n = 1000
	recs, want := fillInput(record.Sorted{Seed: 1}, n)
	if err := checkSorted(bytes.NewReader(recs.Data), n, want); err != nil {
		t.Fatalf("sorted input rejected: %v", err)
	}
	swapped := append([]byte(nil), recs.Data...)
	copy(swapped[:recSize], recs.Record(1))
	copy(swapped[recSize:], recs.Record(0))
	other, _ := fillInput(record.Sorted{Seed: 2}, n)
	for name, data := range map[string][]byte{
		"short":     recs.Data[:len(recs.Data)-recSize],
		"long":      append(append([]byte(nil), recs.Data...), recs.Record(n-1)...),
		"disorder":  swapped,
		"different": other.Data,
	} {
		if err := checkSorted(bytes.NewReader(data), n, want); err == nil {
			t.Errorf("%s output accepted", name)
		}
	}
}

// TestCompare checks the direction and the bound of -compare on two reports.
func TestCompare(t *testing.T) {
	mk := func(mbs float64) string {
		rep := report{Workloads: map[string]*workloadReport{}}
		for _, name := range workloadNames {
			wr := &workloadReport{Attempted: 1, EndToEnd: metrics{}}
			for _, m := range readSpec(t).EndToEnd {
				wr.EndToEnd.set(m.Name, m.Unit, 100)
			}
			wr.EndToEnd["sort_mb_s"] = metric{Value: mbs, Unit: unitMBps}
			rep.Workloads[name] = wr
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slower, faster := mk(100), mk(60), mk(160)
	if code := compareReports("", base, base); code != 0 {
		t.Errorf("a report against itself: exit %d", code)
	}
	if code := compareReports("", base, slower); code != 1 {
		t.Errorf("40%% lower throughput: exit %d, want 1", code)
	}
	if code := compareReports("", base, faster); code != 0 {
		t.Errorf("60%% higher throughput: exit %d, want 0", code)
	}
}
