package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// report is the full benchmark's output: every workload's end-to-end metrics
// with tracing off, then its per-layer metrics from the traced pass.
type report struct {
	Env       environment                `json:"env"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	EndToEnd  metrics `json:"end_to_end"`
	Layers    metrics `json:"layers"`
}

// runAll is the one command: every workload with tracing off, each run in a
// child process of this binary so that its memory is its own, then the traced
// pass of each; every metric printed by name with its unit. With runs above 1
// each pass is made that many times, on consecutive seeds, and a metric is the
// median of its values — on a shared host, what it takes for two reports of
// one commit to agree. It exits non-zero when any operation failed or any
// output was wrong.
func runAll(ctx context.Context, scratch string, seed uint64, seconds float64, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The children's scratch is this process's to remove: a child that is
	// killed cannot remove its own.
	scratch, err = os.MkdirTemp(scratch, "all-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	rep := report{Env: readEnvironment(scratch), Seed: seed, Seconds: seconds, Runs: runs,
		Workloads: map[string]*workloadReport{}}
	fmt.Printf("scratch_fs=%s nproc=%d GOMAXPROCS=%d %s git=%s seed=%d\n", rep.Env.ScratchFS,
		rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.GitHead, seed)
	child := func(name string, seed uint64, trace int) (result, error) {
		cmd := exec.CommandContext(ctx, self, "-workload", name, "-scratch", scratch,
			"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		// An interrupt asks the child to stop and clean up before it is killed.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 10 * time.Second
		b, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s (trace %d): %w", name, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return result{}, fmt.Errorf("%s (trace %d): result line: %w", name, trace, err)
		}
		return res, nil
	}
	failed := false
	for _, name := range workloadNames {
		wr := &workloadReport{EndToEnd: metrics{}, Layers: metrics{}}
		rep.Workloads[name] = wr
		for trace, into := range []metrics{wr.EndToEnd, wr.Layers} {
			values := map[string][]float64{}
			for i := 0; i < runs; i++ {
				res, err := child(name, seed+uint64(i), trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for m, v := range res.Metrics {
					values[m] = append(values[m], v.Value)
					into[m] = v
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				failed = failed || !res.Correct
			}
			for m, vs := range values {
				into[m] = metric{Value: median(vs), Unit: into[m].Unit}
			}
		}
		wr.EndToEnd.set("failed_share", unitShare, float64(wr.Failed)/float64(wr.Attempted))
		fmt.Printf("\n%s: %d operations, %d failed\n", name, wr.Attempted, wr.Failed)
		printMetrics(wr.EndToEnd)
		printMetrics(wr.Layers)
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "bench: some operations failed or produced wrong output")
		return 1
	}
	return 0
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-34s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// benchmarkSpec is the part of BENCHMARK.json that -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareReports prints, per workload and end-to-end metric, the value in
// report a, the value in report b, how much worse b is as a share of a, and
// the bound BENCHMARK.json fixes; it returns non-zero when b is worse than a
// by more than a bound. Two sets of runs of one commit agree when the
// comparison passes in both directions.
func compareReports(specPath, aPath, bPath string) int {
	load := func(path string, v any) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, v)
	}
	if specPath == "" {
		specPath = "BENCHMARK.json"
		if _, err := os.Stat(specPath); err != nil {
			specPath = "../BENCHMARK.json"
		}
	}
	var spec benchmarkSpec
	var a, b report
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := load(f.path, f.into); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", f.path, err)
			return 2
		}
	}
	exceeded := 0
	fmt.Printf("%-20s %-14s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s is missing from a report\n", name)
			return 2
		}
		for _, e := range spec.EndToEnd {
			va, okA := wa.EndToEnd[e.Name]
			vb, okB := wb.EndToEnd[e.Name]
			if !okA || !okB {
				fmt.Fprintf(os.Stderr, "bench: %s: metric %s is missing from a report\n", name, e.Name)
				return 2
			}
			worse := (vb.Value - va.Value) / va.Value
			if e.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > e.Bound {
				mark = "  EXCEEDED"
				exceeded++
			}
			fmt.Printf("%-20s %-14s %14.4f %14.4f %8.2f%% %6.0f%%%s\n",
				name, e.Name, va.Value, vb.Value, 100*worse, 100*e.Bound, mark)
		}
		if wb.Failed > 0 {
			fmt.Printf("%-20s %d of %d operations failed in b  EXCEEDED\n", name, wb.Failed, wb.Attempted)
			exceeded++
		}
	}
	if exceeded > 0 {
		fmt.Printf("%d comparisons exceed their bound\n", exceeded)
		return 1
	}
	return 0
}
