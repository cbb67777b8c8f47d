// Command bench is the repository's benchmark (see README.md in this
// directory and BENCHMARK.json at the repository root).
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one run of one workload
//	bench [-seed N] [-seconds S] [-runs R] [-out FILE]   every workload, then the traced pass
//	bench -compare A.json B.json                         two full reports against the bounds
//
// It drives colsort only through exported functions, from outside: the
// program under test has no flag, hook or span of the benchmark's.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 8

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced repetition and the staged replay")
	scratch := fs.String("scratch", filepath.Join(".bench_build", "scratch"), "scratch root: inputs, outputs, engine disks and checkpoints live under it and are removed on exit")
	out := fs.String("out", "", "full mode: also write the report to this file")
	runs := fs.Int("runs", 1, "full mode: runs of each pass per workload, on consecutive seeds; the report holds each metric's median")
	spans := fs.String("spans", "", "traced run: write the span list to this file")
	compare := fs.Bool("compare", false, "compare two full reports: bench -compare A.json B.json")
	spec := fs.String("spec", "", "BENCHMARK.json holding the bounds -compare applies (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareReports(*spec, fs.Arg(0), fs.Arg(1))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := checkScratch(*scratch); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *workload == "" {
		return runAll(ctx, *scratch, *seed, *seconds, max(*runs, 1), *out)
	}

	// One workload, in this process, so that peak_rss_mib is its alone. Its
	// scratch is a directory of its own, removed however the run ends.
	dir, err := os.MkdirTemp(*scratch, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	res, err := runWorkload(ctx, fullSizing, *workload, dir, *seed, *seconds, *trace != 0, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runWorkload is one run of one workload at the given sizing: the end-to-end
// metrics with tracing off, or the per-layer metrics of the traced pass.
func runWorkload(ctx context.Context, sz sizing, name, dir string, seed uint64, seconds float64, traced bool, spansPath string) (result, error) {
	var file *fileWorkload
	for _, w := range fileWorkloads(sz) {
		if w.name == name {
			file = &w
		}
	}
	if file == nil && name != serverStream {
		return result{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if traced {
		return tracedPass(ctx, sz, file, dir, seed, spansPath)
	}
	if file != nil {
		return file.measure(ctx, sz, dir, seed, seconds)
	}
	return measureServer(ctx, sz, seed, seconds)
}
