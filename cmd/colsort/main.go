// Command colsort runs out-of-core sorts end to end on the simulated
// cluster: plan, ingest (a generated workload or a real file), sort,
// verify, and report operation counts plus the Beowulf-2003 time estimate.
// It is a thin shell over the v1 library call
// Engine.Sort(ctx, src, dst, opts...).
//
// Examples:
//
//	colsort -alg subblock -n 1048576 -p 8 -mem 16384
//	colsort -alg m-columnsort -n 262144 -p 4 -mem 2048 -gen zipf -dir /tmp/colsort
//
// With -in/-out it sorts a real on-disk file of z-byte records into a
// sorted output file (any record count; the run is padded internally):
//
//	colsort -alg threaded -in input.dat -out sorted.dat -p 4 -mem 4096 \
//	        -dir /tmp/colsort -async
//
// The command's own flags describe the machine (-p -d -mem -z -dir -async
// -disk-*), the input (-n -gen -seed -in -out) and the run (-progress,
// -plan, -checkpoint). Every other flag is a key of the sort-option table
// the server's wire shares (internal/optspell; README's CLI table): -alg,
// -group, -key-offset/-key-width/-order, -padding, -max-memory-mib,
// -merge-fanin, -deadline-ms, -nowait and -scrub, each spelled and refused
// exactly as key=value on POST /v1/sort. Ctrl-C cancels the run,
// tearing down all processors and scratch files before exiting.
//
// -async enables the prefetch/write-behind disk layer; -disk-seek-us and
// -disk-mbps impose a physical-disk service-time model so the overlap is
// visible on page-cached hardware.
//
// Inputs beyond the selected algorithm's problem-size bound — or beyond a
// -max-memory-mib cap — sort hierarchically: replacement-selection runs
// formed over H resident records (the cap's records, or without one the
// algorithm's largest single run), merged by loser-tree k-way merges
// (-merge-fanin), the last streaming into the output file. -plan prints which of the two a
// command line would execute (Engine.PlanSort) and exits.
//
// -checkpoint DIR persists a run manifest while a hierarchical sort spills
// its runs; after a crash or Ctrl-C, the same command picks the sort back
// up from that manifest, adopting the durable runs instead of re-sorting
// them (see DESIGN.md §13).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"time"

	"colsort"
	"colsort/internal/optspell"
	"colsort/internal/record"
)

var (
	n          = flag.Int64("n", 1<<20, "records to sort (any count ≥ 1: non-plannable counts pad, above-bound counts sort hierarchically); ignored with -in")
	p          = flag.Int("p", 4, "processors (power of 2)")
	d          = flag.Int("d", 0, "disks (default P)")
	mem        = flag.Int("mem", 1<<14, "records of column buffer per processor")
	z          = flag.Int("z", 64, "record size in bytes")
	gen        = flag.String("gen", "uniform", "input distribution: "+strings.Join(record.Names(), ", "))
	seed       = flag.Uint64("seed", 1, "generator seed")
	dir        = flag.String("dir", "", "back disks with files under this directory (default: in memory)")
	async      = flag.Bool("async", false, "asynchronous disk layer: prefetch read-ahead + write-behind")
	diskSeekUS = flag.Int("disk-seek-us", 0, "model: microseconds per discontiguous disk access (0: off)")
	diskMBps   = flag.Int("disk-mbps", 0, "model: sustained disk bandwidth in MiB/s (0: off)")
	inPath     = flag.String("in", "", "sort the records of this file (any count ≥ 1) instead of generating input")
	outPath    = flag.String("out", "", "write the sorted records to this file (requires -in)")
	progress   = flag.Bool("progress", false, "print pass/round completion as the sort runs")
	planOnly   = flag.Bool("plan", false, "print the plan and exit")
	checkpoint = flag.String("checkpoint", "", "hierarchical sorts: persist a run manifest under this directory; the same command run again continues a crashed or cancelled sort from it")
	sortKeys   = sortFlags()
)

// sortFlags registers one flag per key of the sort-option table, collecting
// what the command line gives into the values optspell.Parse reads — the
// values a POST /v1/sort query would carry.
func sortFlags() url.Values {
	q := url.Values{}
	for _, k := range optspell.Keys {
		set := func(v string) error { q.Add(k.Name, v); return nil }
		if k.IsBool() {
			flag.BoolFunc(k.Name, k.Type, set)
		} else {
			flag.Func(k.Name, k.Type, set)
		}
	}
	return q
}

func main() {
	flag.Parse()
	if (*inPath == "") != (*outPath == "") {
		fmt.Fprintln(os.Stderr, "-in and -out must be used together")
		os.Exit(2)
	}
	g, ok := record.ByName(*gen, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown generator %q (have: %s)\n", *gen, strings.Join(record.Names(), ", "))
		os.Exit(2)
	}
	// The flags only spell the options: every value goes to the library as
	// given (0 is each option's default), and what a value may be is the
	// library's to say — the sentence a refused command prints is Sort's own.
	opts, err := optspell.Parse(sortKeys)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts = append(opts, colsort.WithCheckpoint(*checkpoint))

	engine, err := colsort.New(colsort.Config{
		Procs: *p, Disks: *d, MemPerProc: *mem, RecordSize: *z, Dir: *dir,
		Async: *async, DiskSeekMicros: *diskSeekUS, DiskMBps: *diskMBps,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer engine.Close()

	// Ctrl-C cancels the context; the library tears down the cluster, the
	// async disk workers and the scratch files before Sort returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *progress {
		lastPct := -10 // one decade below 0 so the first merge event prints
		opts = append(opts, colsort.WithProgress(func(ev colsort.Progress) {
			if ev.Pass == 0 && ev.FormedRecords > 0 { // replacement-selection run formation
				if ev.TotalRecords > 0 {
					fmt.Fprintf(os.Stderr, "formed run %d: %d/%d records (%d%%)\n",
						ev.Batch, ev.FormedRecords, ev.TotalRecords, 100*ev.FormedRecords/ev.TotalRecords)
				}
				return
			}
			if ev.Pass == 0 { // hierarchical merge events: report every 10%
				pct := int(100 * ev.MergedRecords / ev.TotalRecords)
				if pct/10 > lastPct/10 || ev.MergedRecords == ev.TotalRecords {
					lastPct = pct
					fmt.Fprintf(os.Stderr, "merge: %d/%d records (%d%%)\n", ev.MergedRecords, ev.TotalRecords, pct)
				}
				return
			}
			if ev.Round == 0 || ev.Round == ev.Rounds {
				fmt.Fprintf(os.Stderr, "pass %d/%d: %d/%d rounds\n", ev.Pass, ev.Passes, ev.Round, ev.Rounds)
			}
		}))
	}

	// What the run will execute, asked of the resolver Sort itself asks, with
	// the very options the run gets: -plan prints it, and a generated input
	// (no -out) keeps its sorted store exactly when one run holds it — a
	// hierarchical sort's output only exists as a stream.
	src, dst := colsort.Generate(g, *n), colsort.Sink(nil)
	if *inPath != "" {
		src, dst = colsort.FromFile(*inPath), colsort.ToFile(*outPath)
	}
	if *planOnly || dst == nil {
		plan, err := planSort(engine, src, *z, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *planOnly {
			fmt.Println("plan:", plan)
			return
		}
		if plan.MaxRuns > 0 {
			dst = colsort.Discard()
		}
	}

	start := time.Now()
	res, err := engine.Sort(ctx, src, dst, opts...)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "interrupted: sort cancelled, scratch cleaned up")
			os.Exit(130)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "deadline exceeded: the sort did not complete within -deadline-ms %s\n", sortKeys.Get("deadline-ms"))
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer res.Close()
	wall := time.Since(start)
	switch alg := res.Plan.Alg; {
	case *inPath != "":
		fmt.Printf("sorted %d records of %s into %s (plan: %s)\n", res.RealRecords(), *inPath, *outPath, res.Summary().Plan)
		fmt.Println("verified as emitted: order checked record by record, multiset preserved")
	case alg != colsort.BaselineIO3 && alg != colsort.BaselineIO4:
		if err := res.Verify(); err != nil {
			fmt.Fprintln(os.Stderr, "VERIFICATION FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("plan:", res.Summary().Plan)
		if res.Merge != nil {
			fmt.Println("verified as emitted: order checked record by record, multiset preserved")
		} else {
			fmt.Println("verified: output sorted in PDM order, multiset preserved")
		}
	default:
		fmt.Println("plan:", res.Summary().Plan)
	}
	report(res, wall)
}

// planSort reports what sorting src would execute: the record count is the
// one the run would open, under the run's own checks.
func planSort(engine *colsort.Engine, src colsort.Source, z int, opts []colsort.Option) (colsort.SortPlan, error) {
	n, rd, err := src.Open(z)
	if err != nil {
		return colsort.SortPlan{}, err
	}
	rd.Close()
	return engine.PlanSort(n, opts...)
}

func report(res *colsort.Result, wall time.Duration) {
	tot := res.TotalCounters()
	fmt.Printf("wall clock: %v (simulated cluster in one process)\n", wall.Round(time.Millisecond))
	if m := res.Merge; m != nil {
		runs := fmt.Sprintf("%d runs × ≤%d records", m.Runs, m.RunRecords)
		if m.MaxRunRecords > 0 {
			runs = fmt.Sprintf("%d %s runs of %d–%d records (%d descending)",
				m.Runs, m.Formation, m.MinRunRecords, m.MaxRunRecords, m.DownRuns)
		}
		fmt.Printf("hierarchical: %s, %d merge level(s) at fan-in %d; merge moved %d MiB of run reads, %d MiB of spill+sink writes\n",
			runs, m.Levels, m.FanIn, m.BytesRead>>20, m.BytesWritten>>20)
	}
	fmt.Printf("disk:  %d MiB read, %d MiB written, %d segments\n",
		tot.DiskReadBytes>>20, tot.DiskWriteBytes>>20, tot.DiskReadOps+tot.DiskWriteOps)
	fmt.Printf("net:   %d MiB in %d messages (+%d self-messages)\n",
		tot.NetBytes>>20, tot.NetMsgs, tot.LocalMsgs)
	fmt.Printf("cpu:   %d M compare-units, %d MiB moved\n",
		tot.CompareUnits>>20, tot.MovedBytes>>20)
	if f := res.Faults; f.Any() {
		fmt.Printf("faults: %d corrupt chunks (%d healed by reread), %d batch redos\n",
			f.CorruptChunks, f.ChunkRereads, f.BatchRedos)
	}

	est := res.EstimateBeowulf()
	fmt.Println("estimated on the paper's Beowulf testbed:")
	for k, e := range est.Passes {
		fmt.Printf("  pass %d: %v\n", k+1, e)
	}
	fmt.Printf("  total: %.1fs\n", est.Total)
}
