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
// -key-offset/-key-width/-desc sort on a caller-defined key field instead
// of the first 8 bytes (weblog timestamps, seismic amplitudes). -progress
// prints pass/round completion as the sort runs. Ctrl-C cancels the run,
// tearing down all processors and scratch files before exiting.
//
// -async enables the prefetch/write-behind disk layer; -disk-seek-us and
// -disk-mbps impose a physical-disk service-time model so the overlap is
// visible on page-cached hardware.
//
// Inputs beyond the selected algorithm's problem-size bound — or beyond a
// -max-memory-mib cap — sort hierarchically: replacement-selection runs
// formed over one run's memory, streamed through a loser-tree k-way merge
// (-merge-fanin) into the output file. -plan prints which of the two a
// command line would execute (Engine.PlanSort) and exits.
//
// Every sort retries transient disk faults under bounded backoff and
// CRC32C-frames its spilled runs; -retries, -retry-base-us, -redo-budget and
// -scrub tune the policy (see DESIGN.md §9). The -chaos-* flags inject
// seeded storage faults — transient errors, bit flips, torn writes, a dying
// spill disk — to exercise those layers; a chaos run prints its seed, and
// COLSORT_CHAOS_SEED (or -chaos-seed) replays it.
//
// -checkpoint DIR persists a run manifest while a hierarchical sort spills
// its runs; after a crash or Ctrl-C, the same command picks the sort back
// up from that manifest, adopting the durable runs instead of re-sorting
// them (see DESIGN.md §13). -deadline bounds the whole sort's wall clock,
// failing it cleanly when exceeded.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"colsort"
	"colsort/internal/record"
)

func main() {
	algName := flag.String("alg", "threaded", "algorithm: threaded, threaded-4pass, subblock, m-columnsort, combined, hybrid, baseline-io-3pass, baseline-io-4pass")
	n := flag.Int64("n", 1<<20, "records to sort (any count ≥ 1: non-plannable counts pad, above-bound counts sort hierarchically); ignored with -in")
	p := flag.Int("p", 4, "processors (power of 2)")
	d := flag.Int("d", 0, "disks (default P)")
	mem := flag.Int("mem", 1<<14, "records of column buffer per processor")
	z := flag.Int("z", 64, "record size in bytes")
	group := flag.Int("g", 0, "group size for -alg hybrid (a power of 2, 2 ≤ g ≤ P/2); only with -alg hybrid")
	gen := flag.String("gen", "uniform", "input distribution: "+strings.Join(record.Names(), ", "))
	seed := flag.Uint64("seed", 1, "generator seed")
	dir := flag.String("dir", "", "back disks with files under this directory (default: in memory)")
	async := flag.Bool("async", false, "asynchronous disk layer: prefetch read-ahead + write-behind")
	diskSeekUS := flag.Int("disk-seek-us", 0, "model: microseconds per discontiguous disk access (0: off)")
	diskMBps := flag.Int("disk-mbps", 0, "model: sustained disk bandwidth in MiB/s (0: off)")
	inPath := flag.String("in", "", "sort the records of this file (any count ≥ 1) instead of generating input")
	outPath := flag.String("out", "", "write the sorted records to this file (requires -in)")
	maxMemMiB := flag.Int64("max-memory-mib", 0, "cap one columnsort run at this many MiB of records; inputs above the cap (or the algorithm's bound) sort as runs + k-way merge (0: bound only)")
	mergeFanIn := flag.Int("merge-fanin", 0, "maximum runs merged at once on the hierarchical path (0: default 16)")
	retries := flag.Int("retries", 0, "fault tolerance: attempts per disk operation before a transient fault escapes (0: default 4; 1 disables retries)")
	retryBaseUS := flag.Int("retry-base-us", 0, "fault tolerance: first backoff delay in microseconds, doubling per attempt (0: default 200)")
	redoBudget := flag.Int("redo-budget", 0, "fault tolerance: formed runs that may be re-spilled onto a fresh disk (0: default 2; negative disables)")
	scrub := flag.Bool("scrub", false, "fault tolerance: CRC-read every spilled run back after writing it (always on under -chaos-*)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "chaos: fault-injection seed (0: $COLSORT_CHAOS_SEED, else 1)")
	chaosPTransient := flag.Float64("chaos-p-transient", 0, "chaos: per-operation probability of a transient disk fault")
	chaosPBitFlip := flag.Float64("chaos-p-bitflip", 0, "chaos: per-read probability of silently flipping one bit")
	chaosPTorn := flag.Float64("chaos-p-torn", 0, "chaos: per-write probability of a silent torn write")
	chaosTornSpill := flag.Int("chaos-torn-spill", 0, "chaos: tear the first write of the Nth spill disk (0: off)")
	chaosFlipSpill := flag.Int("chaos-flip-spill", 0, "chaos: flip one bit of the first read of the Nth spill disk (0: off)")
	chaosDeadSpill := flag.Int("chaos-dead-spill", 0, "chaos: permanently fail the Nth spill disk after -chaos-dead-after-kib (0: off)")
	chaosDeadAfterKiB := flag.Int64("chaos-dead-after-kib", 0, "chaos: write traffic in KiB the -chaos-dead-spill disk survives")
	keyOffset := flag.Int("key-offset", 0, "byte offset of the sort key field within each record")
	keyWidth := flag.Int("key-width", 0, "byte width of the sort key field (0: 8)")
	desc := flag.Bool("desc", false, "sort the key field in descending order")
	progress := flag.Bool("progress", false, "print pass/round completion as the sort runs")
	planOnly := flag.Bool("plan", false, "print the plan and exit")
	checkpoint := flag.String("checkpoint", "", "hierarchical sorts: persist a run manifest under this directory; the same command run again continues a crashed or cancelled sort from it")
	deadline := flag.Duration("deadline", 0, "fail the sort if it has not completed within this duration (0: none)")
	flag.Parse()

	alg, ok := algByName(*algName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algName)
		os.Exit(2)
	}
	if (*inPath == "") != (*outPath == "") {
		fmt.Fprintln(os.Stderr, "-in and -out must be used together")
		os.Exit(2)
	}
	g, ok := record.ByName(*gen, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown generator %q (have: %s)\n", *gen, strings.Join(record.Names(), ", "))
		os.Exit(2)
	}
	maxMem, err1 := scaled("max-memory-mib", *maxMemMiB, 1<<20)
	retryBase, err2 := scaled("retry-base-us", int64(*retryBaseUS), int64(time.Microsecond))
	deadAfter, err3 := scaled("chaos-dead-after-kib", *chaosDeadAfterKiB, 1<<10)
	if err := errors.Join(err1, err2, err3); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := colsort.Config{
		Procs: *p, Disks: *d, MemPerProc: *mem, RecordSize: *z, Dir: *dir,
		Async: *async, DiskSeekMicros: *diskSeekUS, DiskMBps: *diskMBps,
	}
	chaos := colsort.ChaosConfig{
		PTransient:     *chaosPTransient,
		PBitFlip:       *chaosPBitFlip,
		PTorn:          *chaosPTorn,
		TornSpillWrite: *chaosTornSpill,
		FlipSpillRead:  *chaosFlipSpill,
		DeadSpillDisk:  *chaosDeadSpill,
		DeadSpillAfter: deadAfter,
	}
	if chaos != (colsort.ChaosConfig{}) { // some -chaos-* flag was given; the library says what it may hold
		chaos.Seed = *chaosSeed
		if env := os.Getenv("COLSORT_CHAOS_SEED"); chaos.Seed == 0 && env != "" {
			s, err := strconv.ParseUint(env, 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad COLSORT_CHAOS_SEED %q: %v\n", env, err)
				os.Exit(2)
			}
			chaos.Seed = s
		}
		if chaos.Seed == 0 {
			chaos.Seed = 1
		}
		cfg.Chaos = &chaos
		// Always print the seed: a failing chaos run must be replayable.
		fmt.Fprintf(os.Stderr, "chaos: fault injection enabled, seed %d\n", chaos.Seed)
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "g" && alg != colsort.Hybrid {
			fmt.Fprintln(os.Stderr, "-g only applies to -alg hybrid")
			os.Exit(2)
		}
	})
	engine, err := colsort.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer engine.Close()

	// Ctrl-C cancels the context; the library tears down the cluster, the
	// async disk workers and the scratch files before Sort returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The flags only spell the options: every value goes to the library as
	// given (0 is each option's default), and what a value may be is the
	// library's to say — the sentence a refused command prints is Sort's own.
	ks := colsort.KeySpec{Offset: *keyOffset, Width: *keyWidth}
	if *desc {
		ks.Order = colsort.Descending
	}
	opts := []colsort.Option{
		colsort.WithAlgorithm(alg),
		colsort.WithMaxMemory(maxMem),
		colsort.WithMergeFanIn(*mergeFanIn),
		colsort.WithCheckpoint(*checkpoint),
		colsort.WithDeadline(*deadline),
		colsort.WithKeySpec(ks),
		colsort.WithRetry(colsort.RetryPolicy{
			MaxAttempts: *retries,
			BaseDelay:   time.Duration(retryBase),
			RedoBudget:  *redoBudget,
			Scrub:       *scrub,
		}),
	}
	if alg == colsort.Hybrid {
		opts[0] = colsort.WithHybridGroup(*group)
	}
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
	isBaseline := alg == colsort.BaselineIO3 || alg == colsort.BaselineIO4

	start := time.Now()
	res, err := engine.Sort(ctx, src, dst, opts...)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "interrupted: sort cancelled, scratch cleaned up")
			os.Exit(130)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "deadline exceeded: the sort did not complete within -deadline %v\n", *deadline)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer res.Close()
	wall := time.Since(start)
	switch {
	case *inPath != "":
		fmt.Printf("sorted %d records of %s into %s (plan: %s)\n", res.RealRecords(), *inPath, *outPath, res.Plan.String())
		if res.Merge != nil {
			fmt.Println("verified in-stream: every run verified, merge order checked, multiset preserved")
		} else {
			// Single-run file sorts verify BEFORE -out is written.
			fmt.Println("verified: output sorted, multiset preserved")
		}
	case !isBaseline:
		if err := res.Verify(); err != nil {
			fmt.Fprintln(os.Stderr, "VERIFICATION FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("plan:", res.Plan.String())
		if res.Merge != nil {
			fmt.Println("verified in-stream: every run verified, merge order checked, multiset preserved")
		} else {
			fmt.Println("verified: output sorted in PDM order, multiset preserved")
		}
	default:
		fmt.Println("plan:", res.Plan.String())
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
		fmt.Printf("faults: %d transient retried (%d gave up), %d corrupt chunks (%d healed by reread), %d batch redos\n",
			f.DiskRetries, f.DiskGiveUps, f.CorruptChunks, f.ChunkRereads, f.BatchRedos)
	}

	est := res.EstimateBeowulf()
	fmt.Println("estimated on the paper's Beowulf testbed:")
	for k, e := range est.Passes {
		fmt.Printf("  pass %d: %v\n", k+1, e)
	}
	fmt.Printf("  total: %.1fs\n", est.Total)
}

// scaled returns count·unit, a flag counted in MiB, KiB or µs as the bytes or
// nanoseconds the library takes. A count whose product overflows int64 is a
// bad flag value: wrapped, it would spell some other value, and 2^44 MiB would
// be no cap at all.
func scaled(flagName string, count, unit int64) (int64, error) {
	if limit := math.MaxInt64 / unit; count > limit || count < -limit {
		return 0, fmt.Errorf("invalid value %d for flag -%s: want an integer in [-%d, %d]", count, flagName, limit, limit)
	}
	return count * unit, nil
}

func algByName(name string) (colsort.Algorithm, bool) {
	for _, a := range []colsort.Algorithm{
		colsort.Threaded, colsort.Threaded4, colsort.Subblock, colsort.MColumn,
		colsort.Combined, colsort.Hybrid, colsort.BaselineIO3, colsort.BaselineIO4,
	} {
		if a.String() == name {
			return a, true
		}
	}
	return 0, false
}
