package main

import (
	"flag"
	"fmt"
	"os"

	"colsort/internal/bounds"
	"colsort/internal/core"
	"colsort/internal/figure2"
	"colsort/internal/sim"
)

// bounds prints the paper's problem-size restrictions and the analytic
// claims built on them (experiments E3, E4, E9, E11): restrictions (1)–(3),
// the Section-6 combined bound, the subblock doubling claim, the
// one-terabyte claim, and the M-columnsort-vs-subblock crossover
// M < 32·P^10.
func boundsCmd(fs *flag.FlagSet, args []string) {
	terabyte := fs.Bool("terabyte", false, "reproduce the 1 TB claim of Section 1 (E4)")
	crossover := fs.Bool("crossover", false, "crossover table M < 32·P^10 (E9)")
	combined := fs.Bool("combined", false, "Section-6 combined-algorithm bounds (E11)")
	hybridF := fs.Bool("hybrid", false, "Section-6 hybrid group-size trade-off (E11)")
	z := fs.Int("z", 64, "record size in bytes for byte-denominated rows")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse

	switch {
	case *terabyte:
		printTerabyte(*z)
	case *crossover:
		printCrossover()
	case *combined:
		printCombined(*z)
	case *hybridF:
		printHybrid(*z)
	default:
		printTable(*z)
	}
}

func printTable(z int) {
	fmt.Println("Problem-size bounds in records (restrictions (1), (2), (3)) and bytes")
	fmt.Printf("%-10s %4s %14s %14s %14s %16s\n", "M/P", "P", "threaded(1)", "subblock(2)", "m-colsort(3)", "subblock gain")
	for _, rows := range [][]bounds.Row{bounds.Table(
		[]int64{1 << 12, 1 << 16, 1 << 19, 1 << 22},
		[]int64{4, 8, 16})} {
		for _, r := range rows {
			fmt.Printf("2^%-8d %4d %14s %14s %14s %15.2fx\n",
				log2(r.MOverP), r.P,
				bounds.HumanBytes(r.Bound1*float64(z)),
				bounds.HumanBytes(r.Bound2*float64(z)),
				bounds.HumanBytes(r.Bound3*float64(z)),
				bounds.SubblockGain(r.MOverP))
		}
	}
	fmt.Println("\nSection 1: for M/P ≥ 2^12 the subblock gain exceeds 2 —")
	fmt.Printf("at M/P = 2^12 it is %.2fx (\"more than double the largest problem size\").\n",
		bounds.SubblockGain(1<<12))
}

func printTerabyte(z int) {
	var p int64 = 16
	var mp int64 = 1 << 19
	m := mp * p
	b := bounds.MaxBytes(bounds.MColumnsort, m, p, z)
	fmt.Printf("Section 1 claim: P=%d processors, M/P=2^19 records, %d-byte records\n", p, z)
	fmt.Printf("M-columnsort bound: N ≤ M^{3/2}/√2 = %.0f records = %s\n",
		bounds.MaxN(bounds.MColumnsort, m, p), bounds.HumanBytes(b))
	fmt.Printf("in-core side condition M/P ≥ 2P²: %v\n", bounds.InCoreOK(mp, p))
	fmt.Printf("threaded bound on the same machine: %s — a %.0fx gap\n",
		bounds.HumanBytes(bounds.MaxBytes(bounds.Threaded, m, p, z)),
		bounds.MaxN(bounds.MColumnsort, m, p)/bounds.MaxN(bounds.Threaded, m, p))
}

func printCrossover() {
	fmt.Println("Section 5: M-columnsort sorts more records than subblock iff M < 32·P^10")
	fmt.Printf("%4s %22s %28s\n", "P", "threshold M (records)", "example at M = 2^23 (8 GiB·64B)")
	for _, p := range []int64{2, 4, 8, 16, 32, 64} {
		thresholdLg := 5 + 10*log2(p)
		winner := "m-columnsort"
		if !bounds.CrossoverFormula(1<<23, p) {
			winner = "subblock"
		}
		fmt.Printf("%4d %19s2^%-3d %28s\n", p, "", thresholdLg, winner)
	}
	fmt.Println("\nFormula cross-check against the raw bounds:")
	for _, p := range []int64{8} {
		for _, m := range []int64{1 << 34, 1<<35 - 1, 1 << 35, 1 << 36} {
			f := bounds.CrossoverFormula(m, p)
			d := bounds.CrossoverDirect(m, p)
			fmt.Printf("  P=%d M=2^%.1f: formula=%v direct=%v\n",
				p, float64(log2(m)), f, d)
		}
	}
}

func printCombined(z int) {
	fmt.Println("Section 6 future work: combined subblock + M-columnsort, N ≤ M^{5/3}/4^{2/3}")
	fmt.Printf("%-10s %4s %16s %16s %10s\n", "M/P", "P", "m-colsort(3)", "combined", "gain")
	for _, mp := range []int64{1 << 16, 1 << 19, 1 << 22} {
		for _, p := range []int64{8, 16} {
			m := mp * p
			b3 := bounds.MaxN(bounds.MColumnsort, m, p)
			bc := bounds.MaxN(bounds.Combined, m, p)
			fmt.Printf("2^%-8d %4d %16s %16s %9.2fx\n",
				log2(mp), p,
				bounds.HumanBytes(b3*float64(z)), bounds.HumanBytes(bc*float64(z)), bc/b3)
		}
	}
	fmt.Println("\nThe combined algorithm (implemented in this repository as")
	fmt.Println("colsort.Combined) trades one extra pass for the larger bound.")
}

// printHybrid is the Section-6 trade-off on printTerabyte's machine: every
// group size plans one N, and the validated counter predictor
// (internal/figure2) prices each pass of the plan under the Beowulf-2003
// cost model, as it prices Figure 2.
func printHybrid(z int) {
	const p, mp, n = 16, 1 << 19, 1 << 28
	fmt.Println("Section 6 future work: hybrid group columnsort, r = g·(M/P)")
	fmt.Println("(g = 1 is threaded columnsort, g = P is M-columnsort)")
	fmt.Printf("P = %d, M/P = 2^19, N = 2^28 records (%s): network bytes per processor\n",
		p, bounds.HumanBytes(float64(n)*float64(z)))
	cm := sim.Beowulf2003()
	fmt.Printf("%4s %12s %6s %12s %12s %12s %12s %8s %8s\n",
		"g", "bound N", "s", "pass 1", "pass 2", "pass 3", "total", "net s", "est s")
	for g := 1; g <= p; g *= 2 {
		pl, err := groupPlan(n, p, mp, z, g)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		passes, err := figure2.PredictPassCounters(pl)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		est := cm.EstimateRun(passes, pl.D)
		fmt.Printf("%4d %12s %6d", g, bounds.HumanBytes(bounds.MaxBytes(bounds.Threaded, int64(g)*mp*p, p, z)), pl.S)
		var total int64
		var netS float64
		for k, pass := range passes {
			total += pass[0].NetBytes
			netS += est.Passes[k].Net
			fmt.Printf(" %12s", bounds.HumanBytes(float64(pass[0].NetBytes)))
		}
		fmt.Printf(" %12s %8.1f %8.1f\n", bounds.HumanBytes(float64(total)), netS, est.Total)
	}
	for _, n := range []int64{1 << 28, 1 << 31, 1 << 33} {
		for g := 1; g <= p; g *= 2 {
			if _, err := groupPlan(n, p, mp, z, g); err == nil {
				fmt.Printf("N = %s → smallest group size the planner accepts: g = %d\n",
					bounds.HumanBytes(float64(n)*float64(z)), g)
				break
			}
		}
	}
	fmt.Println("\nThe bound grows as g^{3/2} while the network traffic grows")
	fmt.Println("toward g = P — choose the smallest g that plans the problem.")
}

// groupPlan plans group columnsort at group size g: threaded columnsort at
// g = 1, M-columnsort at g = P, the hybrid between.
func groupPlan(n int64, p, mem, z, g int) (core.Plan, error) {
	switch g {
	case 1:
		return core.NewPlan(core.Threaded, n, p, p, mem, z)
	case p:
		return core.NewPlan(core.MColumn, n, p, p, mem, z)
	}
	return core.NewHybridPlan(n, p, p, mem, z, g)
}
