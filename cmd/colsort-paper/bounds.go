package main

import (
	"flag"
	"fmt"
	"os"

	"colsort/internal/bounds"
	"colsort/internal/hybrid"
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

func printHybrid(z int) {
	fmt.Println("Section 6 future work: hybrid group columnsort, r = g·(M/P)")
	fmt.Println("(g = 1 is threaded columnsort, g = P is M-columnsort)")
	c := hybrid.Config{P: 16, Mem: 1 << 19, Z: z}
	pts, err := c.Sweep()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cm := sim.Beowulf2003()
	fmt.Printf("%4s %16s %18s %20s %14s\n", "g", "bound N", "sort net B/proc", "scatter net B/proc", "est comm s")
	for _, pt := range pts {
		fmt.Printf("%4d %16s %18d %20d %14.2f\n", pt.G,
			bounds.HumanBytes(pt.MaxN*float64(z)),
			pt.SortNetBytesPerPass, pt.ScatterNetBytesPerPass,
			pt.EstimateSortSeconds(cm))
	}
	for _, n := range []int64{1 << 28, 1 << 31, 1 << 33} {
		g, err := c.ChooseGroup(n)
		if err != nil {
			fmt.Printf("N = %s: %v\n", bounds.HumanBytes(float64(n)*float64(z)), err)
			continue
		}
		fmt.Printf("N = %s → smallest eligible group size g = %d\n",
			bounds.HumanBytes(float64(n)*float64(z)), g)
	}
	fmt.Println("\nThe bound grows as g^{3/2} while sort-stage communication grows")
	fmt.Println("toward g = P — choose the smallest g that fits the problem.")
}
