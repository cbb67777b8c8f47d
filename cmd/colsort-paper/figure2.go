package main

import (
	"flag"
	"fmt"
	"os"

	"colsort/internal/core"
	"colsort/internal/figure2"
	"colsort/internal/sim"
)

// figure2 regenerates Figure 2 of the paper and its companion analyses
// (experiments E1, E7, E8, E10): execution seconds per GiB/processor for
// threaded, subblock and M-columnsort at buffer sizes 2^24 and 2^25 bytes,
// over 4–32 GiB of 64-byte records, plus the 3- and 4-pass baseline I/O
// floors. The numbers come from the validated operation-count predictor
// evaluated at paper scale under the Beowulf-2003 cost model (see
// internal/figure2).
func figure2Cmd(fs *flag.FlagSet, args []string) {
	sweep := fs.Bool("sweep-buffer", false, "sweep buffer sizes 2^20..2^26 at fixed volume (E7)")
	elig := fs.Bool("eligibility", false, "print the eligibility matrix only (E8)")
	passes := fs.Bool("passes", false, "compare 3-pass and 4-pass threaded columnsort (E10)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse
	cm := sim.Beowulf2003()

	switch {
	case *sweep:
		sweepBuffers(cm)
	case *elig:
		eligibility()
	case *passes:
		passAblation(cm)
	default:
		renderFigure(cm)
	}
}

func renderFigure(cm sim.CostModel) {
	pts := figure2.Grid()
	for i := range pts {
		if pts[i].Eligible {
			if err := figure2.Evaluate(&pts[i], cm); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	fmt.Println("Figure 2 — execution times for the three versions of columnsort")
	fmt.Println("plus baseline I/O times for three and four passes (simulated Beowulf).")
	fmt.Println()
	fmt.Print(figure2.Render(pts))
	fmt.Println("\n— means the configuration violates the algorithm's problem-size")
	fmt.Println("restriction (run with -eligibility for reasons).")
}

func eligibility() {
	fmt.Println("Eligibility matrix (experiment E8):")
	for _, pt := range figure2.Grid() {
		status := "OK"
		if !pt.Eligible {
			status = "INELIGIBLE: " + pt.Reason
		}
		fmt.Printf("  %-34s %3d GiB  %s\n", pt.Label(), pt.TotalBytes/figure2.GiB, status)
	}
}

func sweepBuffers(cm sim.CostModel) {
	fmt.Println("Buffer-size sweep (experiment E7): M-columnsort, 8 GiB total, 64-byte records")
	fmt.Printf("%12s %14s\n", "buffer", "secs/(GiB/proc)")
	for lg := 20; lg <= 26; lg++ {
		pt := figure2.MakePoint(core.MColumn, 1<<lg, 8*figure2.GiB, 64)
		if !pt.Eligible {
			fmt.Printf("%12s %14s  (%s)\n", fmt.Sprintf("2^%d", lg), "—", pt.Reason)
			continue
		}
		if err := figure2.Evaluate(&pt, cm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%12s %14.1f\n", fmt.Sprintf("2^%d", lg), pt.SecsPerGBProc)
	}
	fmt.Println("\nLarger buffers are faster (fewer pipeline rounds and seeks), as in")
	fmt.Println("Section 5; beyond physical memory the real system would page.")
}

func passAblation(cm sim.CostModel) {
	fmt.Println("Pass-count ablation (experiment E10): 4 GiB, buffer 2^24, 64-byte records")
	for _, alg := range []core.Algorithm{core.Threaded, core.Threaded4, core.BaselineIO3, core.BaselineIO4} {
		pt := figure2.MakePoint(alg, 1<<24, 4*figure2.GiB, 64)
		if !pt.Eligible {
			fmt.Printf("  %-18v ineligible: %s\n", alg, pt.Reason)
			continue
		}
		if err := figure2.Evaluate(&pt, cm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  %-18v %d passes  %7.1f secs/(GiB/proc)\n", alg, alg.Passes(), pt.SecsPerGBProc)
	}
	fmt.Println("\nThe [CC02] 3-pass restructuring buys back one full pass of I/O,")
	fmt.Println("the improvement the paper uses as its baseline.")
}
