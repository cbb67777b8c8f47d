package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"colsort/internal/bitperm"
	"colsort/internal/core"
	"colsort/internal/pdm"
	"colsort/internal/record"
)

// subcomm demonstrates Section 3's communication properties of the subblock
// pass (experiments E2 and E5): each processor sends ⌈P/√s⌉ messages per
// round, none of which cross the network when √s ≥ P, and the Figure-1 bit
// permutation equals the arithmetic subblock permutation. The "measured"
// column comes from actually running subblock columnsort on the simulated
// cluster and counting messages.
func subcommCmd(fs *flag.FlagSet, args []string) {
	showBits := fs.Bool("show-bits", false, "print the Figure-1 bit permutation for one shape")
	r := fs.Int("r", 256, "records per column for -show-bits")
	s := fs.Int("s", 16, "columns for -show-bits (power of 4)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse

	if *showBits {
		printBitForm(*r, *s)
		return
	}
	printCommTable()
}

func printCommTable() {
	fmt.Println("Subblock-pass communication (Section 3, properties 1-2)")
	fmt.Printf("%4s %6s %6s | %18s %18s %12s\n", "P", "s", "√s", "msgs/round (pred)", "msgs/round (meas)", "net bytes")
	for _, s := range []int{16, 64, 256} {
		r := 4 * s * bitperm.Sqrt(s) // minimum legal height (a multiple of s), kept small
		for p := 2; p <= 16 && p <= s; p *= 2 {
			pred := bitperm.MessagesPerRound(p, s)
			meas, netBytes, err := measure(p, r, s)
			if err != nil {
				fmt.Fprintf(os.Stderr, "P=%d s=%d: %v\n", p, s, err)
				continue
			}
			noNet := ""
			if bitperm.NoNetworkComm(p, s) {
				noNet = "  (√s ≥ P: no network traffic)"
			}
			fmt.Printf("%4d %6d %6d | %18d %18d %12d%s\n",
				p, s, bitperm.Sqrt(s), pred, meas, netBytes, noNet)
		}
	}
	fmt.Println("\nProperty 3 (optimality): any permutation with the subblock property")
	fmt.Println("must send at least ⌈P/√s⌉ messages per round; the measured counts")
	fmt.Println("match the lower bound exactly.")
}

// measure runs subblock columnsort and returns the measured messages per
// processor per round of the subblock pass, plus its total network bytes.
func measure(p, r, s int) (int, int64, error) {
	n := int64(r) * int64(s)
	pl, err := core.NewPlan(core.Subblock, n, p, p, r, 16)
	if err != nil {
		return 0, 0, err
	}
	m := pdm.Machine{P: p, D: p}
	input, err := pl.NewInput(m, record.Uniform{Seed: 1})
	if err != nil {
		return 0, 0, err
	}
	defer input.Close()
	res, err := core.Run(context.Background(), pl, m, input, core.Hooks{})
	if err != nil {
		return 0, 0, err
	}
	defer res.Output.Close()
	var msgs, netBytes int64
	for _, c := range res.PassCounters[1] { // pass 2 is the subblock pass
		msgs += c.NetMsgs + c.LocalMsgs
		netBytes += c.NetBytes
	}
	rounds := int64(s / p)
	return int(msgs / (rounds * int64(p))), netBytes, nil
}

func printBitForm(r, s int) {
	sb, err := bitperm.NewSubblock(r, s)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bp := sb.BitForm()
	lgR := bitperm.Log2(r)
	fmt.Printf("Subblock permutation for r=%d, s=%d (√s=%d) as a bit permutation\n", r, s, sb.SqrtS())
	fmt.Println("combined address a = j·r + i; target bit ← source bit:")
	for t := 0; t < bp.Bits(); t++ {
		src := -1
		for b := 0; b < bp.Bits(); b++ {
			if bp.Apply(1<<b) == 1<<t {
				src = b
				break
			}
		}
		field := func(b int) string {
			lgQ := bitperm.Log2(sb.SqrtS())
			switch {
			case b < lgQ:
				return "x (row-in-subblock)"
			case b < lgR:
				return "w (subblock row)"
			case b < lgR+lgQ:
				return "z (col-in-subblock)"
			default:
				return "y (subblock col)"
			}
		}
		fmt.Printf("  a'[%2d] ← a[%2d]   %s\n", t, src, field(src))
	}
	fmt.Println("\nThe target column bits (x, z) come entirely from the bits that locate")
	fmt.Println("an element WITHIN its √s×√s subblock, which is what guarantees the")
	fmt.Println("subblock property (all s entries of a subblock reach all s columns).")
}
