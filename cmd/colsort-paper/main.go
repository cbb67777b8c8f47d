// Command colsort-paper reproduces the paper's tables, figures and analytic
// claims, one subcommand per group of experiments:
//
//	colsort-paper bounds   [-terabyte | -crossover | -combined | -hybrid] [-z Z]
//	colsort-paper figure2  [-sweep-buffer | -eligibility | -passes]
//	colsort-paper incore   [-p P] [-n N] [-z Z] [-reps R]
//	colsort-paper subcomm  [-show-bits [-r R] [-s S]]
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	commands := map[string]func(fs *flag.FlagSet, args []string){
		"bounds": boundsCmd, "figure2": figure2Cmd, "incore": incoreCmd, "subcomm": subcommCmd,
	}
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: colsort-paper bounds|figure2|incore|subcomm [flags]   (-h after a command lists its flags)")
		os.Exit(2)
	}
	commands[os.Args[1]](flag.NewFlagSet("colsort-paper "+os.Args[1], flag.ExitOnError), os.Args[2:])
}

// log2 returns ⌊log₂ x⌋ for x ≥ 1.
func log2(x int64) int64 {
	var n int64
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}
