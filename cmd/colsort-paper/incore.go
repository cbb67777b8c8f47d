package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"colsort/internal/cluster"
	"colsort/internal/incore"
	"colsort/internal/record"
	"colsort/internal/sim"
)

// incore compares the three distributed in-core sorts of Section 4
// (experiment E6): in-core columnsort, bitonic sort, and radix sort, at
// sort-stage-representative sizes. It reports wall-clock time on the
// goroutine cluster and the per-processor network traffic, whose ordering
// is the paper's reason for choosing in-core columnsort. Only the traffic
// is deterministic, so only the traffic is concluded from — and the run
// fails when it contradicts the conclusion, as when a sort's output is wrong.
func incoreCmd(fs *flag.FlagSet, args []string) {
	p := fs.Int("p", 8, "processors (power of 2)")
	n := fs.Int("n", 1<<16, "records per processor")
	z := fs.Int("z", 64, "record size in bytes")
	reps := fs.Int("reps", 3, "repetitions (best time reported)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse

	fmt.Printf("Distributed in-core sorts: P=%d, n=%d records/processor, %d-byte records\n", *p, *n, *z)
	fmt.Printf("%-20s %12s %16s %14s\n", "algorithm", "best time", "net bytes/proc", "msgs/proc")

	sorters := []incore.Sorter{incore.Columnsort{}, incore.Radix{}, incore.Bitonic{}}
	net := make([]int64, len(sorters))
	for i, s := range sorters {
		best := time.Duration(1<<62 - 1)
		var netBytes, msgs int64
		for rep := 0; rep < *reps; rep++ {
			cnts := make([]sim.Counters, *p)
			blocks := make([]record.Slice, *p)
			gen := record.Uniform{Seed: uint64(rep)}
			start := time.Now()
			err := cluster.Run(*p, func(pr *cluster.Proc) error {
				local := record.Make(*n, *z)
				record.Fill(local, gen, int64(pr.Rank())*int64(*n))
				var err error
				blocks[pr.Rank()], err = s.Sort(pr, &cnts[pr.Rank()], 0, local)
				return err
			})
			el := time.Since(start)
			if err == nil {
				err = checkDistributed(blocks, record.OfGenerated(gen, int64(*p)*int64(*n), *z))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", s.Name(), err)
				os.Exit(1)
			}
			if el < best {
				best = el
			}
			netBytes, msgs = 0, 0
			for _, c := range cnts {
				if c.NetBytes > netBytes {
					netBytes = c.NetBytes
				}
				if c.NetMsgs > msgs {
					msgs = c.NetMsgs
				}
			}
		}
		net[i] = netBytes
		fmt.Printf("%-20s %12v %16d %14d\n", s.Name(), best.Round(time.Millisecond), netBytes, msgs)
	}
	if err := checkTraffic(sorters, net); err != nil {
		fmt.Fprintf(os.Stderr, "E6: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("\nSection 4: in-core columnsort moves the fewest network bytes per")
	fmt.Println("processor (chosen for the sort stage of M-columnsort); radix is")
	fmt.Println("key-format-dependent, and bitonic makes lg P·(lg P+1)/2 full-block exchanges.")
}

// checkTraffic holds E6's conclusion to its table: net[i] is the most
// network bytes any processor sent in sorters[i]'s sort, and the first
// sorter, in-core columnsort, must move strictly fewer than every other.
func checkTraffic(sorters []incore.Sorter, net []int64) error {
	for i := 1; i < len(sorters); i++ {
		if net[i] <= net[0] {
			return fmt.Errorf("%s moved %d net bytes per processor, %s %d: in-core columnsort does not move the fewest",
				sorters[0].Name(), net[0], sorters[i].Name(), net[i])
		}
	}
	return nil
}

// checkDistributed checks a distributed sort's result globally: every block
// sorted, each block's last record at most the next block's first, and the
// records, taken together, the multiset the input checksum describes.
func checkDistributed(blocks []record.Slice, want record.Checksum) error {
	var got record.Checksum
	for q, b := range blocks {
		got.AddSlice(b)
		if !b.IsSorted() {
			return fmt.Errorf("rank %d block unsorted", q)
		}
		if q > 0 && record.Compare(blocks[q-1], blocks[q-1].Len()-1, b, 0) > 0 {
			return fmt.Errorf("rank %d's last record exceeds rank %d's first", q-1, q)
		}
	}
	if !got.Equal(want) {
		return fmt.Errorf("output multiset differs from the input's")
	}
	return nil
}
