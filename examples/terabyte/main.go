// Terabyte: reproduces the scalability argument of Sections 1 and 4.
//
// On a cluster of 16 processors with 2^19 records of memory each,
// M-columnsort's bound N ≤ M^{3/2}/√2 admits one terabyte of 64-byte
// records — where threaded columnsort stops at 16 GiB. This example plans
// the terabyte run, demonstrates the superlinear scaling of the bound with
// cluster size, executes a faithfully-shaped scaled-down run, and projects
// the terabyte sort onto the paper's testbed with the calibrated cost
// model.
package main

import (
	"context"
	"fmt"
	"log"

	"colsort"
	"colsort/internal/bounds"
	"colsort/internal/record"
)

func main() {
	fmt.Println("== the paper's terabyte configuration ==")
	const paperP, paperMem = 16, 1 << 19
	paper, err := colsort.New(colsort.Config{
		Procs: paperP, MemPerProc: paperMem, RecordSize: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	maxN := paper.MaxRecords(colsort.MColumn)
	fmt.Printf("largest plannable M-columnsort problem: %d records = %s\n",
		maxN, bounds.HumanBytes(float64(maxN)*64))
	if pl, err := paper.Plan(colsort.MColumn, maxN); err == nil {
		fmt.Println("plan:", pl)
	}
	thMax := paper.MaxRecords(colsort.Threaded)
	fmt.Printf("threaded columnsort on the same machine tops out at %s\n",
		bounds.HumanBytes(float64(thMax)*64))

	fmt.Println("\n== superlinear scaling with cluster size (fixed M/P) ==")
	fmt.Printf("%6s %20s %20s\n", "P", "threaded max", "m-columnsort max")
	for p := int64(4); p <= 64; p *= 2 {
		m := int64(paperMem) * p
		fmt.Printf("%6d %20s %20s\n", p,
			bounds.HumanBytes(bounds.MaxN(bounds.Threaded, m, p)*64),
			bounds.HumanBytes(bounds.MaxN(bounds.MColumnsort, m, p)*64))
	}
	fmt.Println("doubling the cluster multiplies M-columnsort's bound by 2^1.5 ≈ 2.83;")
	fmt.Println("restrictions (1) and (2) do not move at all.")

	fmt.Println("\n== scaled-down execution (same algorithm, same pass structure) ==")
	small, err := colsort.New(colsort.Config{
		Procs: 8, MemPerProc: 1 << 11, RecordSize: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	const n = (8 << 11) * 8 // r = 2^14, s = 8: 8 MiB of data
	res, err := small.Sort(context.Background(),
		colsort.Generate(record.NearlySorted{Seed: 3, Window: 4096}, n), nil,
		colsort.WithAlgorithm(colsort.MColumn))
	if err != nil {
		log.Fatal(err)
	}
	defer res.Close()
	if err := res.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified %d MiB with M-columnsort on 8 processors\n", int64(n)*64>>20)
	fmt.Printf("estimated on 2003 hardware: %.1fs\n", res.EstimateBeowulf().Total)

	fmt.Println("\nHad the cluster had the disk space, Section 5 notes, M-columnsort")
	fmt.Println("\"could have run on up to one terabyte total on 16 processors with")
	fmt.Println("2^25-byte buffers and 64-byte records\" — exactly the bound above.")

	fmt.Println("\n== beyond the bound: hierarchical runs + k-way merge ==")
	// The bounds above are per RUN. Sorter.Sort is unbounded: an input
	// larger than any single run is cut into maximal sorted runs by
	// replacement selection over a resident set of one run's records and streamed
	// through a loser-tree merge into the Sink — here 4.3× the threaded
	// bound of a deliberately tiny machine, verified in-stream.
	tiny, err := colsort.New(colsort.Config{Procs: 4, MemPerProc: 1 << 10, RecordSize: 64})
	if err != nil {
		log.Fatal(err)
	}
	bound := tiny.MaxRecords(colsort.Threaded)
	over := 4*bound + 321 // any count: no power-of-two requirement either
	hier, err := tiny.Sort(context.Background(),
		colsort.Generate(record.Zipf{Seed: 12}, over), colsort.Discard(),
		colsort.WithAlgorithm(colsort.Threaded))
	if err != nil {
		log.Fatal(err)
	}
	defer hier.Close()
	m := hier.Merge
	fmt.Printf("threaded bound on this machine: %d records (%s)\n",
		bound, bounds.HumanBytes(float64(bound)*64))
	fmt.Printf("sorted %d records = %.2f× the bound, as %d runs of %d–%d records over %d resident records\n",
		over, float64(over)/float64(bound), m.Runs, m.MinRunRecords, m.MaxRunRecords, m.RunRecords)
	fmt.Printf("merged in %d level(s) at fan-in %d; %s of run reads, %s of spill+sink writes\n",
		m.Levels, m.FanIn, bounds.HumanBytes(float64(m.BytesRead)), bounds.HumanBytes(float64(m.BytesWritten)))
	fmt.Println("every spilled frame CRC-checked; merge order and multiset checked in-stream")
}
