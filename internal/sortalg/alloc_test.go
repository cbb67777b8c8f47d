package sortalg

import (
	"testing"

	"colsort/internal/record"
)

// The sort stages run once per pipeline round; with a Scratch they must not
// touch the allocator in steady state. These tests pin that property so
// pooling cannot silently regress.

func TestScratchSortIntoAllocs(t *testing.T) {
	const n, z = 1 << 14, 64
	src := record.Make(n, z)
	dst := record.Make(n, z)
	// Zipf sends the radix kernel through every path it has — full-width
	// histogram, ping-pong buffer, recursion, the introsort base case.
	for _, g := range []record.Generator{record.Uniform{Seed: 7}, record.Zipf{Seed: 7}} {
		record.Fill(src, g, 0)
		for _, alg := range []Algorithm{Intro, Radix} {
			var sc Scratch
			sc.SortIntoAlg(dst, src, alg) // warm the scratch
			allocs := testing.AllocsPerRun(5, func() {
				sc.SortIntoAlg(dst, src, alg)
			})
			if allocs != 0 {
				t.Errorf("%s %v: %v allocs per warm SortIntoAlg, want 0", g.Name(), alg, allocs)
			}
			if !dst.IsSorted() {
				t.Fatalf("%s %v: output not sorted", g.Name(), alg)
			}
		}
	}
}

// TestScratchFreeList: a Scratch handed back comes out again warm, and the
// list stays bounded.
func TestScratchFreeList(t *testing.T) {
	sc := GetScratch()
	src, dst := record.Make(256, 16), record.Make(256, 16)
	record.Fill(src, record.Uniform{Seed: 1}, 0)
	sc.SortInto(dst, src)
	PutScratch(sc)
	if again := GetScratch(); again != sc || cap(again.kvs) < 256 {
		t.Fatal("GetScratch did not return the warm scratch just put")
	}
	for i := 0; i < 2*maxFreeScratch; i++ {
		PutScratch(new(Scratch))
	}
	held := 0
	for _, ok := scratchFree.Get(); ok; _, ok = scratchFree.Get() {
		held++
	}
	if held != maxFreeScratch {
		t.Fatalf("free list holds %d scratches, want the bound %d", held, maxFreeScratch)
	}
}

func TestScratchMergeRunsIntoAllocs(t *testing.T) {
	const n, k, z = 1 << 12, 16, 16
	src := record.Make(n, z)
	record.Fill(src, record.Uniform{Seed: 3}, 0)
	for i := 0; i < k; i++ {
		Sort(src.Sub(i*n/k, (i+1)*n/k))
	}
	dst := record.Make(n, z)
	runs := ContiguousRuns(n, k)
	var sc Scratch
	sc.MergeRunsInto(dst, src, runs) // warm
	allocs := testing.AllocsPerRun(5, func() {
		sc.MergeRunsInto(dst, src, runs)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per warm MergeRunsInto, want 0", allocs)
	}
	if !dst.IsSorted() {
		t.Fatal("merge output not sorted")
	}
}

// TestScratchMatchesPackageLevel pins that the scratch-based paths produce
// byte-identical output to the allocating package-level entry points.
func TestScratchMatchesPackageLevel(t *testing.T) {
	const n, z = 1 << 10, 32
	src := record.Make(n, z)
	record.Fill(src, record.Uniform{Seed: 11}, 0)
	want := record.Make(n, z)
	got := record.Make(n, z)
	var sc Scratch
	for _, alg := range []Algorithm{Intro, Radix} {
		SortIntoAlg(want, src, alg)
		sc.SortIntoAlg(got, src, alg)
		if string(got.Data) != string(want.Data) {
			t.Errorf("%v: scratch output differs from package-level output", alg)
		}
	}
}
