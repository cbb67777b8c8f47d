// Package sortalg provides the local (single-processor, in-memory) sorting
// machinery used by the sort stages of every out-of-core columnsort pass.
//
// Records can be wide (64–128 bytes in the paper), so comparison sorts here
// never swap whole records: they sort compact (key, index) pairs and then
// gather records into a destination buffer in one linear pass. The pipeline
// wants a fresh output buffer anyway, so the gather is free.
//
// All sorts order records by the total order of record.Slice.Less: by key,
// then by payload bytes. Using a total order makes outputs of different
// algorithms byte-identical on identical multisets, which the cross-checking
// tests in internal/core rely on.
package sortalg

import (
	"fmt"

	"colsort/internal/record"
)

// kv is the compact sort element: the record's key plus its index in the
// source buffer. 32-bit indices bound single-buffer sorts to 2^31 records
// (far above any per-processor buffer in this system; New panics otherwise).
type kv struct {
	key uint64
	idx int32
}

// Algorithm selects the comparison/distribution sort used for a sort stage.
type Algorithm int

const (
	// Intro is pattern-defeating introsort: quicksort with median-of-three
	// pivots, insertion sort on small partitions, and heapsort when the
	// recursion depth degenerates. The default.
	Intro Algorithm = iota
	// Radix is LSD radix sort on the 64-bit key (four 16-bit digit passes),
	// with comparison refinement of equal-key runs so the result respects
	// the full total order.
	Radix
	// Insertion is plain binary insertion sort; only sensible for tiny
	// inputs and as the introsort base case.
	Insertion
)

func (a Algorithm) String() string {
	switch a {
	case Intro:
		return "intro"
	case Radix:
		return "radix"
	case Insertion:
		return "insertion"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// SortInto sorts the records of src into dst using introsort.
// dst and src must have the same record size and length and must not alias.
// It allocates per call; pipeline code should prefer Scratch.SortInto.
func SortInto(dst, src record.Slice) {
	SortIntoAlg(dst, src, Intro)
}

// SortIntoAlg sorts src into dst with an explicit algorithm choice. It
// allocates per call; pipeline code should prefer Scratch.SortIntoAlg.
func SortIntoAlg(dst, src record.Slice, alg Algorithm) {
	var sc Scratch
	sc.SortIntoAlg(dst, src, alg)
}

func badAlg(alg Algorithm) string {
	return fmt.Sprintf("sortalg: unknown algorithm %d", int(alg))
}

// Sort sorts s in place, allocating a scratch buffer. Prefer SortInto in
// pipeline code where buffers are pooled.
func Sort(s record.Slice) {
	tmp := record.Make(s.Len(), s.Size)
	SortInto(tmp, s)
	s.Copy(tmp)
}

func checkInto(dst, src record.Slice) {
	if dst.Size != src.Size || dst.Len() != src.Len() {
		panic(fmt.Sprintf("sortalg: dst %d×%dB and src %d×%dB mismatch",
			dst.Len(), dst.Size, src.Len(), src.Size))
	}
	if src.Len() > 1<<31-1 {
		panic("sortalg: buffer exceeds 2^31 records")
	}
}

func gather(dst, src record.Slice, kvs []kv) {
	for i, e := range kvs {
		dst.CopyRecord(i, src, int(e.idx))
	}
}

// less orders kv pairs by key then by the underlying record payload.
func less(a, b kv, src record.Slice) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.idx == b.idx {
		return false
	}
	return src.Less(int(a.idx), int(b.idx))
}

func maxDepth(n int) int {
	d := 0
	for n > 0 {
		d++
		n >>= 1
	}
	return d * 2
}

// introsort sorts kvs[lo:hi] — here always the whole slice — degrading to
// heapsort at depth 0 to defeat quicksort-killer inputs.
func introsort(kvs []kv, src record.Slice, depth int) {
	for len(kvs) > 24 {
		if depth == 0 {
			heapsortKV(kvs, src)
			return
		}
		depth--
		p := partition(kvs, src)
		// Recurse on the smaller side, loop on the larger: O(log n) stack.
		if p < len(kvs)-p-1 {
			introsort(kvs[:p], src, depth)
			kvs = kvs[p+1:]
		} else {
			introsort(kvs[p+1:], src, depth)
			kvs = kvs[:p]
		}
	}
	insertionKV(kvs, src, 0, len(kvs))
}

// partition performs a Hoare-style partition with a median-of-three pivot,
// returning the pivot's final index.
func partition(kvs []kv, src record.Slice) int {
	n := len(kvs)
	mid := n / 2
	// Order kvs[0], kvs[mid], kvs[n-1]; use kvs[mid] as pivot.
	if less(kvs[mid], kvs[0], src) {
		kvs[mid], kvs[0] = kvs[0], kvs[mid]
	}
	if less(kvs[n-1], kvs[0], src) {
		kvs[n-1], kvs[0] = kvs[0], kvs[n-1]
	}
	if less(kvs[n-1], kvs[mid], src) {
		kvs[n-1], kvs[mid] = kvs[mid], kvs[n-1]
	}
	// Move pivot to n-2 and partition kvs[1:n-1].
	kvs[mid], kvs[n-2] = kvs[n-2], kvs[mid]
	pivot := kvs[n-2]
	i, j := 0, n-2
	for {
		for i++; less(kvs[i], pivot, src); i++ {
		}
		for j--; less(pivot, kvs[j], src); j-- {
		}
		if i >= j {
			break
		}
		kvs[i], kvs[j] = kvs[j], kvs[i]
	}
	kvs[i], kvs[n-2] = kvs[n-2], kvs[i]
	return i
}

func insertionKV(kvs []kv, src record.Slice, lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		e := kvs[i]
		j := i - 1
		for j >= lo && less(e, kvs[j], src) {
			kvs[j+1] = kvs[j]
			j--
		}
		kvs[j+1] = e
	}
}

func heapsortKV(kvs []kv, src record.Slice) {
	n := len(kvs)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(kvs, i, n, src)
	}
	for end := n - 1; end > 0; end-- {
		kvs[0], kvs[end] = kvs[end], kvs[0]
		siftDown(kvs, 0, end, src)
	}
}

func siftDown(kvs []kv, root, end int, src record.Slice) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && less(kvs[child], kvs[child+1], src) {
			child++
		}
		if !less(kvs[root], kvs[child], src) {
			return
		}
		kvs[root], kvs[child] = kvs[child], kvs[root]
		root = child
	}
}

// radixBuckets is the histogram width of the 16-bit-digit radix passes.
const radixBuckets = 1 << 16

// radixKV sorts kvs by key with 4 LSD passes of 16-bit digits, then refines
// equal-key runs with introsort so payload ties respect the total order.
// tmp is the caller-supplied ping-pong buffer, len(tmp) ≥ len(kvs), and
// count the caller-supplied histogram (the array is 512 KiB — far past the
// stack limit — so a per-call local would charge the allocator every sort).
func radixKV(kvs []kv, src record.Slice, tmp []kv, count []int) {
	n := len(kvs)
	if n < 2 {
		return
	}
	const bits = 16
	const buckets = radixBuckets
	count = count[:buckets]
	a, b := kvs, tmp[:n]
	for shift := uint(0); shift < 64; shift += bits {
		for i := range count {
			count[i] = 0
		}
		for _, e := range a {
			count[(e.key>>shift)&(buckets-1)]++
		}
		// Skip passes where all keys share the digit.
		if count[(a[0].key>>shift)&(buckets-1)] == n {
			continue
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for _, e := range a {
			d := (e.key >> shift) & (buckets - 1)
			b[count[d]] = e
			count[d]++
		}
		a, b = b, a
	}
	if &a[0] != &kvs[0] {
		copy(kvs, a)
	}
	// Refine runs of equal keys by payload.
	i := 0
	for i < n {
		j := i + 1
		for j < n && kvs[j].key == kvs[i].key {
			j++
		}
		if j-i > 1 {
			introsort(kvs[i:j], src, maxDepth(j-i))
		}
		i = j
	}
}
