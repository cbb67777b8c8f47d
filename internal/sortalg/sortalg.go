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
	"math/bits"

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
	// recursion depth degenerates. The radix kernel's base case, and the
	// comparison sort the tests hold it against.
	Intro Algorithm = iota
	// Radix is adaptive MSD radix sort on the key bits the records do not
	// share (radixKV), finished by comparison inside the buckets so the
	// result respects the full total order. What SortInto runs.
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

// SortInto sorts the records of src into dst with the adaptive radix kernel.
// dst and src must have the same record size and length and must not alias.
// It allocates per call; pipeline code should prefer Scratch.SortInto.
func SortInto(dst, src record.Slice) {
	SortIntoAlg(dst, src, Radix)
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

// Limits of radixKV, set by BenchmarkLocalSort's matrix: a pass distributes on
// at most radixMaxBits bits (a 32 KiB histogram: one bit less leaves a
// 16384-record column buckets of eight, one more doubles the histogram for no
// measured gain at 65536), and up to radixSmall pairs insertion beats another
// pass — at twice that a reversed bucket loses to introsort.
const (
	radixMaxBits = 12
	radixSmall   = 16
)

// radixKV sorts a in the total order and returns the buffer that holds the
// result: a, or its ping-pong partner b (len(b) == len(a)). It is MSD radix
// sort whose digit comes from the data. diff has a bit set wherever two keys
// of a differ, so the bits above its highest one are a prefix every key
// shares and carry no order: one counting pass and one scatter distribute on
// the b ≈ lg n − 2 bits just below it (buckets of about four pairs), and the
// order inside a bucket is finished by insertion when it is small, by this
// function on the bucket's own remaining bits when it is large, and by
// introsort once the key bits are spent — payload ties, which no digit can
// see. Every level consumes at least one key bit before it recurses and the
// last resort is introsort, so the worst case stays O(n lg n). count is the
// caller's histogram, min(n, 1<<radixMaxBits) wide or more; no level needs it
// once its scatter is done, so the recursion shares it.
func radixKV(a, b []kv, diff uint64, src record.Slice, count []int) []kv {
	n := len(a)
	top := bits.Len64(diff)
	if n <= radixSmall || top == 0 {
		introsort(a, src, maxDepth(n))
		return a
	}
	nb := min(bits.Len(uint(n))-3, radixMaxBits, top)
	shift := uint(top - nb)
	mask := uint64(1)<<nb - 1
	count = count[:mask+1]
	clear(count)
	for _, e := range a {
		count[e.key>>shift&mask]++
	}
	sum := 0
	for d, c := range count {
		count[d] = sum
		sum += c
	}
	for _, e := range a {
		d := e.key >> shift & mask
		b[count[d]] = e
		count[d]++
	}
	// Buckets are found by their digit, not read back from count: the
	// recursion below has reused it by then.
	for lo, hi := 0, 0; lo < n; lo = hi {
		d, bdiff := b[lo].key>>shift, uint64(0)
		for hi = lo + 1; hi < n && b[hi].key>>shift == d; hi++ {
			bdiff |= b[hi].key ^ b[lo].key
		}
		if hi-lo <= radixSmall {
			insertionKV(b, src, lo, hi)
		} else if r := radixKV(b[lo:hi], a[lo:hi], bdiff, src, count); &r[0] != &b[lo] {
			copy(b[lo:hi], r)
		}
	}
	return b
}
