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
	// Radix is adaptive radix sort on the key bits the records do not share
	// (radixKV), finished by comparison inside the groups its digits leave
	// equal so the result respects the full total order. What SortInto runs.
	Radix
)

func (a Algorithm) String() string {
	switch a {
	case Intro:
		return "intro"
	case Radix:
		return "radix"
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

// Limits of radixKV, set by BenchmarkLocalSort's matrix. A digit has at most
// radixMaxBits bits: the one-digit level reaches that at 16384 pairs (a
// 4096-counter histogram), the two-digit level at 2^18 (two of them, 64 KiB).
// Up to radixSmall pairs insertion beats another level — at twice that a
// reversed group loses to introsort.
const (
	radixMaxBits = 12
	radixSmall   = 16
)

// radixKV sorts a in the total order and returns the buffer that holds the
// result: a, or its ping-pong partner b (len(b) == len(a)). It is radix sort
// whose digits come from the data. diff has a bit set wherever two keys of a
// differ, so the bits above its highest one are a prefix every key shares and
// carry no order. A level sorts on the key bits just below that prefix:
//
//   - two stable LSD digits of d = min(⌊(lg n + 6)/2⌋, radixMaxBits) bits
//     each, when the keys differ in at least 2d bits and n pairs fill the two
//     histograms: one counting read, two scatters (a → b → a), and only
//     pairs equal in all 2d bits — about one in 64 on uniform keys — are
//     left out of order;
//   - else, or when the caller found the keys nearly in order (ordered, see
//     nearlyOrdered), one MSD digit of min(lg n − 2, radixMaxBits) bits, one
//     counting read and one scatter into b: buckets of about four pairs.
//
// A group of pairs the level left equal on its bits is then finished by
// insertion when it is small, by this function on the group's own remaining
// bits when it is large, and by introsort once the key bits are spent —
// payload ties, which no digit can see. Every level consumes at least one key
// bit before it recurses and the last resort is introsort, so the worst case
// stays O(n lg n). count is the caller's histogram, min(n, 2<<radixMaxBits)
// wide or more; no level needs it once its scatters are done, so the
// recursion shares it.
func radixKV(a, b []kv, diff uint64, ordered bool, src record.Slice, count []int) []kv {
	n := len(a)
	top := bits.Len64(diff)
	if n <= radixSmall || top == 0 {
		introsort(a, src, maxDepth(n))
		return a
	}
	if d := lsdBits(n, top, ordered); d > 0 {
		shift, mask := uint(top-2*d), uint64(1)<<d-1
		lo, hi := count[:1<<d], count[1<<d:2<<d]
		clear(count[:2<<d])
		for _, e := range a {
			k := e.key >> shift
			lo[k&mask]++
			hi[k>>d&mask]++
		}
		offsets(lo)
		offsets(hi)
		scatter(b, a, lo, shift, mask)
		scatter(a, b, hi, shift+uint(d), mask)
		finish(a, b, shift, src, count)
		return a
	}
	nb := min(bits.Len(uint(n))-3, radixMaxBits, top)
	shift, mask := uint(top-nb), uint64(1)<<nb-1
	h := count[:mask+1]
	clear(h)
	for _, e := range a {
		h[e.key>>shift&mask]++
	}
	offsets(h)
	scatter(b, a, h, shift, mask)
	finish(b, a, shift, src, count)
	return b
}

// nearlyOrdered reports whether n keys, falls of which are below their
// predecessor, come nearly in order — radixKV's first level then takes one
// MSD digit, whose scatter streams over them. The cutoff is where
// BenchmarkRadixLevels' ascending dense keys (record.NearlySorted's shape)
// with outliers cross over: one digit ahead up to n/32 falls from 4096 to
// 65536 pairs, two digits ahead from n/8 at 16384 pairs and up (DESIGN §2
// "Why two digits").
func nearlyOrdered(falls, n int) bool { return falls < n/16 }

// lsdBits is the width d of each digit of radixKV's two-digit level over n
// pairs whose keys differ in their low top bits, or 0 when the level takes
// one digit: the keys are nearly ordered, differ in fewer than 2d bits, or
// do not fill the two 2^d-counter histograms.
func lsdBits(n, top int, ordered bool) int {
	if d := min((bits.Len(uint(n))+5)/2, radixMaxBits); !ordered && 2*d <= top && 2<<d <= n {
		return d
	}
	return 0
}

// offsets turns a digit histogram into each digit's first position.
func offsets(count []int) {
	sum := 0
	for d, c := range count {
		count[d] = sum
		sum += c
	}
}

// scatter copies the pairs of src into dst by their digit key>>shift&mask,
// from the positions at: stably, so pairs of one digit keep their order.
func scatter(dst, src []kv, at []int, shift uint, mask uint64) {
	for _, e := range src {
		d := e.key >> shift & mask
		dst[at[d]] = e
		at[d]++
	}
}

// finish orders each group of x whose keys agree above shift — what a level's
// digits could not see — leaving the result in x, with y (as long) as the
// groups' ping-pong buffer. Groups are found by their keys, not read back from
// count: the recursion reuses it.
func finish(x, y []kv, shift uint, src record.Slice, count []int) {
	for lo, hi := 0, 0; lo < len(x); lo = hi {
		d, bdiff := x[lo].key>>shift, uint64(0)
		for hi = lo + 1; hi < len(x) && x[hi].key>>shift == d; hi++ {
			bdiff |= x[hi].key ^ x[lo].key
		}
		if hi-lo <= radixSmall {
			insertionKV(x, src, lo, hi)
		} else if r := radixKV(x[lo:hi], y[lo:hi], bdiff, false, src, count); &r[0] != &x[lo] {
			copy(x[lo:hi], r)
		}
	}
}
