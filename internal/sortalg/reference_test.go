package sortalg

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"colsort/internal/record"
)

// referenceSort sorts via the standard library on extracted (key, payload)
// copies — the independent oracle for the hand-written sorts.
func referenceSort(src record.Slice) record.Slice {
	n := src.Len()
	recs := make([][]byte, n)
	for i := 0; i < n; i++ {
		recs[i] = append([]byte(nil), src.Record(i)...)
	}
	sort.Slice(recs, func(a, b int) bool { return bytes.Compare(recs[a], recs[b]) < 0 })
	out := record.Make(n, src.Size)
	for i, r := range recs {
		copy(out.Record(i), r)
	}
	return out
}

// TestAgainstStdlibReference cross-checks every algorithm against
// sort.Slice on randomized inputs. Byte order equals the total order here
// because keys are big-endian prefixes.
func TestAgainstStdlibReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(600)
		z := []int{16, 24, 64}[rng.Intn(3)]
		src := record.Make(n, z)
		for i := 0; i < n; i++ {
			// Mix tiny key ranges (many ties) with full-range keys.
			var k uint64
			if rng.Intn(2) == 0 {
				k = uint64(rng.Intn(4))
			} else {
				k = rng.Uint64()
			}
			src.SetKey(i, k)
			for off := record.KeyBytes; off+8 <= z; off += 8 {
				binary.BigEndian.PutUint64(src.Record(i)[off:], uint64(rng.Int63n(3)))
			}
		}
		want := referenceSort(src)
		for _, alg := range []Algorithm{Intro, Radix} {
			dst := record.Make(n, z)
			SortIntoAlg(dst, src, alg)
			if !bytes.Equal(dst.Data, want.Data) {
				t.Fatalf("trial %d n=%d z=%d %v: differs from stdlib reference", trial, n, z, alg)
			}
		}
		if dst := heapSortInto(src); !bytes.Equal(dst.Data, want.Data) {
			t.Fatalf("trial %d n=%d z=%d: heapsort differs from stdlib reference", trial, n, z)
		}
		// Merging detected runs must also match.
		if n > 0 {
			dst := record.Make(n, z)
			new(Scratch).MergeRunsInto(dst, src, detectRuns(src))
			if !bytes.Equal(dst.Data, want.Data) {
				t.Fatalf("trial %d: run-merge differs from stdlib reference", trial)
			}
		}
	}
}

// FuzzSortInto lets `go test -fuzz` explore raw key streams; under plain
// `go test` only the seed corpus runs.
func FuzzSortInto(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(make([]byte, 64))
	for _, src := range kernelCases() {
		f.Add(src.Data)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 16
		if n == 0 {
			return
		}
		src := record.NewSlice(append([]byte(nil), raw[:n*16]...), 16)
		want := referenceSort(src)
		for _, alg := range []Algorithm{Intro, Radix} {
			dst := record.Make(n, 16)
			SortIntoAlg(dst, src, alg)
			if !bytes.Equal(dst.Data, want.Data) {
				t.Fatalf("%v differs from reference on %d records", alg, n)
			}
		}
	})
}

// heapSortInto is standalone heapsort — introsort's depth fallback run over
// the whole input. No caller selects it any more; it stays here as a sorting
// oracle that shares no partitioning or digit logic with Intro and Radix,
// and so that the fallback is exercised on more than degenerate recursions.
func heapSortInto(src record.Slice) record.Slice {
	dst := record.Make(src.Len(), src.Size)
	kvs := make([]kv, src.Len())
	for i := range kvs {
		kvs[i] = kv{key: src.Key(i), idx: int32(i)}
	}
	heapsortKV(kvs, src)
	gather([]record.Slice{dst}, false, src, kvs)
	return dst
}
