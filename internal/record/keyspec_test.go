package record

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func randRecords(t *testing.T, rng *rand.Rand, n, size int) Slice {
	t.Helper()
	s := Make(n, size)
	rng.Read(s.Data)
	return s
}

// fieldLess orders two raw records by the spec'd field bytes
// (lexicographic big-endian), honoring Order — the reference semantics a
// compiled codec must realize through the engine's native comparison.
func fieldLess(spec KeySpec, a, b []byte) (less, eq bool) {
	w := spec.Width
	if w == 0 {
		w = KeyBytes
	}
	fa := a[spec.Offset : spec.Offset+w]
	fb := b[spec.Offset : spec.Offset+w]
	switch c := bytes.Compare(fa, fb); {
	case c == 0:
		return false, true
	case spec.Order == Descending:
		return c > 0, false
	default:
		return c < 0, false
	}
}

func TestKeyCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{8, 16, 64, 128} {
		for _, spec := range []KeySpec{
			{},
			{Offset: 0, Width: 4},
			{Offset: 4, Width: 4},
			{Offset: 8, Width: 8},
			{Offset: 3, Width: 2},
			{Offset: 0, Width: 16},
			{Offset: 5, Width: 11},
			{Offset: size - 8, Width: 8},
			{Offset: 2, Width: 6, Order: Descending},
			{Offset: 8, Width: 8, Order: Descending},
			{Order: Descending},
		} {
			if spec.Offset+max(spec.Width, 1) > size {
				continue
			}
			t.Run(fmt.Sprintf("z%d_%v", size, spec), func(t *testing.T) {
				c, err := spec.Compile(size)
				if err != nil {
					t.Fatal(err)
				}
				s := randRecords(t, rng, 37, size)
				orig := append([]byte(nil), s.Data...)
				c.Encode(s)
				if spec.Offset == 0 && spec.Order == Ascending && !bytes.Equal(orig, s.Data) {
					t.Fatal("identity codec modified records")
				}
				c.Decode(s)
				if !bytes.Equal(orig, s.Data) {
					t.Fatal("Decode(Encode(x)) != x")
				}
			})
		}
	}
}

func TestKeyCodecOrderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, spec := range []KeySpec{
		{Offset: 16, Width: 8},
		{Offset: 16, Width: 8, Order: Descending},
		{Offset: 7, Width: 3},
		{Offset: 1, Width: 1, Order: Descending}, // heavy ties
		{Offset: 40, Width: 24},
		{Offset: 0, Width: 2},
	} {
		t.Run(spec.String(), func(t *testing.T) {
			const size, n = 64, 200
			c, err := spec.Compile(size)
			if err != nil {
				t.Fatal(err)
			}
			s := randRecords(t, rng, n, size)
			// Force ties: duplicate some field values.
			for i := 0; i < n; i += 5 {
				copy(s.Record(i)[spec.Offset:spec.Offset+spec.Width],
					s.Record(0)[spec.Offset:spec.Offset+spec.Width])
			}
			orig := append([]byte(nil), s.Data...)

			// Sort normalized records with the engine's native comparison.
			c.Encode(s)
			s = engineSort(s)
			c.Decode(s)

			// The result must be nondecreasing in the spec'd field order.
			for i := 1; i < n; i++ {
				if less, _ := fieldLess(spec, s.Record(i), s.Record(i-1)); less {
					t.Fatalf("record %d out of field order", i)
				}
			}
			// And a permutation of the input (multiset preserved).
			var a, b Checksum
			a.AddSlice(Slice{Data: orig, Size: size})
			b.AddSlice(s)
			if !a.Equal(b) {
				t.Fatal("sort through codec lost records")
			}
		})
	}
}

// engineSort returns s sorted exactly as the engine orders records: Less
// (8-byte big-endian key at offset 0, payload tie-break), by sorting indices
// and gathering.
func engineSort(s Slice) Slice {
	idx := make([]int, s.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.Less(idx[a], idx[b]) })
	out := Make(s.Len(), s.Size)
	for i, k := range idx {
		out.CopyRecord(i, s, k)
	}
	return out
}

func TestKeyCodecPadIsMaximal(t *testing.T) {
	// Padded sorts append all-0xFF records in NORMALIZED space; they must
	// compare ≥ every normalized real record under the engine order, for
	// any spec — that is what makes prefix trimming exact.
	rng := rand.New(rand.NewSource(3))
	for _, spec := range []KeySpec{{Offset: 16, Width: 4}, {Offset: 3, Width: 9, Order: Descending}} {
		c, err := spec.Compile(32)
		if err != nil {
			t.Fatal(err)
		}
		s := randRecords(t, rng, 65, 32)
		c.Encode(s)
		pad := Make(1, 32)
		for i := range pad.Data {
			pad.Data[i] = 0xff
		}
		for i := 0; i < s.Len(); i++ {
			if Compare(pad, 0, s, i) < 0 {
				t.Fatalf("%v: pad sorts before a normalized record", spec)
			}
		}
	}
}

func TestKeySpecCompileErrors(t *testing.T) {
	cases := []struct {
		spec KeySpec
		size int
	}{
		{KeySpec{Offset: -1}, 64},
		{KeySpec{Offset: 60, Width: 8}, 64},
		{KeySpec{Offset: 64}, 64},
		{KeySpec{Width: -2}, 64},
		{KeySpec{Order: Order(7)}, 64},
		{KeySpec{}, 12}, // bad record size
	}
	for _, tc := range cases {
		if _, err := tc.spec.Compile(tc.size); err == nil {
			t.Errorf("Compile(%v, %d) accepted", tc.spec, tc.size)
		}
	}
}

func TestKeyCodecAllocs(t *testing.T) {
	c, err := KeySpec{Offset: 16, Width: 8, Order: Descending}.Compile(64)
	if err != nil {
		t.Fatal(err)
	}
	s := Make(128, 64)
	if n := testing.AllocsPerRun(50, func() {
		c.Encode(s)
		c.Decode(s)
	}); n != 0 {
		t.Fatalf("Encode+Decode allocated %.1f times per run", n)
	}
}
