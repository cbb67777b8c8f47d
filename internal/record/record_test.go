package record

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestCheckSize(t *testing.T) {
	valid := []int{8, 16, 24, 32, 64, 128, 256}
	for _, s := range valid {
		if err := CheckSize(s); err != nil {
			t.Errorf("CheckSize(%d) = %v, want nil", s, err)
		}
	}
	invalid := []int{0, 1, 4, 7, 9, 12, 20, -8}
	for _, s := range invalid {
		if err := CheckSize(s); err == nil {
			t.Errorf("CheckSize(%d) = nil, want error", s)
		}
	}
}

func TestKeyRoundTrip(t *testing.T) {
	rec := make([]byte, 16)
	keys := []uint64{0, 1, 42, 1 << 63, ^uint64(0), 0xdeadbeefcafebabe}
	for _, k := range keys {
		PutKey(rec, k)
		if got := Key(rec); got != k {
			t.Errorf("Key(PutKey(%x)) = %x", k, got)
		}
	}
}

func TestKeyByteOrderIsBigEndian(t *testing.T) {
	// Big-endian keys mean bytewise comparison agrees with numeric
	// comparison, which the radix sort relies on.
	a := make([]byte, 8)
	b := make([]byte, 8)
	PutKey(a, 0x0100000000000000)
	PutKey(b, 0x00ffffffffffffff)
	if bytes.Compare(a, b) <= 0 {
		t.Fatalf("big-endian ordering violated: % x vs % x", a, b)
	}
}

func TestNewSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSlice with ragged buffer did not panic")
		}
	}()
	NewSlice(make([]byte, 17), 16)
}

func TestSliceBasics(t *testing.T) {
	s := Make(4, 16)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	for i := 0; i < 4; i++ {
		s.SetKey(i, uint64(10-i))
	}
	if s.IsSorted() {
		t.Fatal("descending slice reported sorted")
	}
	for i := 0; i < 4; i++ {
		s.SetKey(i, uint64(7+i))
	}
	if !s.IsSorted() {
		t.Fatal("ascending slice not sorted")
	}
	sub := s.Sub(1, 3)
	if sub.Len() != 2 || sub.Key(0) != 8 || sub.Key(1) != 9 {
		t.Fatalf("Sub wrong: keys %d %d", sub.Key(0), sub.Key(1))
	}
}

func TestCopyEdgeCases(t *testing.T) {
	src := Make(4, 16)
	Fill(src, Uniform{Seed: 1}, 0)

	// Equal sizes: all records copied.
	dst := Make(4, 16)
	if n := dst.Copy(src); n != 4 {
		t.Fatalf("Copy equal: %d records, want 4", n)
	}
	if !bytes.Equal(dst.Data, src.Data) {
		t.Fatal("Copy equal: contents differ")
	}

	// Shorter destination: truncates to destination length.
	short := Make(2, 16)
	if n := short.Copy(src); n != 2 {
		t.Fatalf("Copy into shorter: %d records, want 2", n)
	}
	if !bytes.Equal(short.Data, src.Data[:2*16]) {
		t.Fatal("Copy into shorter: wrong prefix")
	}

	// Longer destination: copies only the source records.
	long := Make(6, 16)
	if n := long.Copy(src); n != 4 {
		t.Fatalf("Copy into longer: %d records, want 4", n)
	}

	// Empty source and destination are no-ops.
	if n := dst.Copy(Slice{Size: 16}); n != 0 {
		t.Fatalf("Copy from empty: %d records, want 0", n)
	}
	if n := (Slice{Size: 16}).Copy(src); n != 0 {
		t.Fatalf("Copy into empty: %d records, want 0", n)
	}

	// CopyRecord between different positions, aliasing-free.
	a := Make(2, 16)
	Fill(a, Uniform{Seed: 2}, 0)
	b := Make(2, 16)
	b.CopyRecord(1, a, 0)
	if !bytes.Equal(b.Record(1), a.Record(0)) {
		t.Fatal("CopyRecord copied wrong bytes")
	}
}

func TestLessTieBreaksOnPayload(t *testing.T) {
	s := Make(2, 16)
	s.SetKey(0, 7)
	s.SetKey(1, 7)
	s.Record(0)[15] = 1
	s.Record(1)[15] = 2
	if !s.Less(0, 1) || s.Less(1, 0) {
		t.Fatal("payload tie-break wrong")
	}
	if Compare(s, 0, s, 1) != -1 || Compare(s, 1, s, 0) != 1 || Compare(s, 0, s, 0) != 0 {
		t.Fatal("Compare tie-break wrong")
	}
}

func TestCopyRecord(t *testing.T) {
	a := Make(2, 16)
	b := Make(2, 16)
	a.SetKey(0, 11)
	a.SetKey(1, 22)
	b.CopyRecord(1, a, 0)
	if b.Key(1) != 11 {
		t.Fatalf("CopyRecord: got key %d, want 11", b.Key(1))
	}
}

func TestFillKey(t *testing.T) {
	s := Make(3, 32)
	s.FillKey(MaxKey)
	for i := 0; i < 3; i++ {
		if s.Key(i) != MaxKey {
			t.Fatalf("record %d key = %x", i, s.Key(i))
		}
		for j := KeyBytes; j < 32; j++ {
			if s.Record(i)[j] != 0 {
				t.Fatalf("record %d payload byte %d nonzero", i, j)
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range Names() {
		g, ok := ByName(name, 42)
		if !ok {
			t.Fatalf("ByName(%q) failed", name)
		}
		a := make([]byte, 64)
		b := make([]byte, 64)
		for idx := int64(0); idx < 100; idx += 17 {
			g.Gen(a, idx)
			g.Gen(b, idx)
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: Gen not deterministic at idx %d", name, idx)
			}
		}
	}
}

func TestGeneratorsSeedSensitive(t *testing.T) {
	// Different seeds must give different streams (except Sorted/Reverse
	// keys, whose keys are index-determined; their payloads still differ).
	for _, name := range Names() {
		g1, _ := ByName(name, 1)
		g2, _ := ByName(name, 2)
		a := make([]byte, 64)
		b := make([]byte, 64)
		same := 0
		for idx := int64(0); idx < 64; idx++ {
			g1.Gen(a, idx)
			g2.Gen(b, idx)
			if bytes.Equal(a, b) {
				same++
			}
		}
		if same == 64 {
			t.Errorf("%s: seeds 1 and 2 produce identical streams", name)
		}
	}
}

func TestSortedAndReverseShape(t *testing.T) {
	s := Make(128, 16)
	Fill(s, Sorted{Seed: 9}, 0)
	if !s.IsSorted() {
		t.Fatal("Sorted generator output not sorted")
	}
	Fill(s, Reverse{Seed: 9}, 0)
	for i := 1; i < s.Len(); i++ {
		if s.Key(i) >= s.Key(i-1) {
			t.Fatal("Reverse generator output not strictly decreasing")
		}
	}
}

func TestNearlySortedWindow(t *testing.T) {
	s := Make(4096, 16)
	Fill(s, NearlySorted{Seed: 5, Window: 64}, 0)
	// Key at index i is in [64i, 64i+64); so displacement after sorting is
	// bounded: key order can differ from index order by at most 1 position
	// groupings. Just check monotone up to the window.
	for i := 2; i < s.Len(); i++ {
		if s.Key(i)+64 < s.Key(i-2) {
			t.Fatalf("nearly-sorted keys drifted more than window at %d", i)
		}
	}
}

func TestDupDistinctCount(t *testing.T) {
	s := Make(10000, 16)
	Fill(s, Dup{Seed: 3, K: 7}, 0)
	seen := map[uint64]bool{}
	for i := 0; i < s.Len(); i++ {
		seen[s.Key(i)] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Dup K=7 produced %d distinct keys", len(seen))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, ok := ByName("nope", 1); ok {
		t.Fatal("ByName accepted unknown generator")
	}
}

func TestChecksumOrderIndependence(t *testing.T) {
	s := Make(256, 32)
	Fill(s, Uniform{Seed: 77}, 0)
	var fwd, rev Checksum
	for i := 0; i < s.Len(); i++ {
		fwd.Add(s.Record(i))
	}
	for i := s.Len() - 1; i >= 0; i-- {
		rev.Add(s.Record(i))
	}
	if !fwd.Equal(rev) {
		t.Fatal("checksum depends on order")
	}
}

func TestChecksumDetectsMutation(t *testing.T) {
	s := Make(64, 32)
	Fill(s, Uniform{Seed: 1}, 0)
	var a Checksum
	a.AddSlice(s)
	s.Record(10)[20] ^= 1
	var b Checksum
	b.AddSlice(s)
	if a.Equal(b) {
		t.Fatal("checksum missed a single-bit mutation")
	}
}

func TestChecksumDetectsDuplication(t *testing.T) {
	// Replacing a record with a copy of another (preserving count) must be
	// detected; a pure xor fingerprint would be fooled by pair swaps.
	s := Make(64, 16)
	Fill(s, Uniform{Seed: 2}, 0)
	var a Checksum
	a.AddSlice(s)
	s.CopyRecord(1, s, 0) // now record 0 appears twice
	var b Checksum
	b.AddSlice(s)
	if a.Equal(b) {
		t.Fatal("checksum missed duplicated record")
	}
	if a.Count != b.Count {
		t.Fatal("counts should match in this scenario")
	}
}

func TestChecksumMergeMatchesWhole(t *testing.T) {
	s := Make(100, 16)
	Fill(s, Uniform{Seed: 5}, 0)
	var whole Checksum
	whole.AddSlice(s)
	var left, right Checksum
	left.AddSlice(s.Sub(0, 37))
	right.AddSlice(s.Sub(37, 100))
	left.Merge(right)
	if !left.Equal(whole) {
		t.Fatal("merged partial checksums != whole checksum")
	}
}

// TestAddSliceMatchesAdd: AddSlice hashes four records at a time; every
// count around its groups of four, at every record size class and from
// sub-slices that start mid-buffer, must give Add's values record by record
// (manifests persist them).
func TestAddSliceMatchesAdd(t *testing.T) {
	for _, z := range []int{8, 16, 24, 32, 64, 128, 136} {
		buf := Make(12, z)
		Fill(buf, Uniform{Seed: uint64(z)}, 0)
		for lo := 0; lo <= 3; lo++ {
			for n := 0; n <= 9; n++ {
				s := buf.Sub(lo, lo+n)
				var bulk, one Checksum
				bulk.AddSlice(s)
				for i := 0; i < n; i++ {
					one.Add(s.Record(i))
				}
				if bulk != one {
					t.Fatalf("z=%d records [%d,%d): AddSlice %+v, Add %+v", z, lo, lo+n, bulk, one)
				}
			}
		}
	}
}

func TestOfGeneratedMatchesFill(t *testing.T) {
	g := Uniform{Seed: 123}
	s := Make(500, 64)
	Fill(s, g, 0)
	var direct Checksum
	direct.AddSlice(s)
	if got := OfGenerated(g, 500, 64); !got.Equal(direct) {
		t.Fatal("OfGenerated disagrees with Fill+AddSlice")
	}
}

func TestChecksumQuick(t *testing.T) {
	// Property: permuting a slice never changes its checksum.
	f := func(keys []uint64) bool {
		if len(keys) == 0 {
			return true
		}
		s := Make(len(keys), 16)
		for i, k := range keys {
			s.SetKey(i, k)
		}
		var a Checksum
		a.AddSlice(s)
		// Rotate by 1 and reverse: two permutations.
		s2 := Make(len(keys), 16)
		for i := range keys {
			s2.CopyRecord(i, s, (i+1)%len(keys))
		}
		var b Checksum
		b.AddSlice(s2)
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHash64Mixes(t *testing.T) {
	// Sanity: nearby inputs map to far-apart outputs.
	if Hash64(1) == Hash64(2) {
		t.Fatal("Hash64 collision on adjacent inputs")
	}
}
