package record

import (
	"bytes"
	"testing"
)

// FuzzKeySpecRoundTrip fuzzes the KeySpec → KeyCodec compiler and the
// encode/decode byte permutation: for ANY spec and record bytes, Compile
// must either reject the spec with an error (never panic) or produce a
// codec whose Decode exactly inverts Encode — and whose normalized byte
// order realizes the spec's field order, the property the whole pluggable
// key schema rests on.
func FuzzKeySpecRoundTrip(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), 4, 8, false)
	f.Add([]byte("una columna bien ordenada por ti"), 0, 0, true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 0, 0, 0, 0, 0}, 7, 9, true)
	f.Fuzz(func(t *testing.T, data []byte, off, width int, desc bool) {
		size := (len(data) / 2 / 8) * 8 // two records of a legal size
		if size < MinSize {
			return
		}
		if size > 512 {
			size = 512
		}
		ks := KeySpec{Offset: off, Width: width}
		if desc {
			ks.Order = Descending
		}
		codec, err := ks.Compile(size)
		if err != nil {
			return // invalid specs must error — not panicking IS the test
		}
		w := width
		if w == 0 {
			w = KeyBytes
		}

		a := append([]byte(nil), data[:size]...)
		b := append([]byte(nil), data[size:2*size]...)
		origA := append([]byte(nil), a...)
		origB := append([]byte(nil), b...)

		codec.EncodeRecord(a)
		codec.EncodeRecord(b)

		// Normalized order realizes the field order: when the fields
		// differ, bytes.Compare over normalized records must agree with the
		// (direction-adjusted) comparison of the raw field bytes.
		fieldCmp := bytes.Compare(origA[off:off+w], origB[off:off+w])
		if desc {
			fieldCmp = -fieldCmp
		}
		if fieldCmp != 0 {
			if got := bytes.Compare(a, b); got != fieldCmp {
				t.Fatalf("spec %v: normalized order %d, field order %d", ks, got, fieldCmp)
			}
		}

		codec.DecodeRecord(a)
		codec.DecodeRecord(b)
		if !bytes.Equal(a, origA) || !bytes.Equal(b, origB) {
			t.Fatalf("spec %v on %d-byte records: decode(encode(x)) != x", ks, size)
		}

		// The slice forms must match the record forms.
		s := Make(2, size)
		copy(s.Record(0), origA)
		copy(s.Record(1), origB)
		codec.Encode(s)
		codec.Decode(s)
		if !bytes.Equal(s.Record(0), origA) || !bytes.Equal(s.Record(1), origB) {
			t.Fatalf("spec %v: slice Encode/Decode round trip failed", ks)
		}
	})
}

// FuzzChecksum holds AddSlice — the AVX-512 kernel where this CPU has it, the
// four-lane loop behind it — to Add record by record: n ∈ [0, 300] records of
// z = 8k bytes, k ∈ [1, 32], taken from the fuzzer's bytes (repeated to
// length, each repetition xored with its number so records differ) from a
// start offset that need not be word-aligned.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte("columnsort"), uint8(7), uint16(33), uint8(0))
	f.Add([]byte{0xff, 0, 0x80}, uint8(0), uint16(16), uint8(3))
	f.Add([]byte{}, uint8(16), uint16(300), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, k uint8, n uint16, off uint8) {
		z, cnt, lo := 8*(int(k)%32+1), int(n)%301, int(off)%64
		buf := make([]byte, lo+cnt*z)
		for i := range buf {
			if len(data) > 0 {
				buf[i] = data[i%len(data)] ^ byte(i/len(data))
			}
		}
		s := Slice{Data: buf[lo:], Size: z}
		var bulk, one Checksum
		bulk.AddSlice(s)
		for i := 0; i < cnt; i++ {
			one.Add(s.Record(i))
		}
		if bulk != one {
			t.Fatalf("%d records of %d bytes at offset %d: AddSlice %+v, Add %+v", cnt, z, lo, bulk, one)
		}
	})
}
