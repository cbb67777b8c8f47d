// Key schema support: the engine sorts by the first 8 bytes of each record
// (big-endian, ascending, payload tie-break — see record.go). Real workloads
// carry their key elsewhere in the record (a timestamp in a log entry, an
// amplitude in a seismic trace). A KeySpec names that field, and compiles to
// a KeyCodec: a reversible in-place byte permutation that moves the field to
// the front of the record (complemented for descending order), so that the
// engine's hardwired comparison realizes the requested field order with NO
// change to — and no per-comparison cost in — any sorting kernel. The
// permutation is undone on egress, so callers never see normalized bytes.

package record

import "fmt"

// Order is the direction of a key field's sort.
type Order int

const (
	// Ascending sorts smallest key field first (the default).
	Ascending Order = iota
	// Descending sorts largest key field first.
	Descending
)

func (o Order) String() string {
	if o == Descending {
		return "descending"
	}
	return "ascending"
}

// KeySpec describes where the sort key lives inside a record and in which
// direction to sort it. The zero value is the engine's native key: 8 bytes
// at offset 0, ascending.
//
// The field is compared as a big-endian unsigned integer when Width ≤ 8 and
// lexicographically by bytes for any width — the two coincide for fields
// whose byte order is big-endian, which is also the library's own key
// convention. Records tied on the field are ordered by their remaining bytes
// so that every sort is a deterministic total order.
type KeySpec struct {
	// Offset is the byte offset of the key field within the record.
	Offset int
	// Width is the field width in bytes; 0 means 8.
	Width int
	// Order is Ascending (default) or Descending.
	Order Order
}

func (ks KeySpec) String() string {
	w := ks.Width
	if w == 0 {
		w = KeyBytes
	}
	return fmt.Sprintf("key[%d:%d] %v", ks.Offset, ks.Offset+w, ks.Order)
}

// Compile validates the spec against a record size and returns the codec
// realizing it. The zero KeySpec compiles to the identity codec.
func (ks KeySpec) Compile(recSize int) (KeyCodec, error) {
	w := ks.Width
	if w == 0 {
		w = KeyBytes
	}
	if err := CheckSize(recSize); err != nil {
		return KeyCodec{}, err
	}
	if ks.Order != Ascending && ks.Order != Descending {
		return KeyCodec{}, fmt.Errorf("record: unknown key order %d", int(ks.Order))
	}
	if w < 1 {
		return KeyCodec{}, fmt.Errorf("record: key width %d must be ≥ 1", w)
	}
	if ks.Offset < 0 || ks.Offset+w > recSize {
		return KeyCodec{}, fmt.Errorf("record: key field [%d:%d) outside %d-byte record",
			ks.Offset, ks.Offset+w, recSize)
	}
	return KeyCodec{off: ks.Offset, width: w, desc: ks.Order == Descending}, nil
}

// KeyCodec is a compiled KeySpec: an in-place, allocation-free, reversible
// transform between caller records and the engine's normalized form.
//
// Encode left-rotates the prefix rec[0 : Offset+Width] by Offset bytes,
// which lands the field bytes at the front of the record and the displaced
// prefix immediately after them; descending fields are additionally
// bit-complemented. Under the engine's comparison (first 8 bytes big-endian,
// ties by remaining bytes) normalized records therefore order exactly by
// (field, deterministic tie-break): for Width < 8 the bytes after the field
// only ever break field ties, and for Width > 8 the field's tail is the
// leading tie-break. Decode inverts the permutation exactly.
type KeyCodec struct {
	off   int
	width int
	desc  bool
}

// Identity reports whether the codec is a no-op (native key layout).
func (c KeyCodec) Identity() bool { return c.off == 0 && !c.desc }

// EncodeRecord normalizes one record in place.
func (c KeyCodec) EncodeRecord(rec []byte) {
	if c.off > 0 {
		rotateLeft(rec[:c.off+c.width], c.off)
	}
	if c.desc {
		complement(rec[:c.width])
	}
}

// DecodeRecord restores one record's caller byte layout in place.
func (c KeyCodec) DecodeRecord(rec []byte) {
	if c.desc {
		complement(rec[:c.width])
	}
	if c.off > 0 {
		rotateLeft(rec[:c.off+c.width], c.width)
	}
}

// Encode normalizes every record of s in place.
func (c KeyCodec) Encode(s Slice) {
	if c.Identity() {
		return
	}
	n := s.Len()
	for i := 0; i < n; i++ {
		c.EncodeRecord(s.Record(i))
	}
}

// Decode restores every record of s in place.
func (c KeyCodec) Decode(s Slice) {
	if c.Identity() {
		return
	}
	n := s.Len()
	for i := 0; i < n; i++ {
		c.DecodeRecord(s.Record(i))
	}
}

// rotateLeft rotates b left by k bytes via triple reversal (in place, no
// allocation). Callers guarantee 0 < k < len(b).
func rotateLeft(b []byte, k int) {
	reverse(b[:k])
	reverse(b[k:])
	reverse(b)
}

func reverse(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}

func complement(b []byte) {
	for i := range b {
		b[i] = ^b[i]
	}
}
