// Package record defines the fixed-size record substrate used throughout the
// out-of-core columnsort implementation.
//
// A record is a fixed-size sequence of bytes whose first 8 bytes hold the
// sort key as a big-endian uint64, so that lexicographic byte order of the
// key field equals numeric key order. The remainder of the record is opaque
// payload. The paper's experiments use 64- and 128-byte records; any size
// that is a multiple of 8 and at least 8 is supported here.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// KeyBytes is the size of the key prefix of every record.
const KeyBytes = 8

// MinSize is the smallest legal record size (a bare key).
const MinSize = KeyBytes

// ErrBadSize reports an unusable record size.
var ErrBadSize = errors.New("record: size must be a multiple of 8 and >= 8")

// CheckSize validates a record size.
func CheckSize(size int) error {
	if size < MinSize || size%8 != 0 {
		return fmt.Errorf("%w (got %d)", ErrBadSize, size)
	}
	return nil
}

// Key extracts the sort key of the record starting at rec[0].
// rec must be at least KeyBytes long.
func Key(rec []byte) uint64 {
	return binary.BigEndian.Uint64(rec[:KeyBytes])
}

// PutKey stores key into the key field of the record starting at rec[0].
func PutKey(rec []byte, key uint64) {
	binary.BigEndian.PutUint64(rec[:KeyBytes], key)
}

// Slice is a view over a byte buffer holding n = len(Data)/Size contiguous
// fixed-size records. It is the unit of in-memory work: columns are read from
// disk into a Slice, sorted, permuted, and written back.
type Slice struct {
	Data []byte
	Size int // record size in bytes
}

// NewSlice wraps data as a record slice. It panics if data is not a whole
// number of records; construction errors here always indicate programmer
// error, never bad input data.
func NewSlice(data []byte, size int) Slice {
	if err := CheckSize(size); err != nil {
		panic(err)
	}
	if len(data)%size != 0 {
		panic(fmt.Sprintf("record: buffer of %d bytes is not a whole number of %d-byte records", len(data), size))
	}
	return Slice{Data: data, Size: size}
}

// Make allocates a Slice holding n records of the given size.
func Make(n, size int) Slice {
	if err := CheckSize(size); err != nil {
		panic(err)
	}
	return Slice{Data: make([]byte, n*size), Size: size}
}

// Len returns the number of records in the slice.
func (s Slice) Len() int { return len(s.Data) / s.Size }

// Bytes returns the raw backing bytes.
func (s Slice) Bytes() []byte { return s.Data }

// Record returns the i-th record's bytes (aliasing the backing buffer).
func (s Slice) Record(i int) []byte {
	return s.Data[i*s.Size : (i+1)*s.Size]
}

// Key returns the key of the i-th record.
func (s Slice) Key(i int) uint64 {
	return binary.BigEndian.Uint64(s.Data[i*s.Size:])
}

// SetKey stores key into the i-th record.
func (s Slice) SetKey(i int, key uint64) {
	binary.BigEndian.PutUint64(s.Data[i*s.Size:], key)
}

// Sub returns the sub-slice of records [lo, hi).
func (s Slice) Sub(lo, hi int) Slice {
	return Slice{Data: s.Data[lo*s.Size : hi*s.Size], Size: s.Size}
}

// Copy copies records from src into s, returning the number of records
// copied (min of the two lengths).
func (s Slice) Copy(src Slice) int {
	n := copy(s.Data, src.Data)
	return n / s.Size
}

// CopyRecord copies record j of src over record i of s.
func (s Slice) CopyRecord(i int, src Slice, j int) {
	copy(s.Data[i*s.Size:(i+1)*s.Size], src.Data[j*src.Size:(j+1)*src.Size])
}

// Less reports whether record i's key is strictly smaller than record j's.
// Ties on the key compare the remaining payload bytes so that sorting is a
// total order and stability questions cannot produce distinct valid outputs
// across algorithm variants under test.
func (s Slice) Less(i, j int) bool {
	ki, kj := s.Key(i), s.Key(j)
	if ki != kj {
		return ki < kj
	}
	a := s.Data[i*s.Size+KeyBytes : (i+1)*s.Size]
	b := s.Data[j*s.Size+KeyBytes : (j+1)*s.Size]
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// Compare returns -1, 0, or +1 ordering records i of s and j of t.
func Compare(s Slice, i int, t Slice, j int) int {
	ki, kj := s.Key(i), t.Key(j)
	switch {
	case ki < kj:
		return -1
	case ki > kj:
		return 1
	}
	a := s.Data[i*s.Size+KeyBytes : (i+1)*s.Size]
	b := t.Data[j*t.Size+KeyBytes : (j+1)*t.Size]
	for k := range a {
		if k >= len(b) {
			return 1
		}
		if a[k] != b[k] {
			if a[k] < b[k] {
				return -1
			}
			return 1
		}
	}
	if len(b) > len(a) {
		return -1
	}
	return 0
}

// IsSorted reports whether the slice is in nondecreasing key order.
func (s Slice) IsSorted() bool {
	n := s.Len()
	for i := 1; i < n; i++ {
		if s.Less(i, i-1) {
			return false
		}
	}
	return true
}

// MinKey and MaxKey are the extreme key values, used by the ±∞ boundary
// columns of columnsort steps 6 and 8.
const (
	MinKey uint64 = 0
	MaxKey uint64 = ^uint64(0)
)

// FillKey sets every record in s to the given key with zero payload,
// used to materialize the ±∞ half-columns.
func (s Slice) FillKey(key uint64) {
	n := s.Len()
	for i := 0; i < n; i++ {
		rec := s.Record(i)
		for j := range rec {
			rec[j] = 0
		}
		PutKey(rec, key)
	}
}
