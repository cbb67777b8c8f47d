package record

import "encoding/binary"

// Checksum is an order-independent fingerprint of a multiset of records.
// Two record collections have equal Checksums (with overwhelming
// probability) iff they contain the same records with the same
// multiplicities, regardless of order. Sorting algorithms must preserve it
// exactly; the verify package compares input and output checksums.
//
// The construction hashes each record to a 64-bit value and combines with
// both a sum and a xor-of-rotations, plus a count; collisions require
// simultaneous collisions in independent mixes.
type Checksum struct {
	Count int64
	Sum   uint64
	Mix   uint64
}

// Add folds one record into the checksum.
func (c *Checksum) Add(rec []byte) { c.fold(hashRecord(rec)) }

func (c *Checksum) fold(h uint64) {
	c.Count++
	c.Sum += h
	// Rotate by a data-dependent amount before xoring so that identical
	// records still contribute identically but the combination is not a
	// plain xor (which would cancel pairs).
	r := h & 63
	c.Mix += (h << r) | (h >> (64 - r))
}

// AddSlice folds every record of s into the checksum: the values Add gives
// record by record. A record's hash is a chain of one splitmix64 per word (a
// Slice's record size is a whole number of them), each waiting on the last;
// chains of different records have no such wait between them. Where the CPU
// has AVX-512, foldBlocks runs sixteen chains at a time (checksum_amd64.s);
// the records behind its last block, or all of them without it, go four at
// a time.
func (c *Checksum) AddSlice(s Slice) {
	n, z := s.Len(), s.Size
	i := c.foldBlocks(s)
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := s.Record(i), s.Record(i+1), s.Record(i+2), s.Record(i+3)
		h0, h1, h2, h3 := hashSeed, hashSeed, hashSeed, hashSeed
		for off := 0; off < z; off += 8 {
			h0 = splitmix64(h0 ^ binary.LittleEndian.Uint64(r0[off:]))
			h1 = splitmix64(h1 ^ binary.LittleEndian.Uint64(r1[off:]))
			h2 = splitmix64(h2 ^ binary.LittleEndian.Uint64(r2[off:]))
			h3 = splitmix64(h3 ^ binary.LittleEndian.Uint64(r3[off:]))
		}
		c.fold(h0)
		c.fold(h1)
		c.fold(h2)
		c.fold(h3)
	}
	for ; i < n; i++ {
		c.Add(s.Record(i))
	}
}

// Merge combines another checksum into c (disjoint-union of multisets).
func (c *Checksum) Merge(o Checksum) {
	c.Count += o.Count
	c.Sum += o.Sum
	c.Mix += o.Mix
}

// Equal reports whether two checksums match.
func (c Checksum) Equal(o Checksum) bool {
	return c.Count == o.Count && c.Sum == o.Sum && c.Mix == o.Mix
}

const hashSeed uint64 = 0x9e3779b97f4a7c15

func hashRecord(rec []byte) uint64 {
	h := hashSeed
	i := 0
	for ; i+8 <= len(rec); i += 8 {
		h = splitmix64(h ^ binary.LittleEndian.Uint64(rec[i:]))
	}
	for ; i < len(rec); i++ {
		h = splitmix64(h ^ uint64(rec[i]))
	}
	return h
}

// OfGenerated computes the checksum that Fill(s, g, 0) over n records of the
// given size would produce, without materializing them all at once. Used to
// verify out-of-core outputs against the logical input. It generates and
// folds at most 1024 records at a time.
func OfGenerated(g Generator, n int64, size int) Checksum {
	var c Checksum
	buf := Make(int(max(0, min(n, 1024))), size)
	for i := int64(0); i < n; i += int64(buf.Len()) {
		s := buf.Sub(0, int(min(n-i, int64(buf.Len()))))
		Fill(s, g, i)
		c.AddSlice(s)
	}
	return c
}
