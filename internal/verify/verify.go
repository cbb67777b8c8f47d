// Package verify checks the outputs of the out-of-core sorters: global
// sortedness in column-major (PDM) order and multiset preservation, both
// computed streaming so that verification itself stays out-of-core (never
// more than one column portion in memory).
package verify

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"colsort/internal/pdm"
	"colsort/internal/record"
)

// Error describes a verification failure with enough position information
// to debug a missorted run.
type Error struct {
	Kind   string
	Column int
	Row    int
	Detail string
}

func (e *Error) Error() string {
	return fmt.Sprintf("verify: %s at column %d row %d: %s", e.Kind, e.Column, e.Row, e.Detail)
}

// Output runs both checks in one scan of the store; it is the standard
// postcondition of every sorter test and of the cmd/colsort verify subcommand.
func Output(st *pdm.Store, want record.Checksum) error {
	return OutputPrefix(st, int64(st.R)*int64(st.S), want)
}

// OutputPrefix checks a padded sort: the first n records (in column-major
// order) must be sorted and match the claimed multiset, and every record
// after them must be an all-0xFF pad. Pads carry the maximum key and the
// maximum payload, so they sort after (or byte-identically among) all real
// records, making prefix trimming exact. Used by the non-power-of-two
// support in the public API.
func OutputPrefix(st *pdm.Store, n int64, want record.Checksum) error {
	var order Order
	var got record.Checksum
	err := st.StreamRows(context.Background(), int64(st.R)*int64(st.S), func(j, lo int, chunk record.Slice) error {
		real := chunk.Sub(0, int(min(int64(chunk.Len()), max(n-int64(j)*int64(st.R)-int64(lo), 0))))
		if err := order.check(j, lo, real); err != nil {
			return err
		}
		got.AddSlice(real)
		for k, b := range chunk.Data[len(real.Data):] {
			if b != 0xff {
				return &Error{Kind: "pad violation", Column: j, Row: lo + real.Len() + k/st.RecSize,
					Detail: "non-pad record beyond the real prefix"}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !got.Equal(want) {
		return &Error{Kind: "multiset violation",
			Detail: fmt.Sprintf("checksum (count=%d sum=%x) != expected (count=%d sum=%x)",
				got.Count, got.Sum, want.Count, want.Sum)}
	}
	return nil
}

// Drain streams the first n records of the sorted store st into emit, chunk
// by chunk in global column-major order, and returns their multiset
// checksum for the caller to compare with its own. It is three stages of
// one Store.StreamRows chain: the read (prefetching a segment ahead) ‖ the
// order check and the fold ‖ emit. Each chunk is checked and folded before
// emit sees it, so emit may rewrite it in place; a chunk out of order
// never reaches emit, nor any after it, while every chunk before it does.
// The first failure — a read, the order, emit's error, ctx's end — stops
// every stage and is what Drain returns. The scan stops behind the n-th
// record: the pads are never read, and need not be, since a sorted prefix
// whose multiset is the input's leaves nothing but pads behind it.
func Drain(ctx context.Context, st *pdm.Store, n int64, emit func(record.Slice) error) (record.Checksum, error) {
	var order Order
	var sum record.Checksum
	err := st.StreamRows(ctx, n, func(j, lo int, real record.Slice) error {
		if err := order.check(j, lo, real); err != nil {
			return err
		}
		sum.AddSlice(real)
		return nil
	}, func(_, _ int, real record.Slice) error { return emit(real) })
	return sum, err
}

// check is Check reporting a violation as an *Error at its column and row,
// for c holding rows lo… of column j.
func (o *Order) check(j, lo int, c record.Slice) error {
	i := o.Check(c)
	if i < 0 {
		return nil
	}
	prev := o.prev // Check keeps the previous chunk's last record on failure
	if i > 0 {
		prev = c.Record(i - 1)
	}
	return &Error{Kind: "order violation", Column: j, Row: lo + i,
		Detail: fmt.Sprintf("key %x follows %x", c.Key(i), binary.BigEndian.Uint64(prev))}
}

// Order is the one order check of every sorted stream the engine checks:
// the merge's verify stage, the store scans above, and colsort-paper's
// check of a distributed sort. It sees the stream's chunks in order and
// keeps a copy of the last record of the chunk before.
type Order struct {
	prev []byte // last record of the previous chunk; nil before the first
}

// Check returns the index in c of the first record smaller than its
// predecessor — c's first record is compared with the previous chunk's
// last — or -1 when c continues the stream in order; the caller reports the
// position in its own terms. Records are compared as bytes, the order of the
// engine's normalized key space: the 8-byte big-endian key prefix first,
// and bytes.Compare over the whole records only when the prefixes tie.
func (o *Order) Check(c record.Slice) int {
	z, d := c.Size, c.Data
	if len(d) == 0 {
		return -1
	}
	prev := o.prev
	if prev == nil {
		prev = d[:z] // the stream's first record has no predecessor
		o.prev = make([]byte, z)
	}
	pk := binary.BigEndian.Uint64(prev)
	for off := 0; off < len(d); off += z {
		rec := d[off : off+z]
		k := binary.BigEndian.Uint64(rec)
		if k < pk || k == pk && bytes.Compare(rec, prev) < 0 {
			return off / z
		}
		prev, pk = rec, k
	}
	copy(o.prev, prev)
	return -1
}
