// Package verify checks the outputs of the out-of-core sorters: global
// sortedness in column-major (PDM) order and multiset preservation, both
// computed streaming so that verification itself stays out-of-core (never
// more than one column portion in memory).
package verify

import (
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
	got, err := scanPrefix(st, n)
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

// scanPrefix is the one scan every store check is: the order of the first n
// records — record to record inside a segment, against a copy of the previous
// segment's last record across a boundary — their checksum, and the pads
// behind them. ScanRows prefetches one segment ahead, so on async disks the
// checks overlap the next segment's read.
func scanPrefix(st *pdm.Store, n int64) (record.Checksum, error) {
	var got record.Checksum
	var lastValid bool
	last := record.Make(1, st.RecSize)
	follows := func(j, row int, key, prev uint64) error {
		return &Error{Kind: "order violation", Column: j, Row: row,
			Detail: fmt.Sprintf("key %x follows %x", key, prev)}
	}
	err := st.ScanRows(func(j, lo int, chunk record.Slice) error {
		real := chunk.Sub(0, int(min(int64(chunk.Len()), n)))
		n -= int64(real.Len())
		if real.Len() > 0 {
			if lastValid && record.Compare(real, 0, last, 0) < 0 {
				return follows(j, lo, real.Key(0), last.Key(0))
			}
			for i := 1; i < real.Len(); i++ {
				if real.Less(i, i-1) {
					return follows(j, lo+i, real.Key(i), real.Key(i-1))
				}
			}
			last.CopyRecord(0, real, real.Len()-1)
			lastValid = true
			got.AddSlice(real)
		}
		for k, b := range chunk.Data[len(real.Data):] {
			if b != 0xff {
				return &Error{Kind: "pad violation", Column: j, Row: lo + real.Len() + k/st.RecSize,
					Detail: "non-pad record beyond the real prefix"}
			}
		}
		return nil
	})
	return got, err
}
