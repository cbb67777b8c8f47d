// Package matrix implements Leighton's columnsort and the paper's subblock
// columnsort as pure in-memory reference algorithms on an r×s record matrix.
//
// These references serve three roles:
//
//  1. They are the correctness oracle for the out-of-core implementations in
//     internal/core: every out-of-core pass permutation is tested against the
//     step maps here, and whole-algorithm outputs are compared.
//  2. They define the step permutations (steps 2, 4, 6, 8 and the subblock
//     step 3.1) as pure (i, j) → (i', j') functions — the definition the
//     out-of-core pass specs (core.groupSpecs) restate on sorted ranks.
//  3. The in-core columnsort reference is the basis of the distributed
//     in-core sort that M-columnsort uses for its sort stage (Section 4).
//
// A Matrix stores N = r·s records column-major: column j occupies records
// [j·r, (j+1)·r) of the backing slice, matching both the paper's layout and
// the on-disk layout of the out-of-core implementation.
package matrix

import (
	"fmt"

	"colsort/internal/bitperm"
	"colsort/internal/record"
	"colsort/internal/sortalg"
)

// Matrix is an r×s record matrix stored column-major.
type Matrix struct {
	R, S int
	Recs record.Slice
}

// New allocates an r×s matrix of records of the given byte size.
func New(r, s, recSize int) Matrix {
	return Matrix{R: r, S: s, Recs: record.Make(r*s, recSize)}
}

// Wrap views an existing record slice of length r·s as an r×s matrix.
func Wrap(r, s int, recs record.Slice) Matrix {
	if recs.Len() != r*s {
		panic(fmt.Sprintf("matrix: %d records cannot form %d×%d", recs.Len(), r, s))
	}
	return Matrix{R: r, S: s, Recs: recs}
}

// Column returns column j as a record slice view.
func (m Matrix) Column(j int) record.Slice {
	return m.Recs.Sub(j*m.R, (j+1)*m.R)
}

// Key returns the key of the record at row i, column j.
func (m Matrix) Key(i, j int) uint64 { return m.Recs.Key(j*m.R + i) }

// SetKey sets the key of the record at row i, column j.
func (m Matrix) SetKey(i, j int, k uint64) { m.Recs.SetKey(j*m.R+i, k) }

// N returns the total number of records.
func (m Matrix) N() int { return m.R * m.S }

// Clone returns a deep copy of the matrix.
func (m Matrix) Clone() Matrix {
	c := New(m.R, m.S, m.Recs.Size)
	c.Recs.Copy(m.Recs)
	return c
}

// IsSorted reports whether the matrix is sorted in column-major order
// (the postcondition of columnsort).
func (m Matrix) IsSorted() bool { return m.Recs.IsSorted() }

// CheckShape validates the classic columnsort requirements: s ≥ 1, s | r,
// r even, and the height restriction r ≥ 2s². (Following the paper we use
// the simpler, more stringent r ≥ 2s² rather than Leighton's 2(s−1)².)
func CheckShape(r, s int) error {
	if s < 1 || r < 1 {
		return fmt.Errorf("matrix: nonpositive shape %d×%d", r, s)
	}
	if r%s != 0 {
		return fmt.Errorf("matrix: s=%d must divide r=%d", s, r)
	}
	if r%2 != 0 && s > 1 {
		return fmt.Errorf("matrix: r=%d must be even for the shift steps", r)
	}
	if r < 2*s*s {
		return fmt.Errorf("matrix: height restriction violated: r=%d < 2s²=%d", r, 2*s*s)
	}
	return nil
}

// CheckSubblockShape validates subblock columnsort's requirements: r a power
// of 2, s a power of 4, s | r, √s ≤ r, and the relaxed height restriction
// r ≥ 4·s^{3/2}.
func CheckSubblockShape(r, s int) error {
	if s < 1 || r < 1 {
		return fmt.Errorf("matrix: nonpositive shape %d×%d", r, s)
	}
	if !bitperm.IsPow2(r) {
		return fmt.Errorf("matrix: r=%d must be a power of 2", r)
	}
	if !bitperm.IsPow4(s) {
		return fmt.Errorf("matrix: s=%d must be a power of 4", s)
	}
	if r%s != 0 {
		return fmt.Errorf("matrix: s=%d must divide r=%d", s, r)
	}
	q := bitperm.Sqrt(s)
	// r ≥ 4·s^{3/2} = 4·s·√s, all integers under the power-of-2 regime.
	if r < 4*s*q {
		return fmt.Errorf("matrix: relaxed height restriction violated: r=%d < 4s^(3/2)=%d", r, 4*s*q)
	}
	return nil
}

// Step2Map is the "transpose and reshape" permutation of columnsort step 2:
// (i, j) → (j·(r/s) + ⌊i/s⌋, i mod s).
func Step2Map(r, s, i, j int) (ti, tj int) {
	return j*(r/s) + i/s, i % s
}

// Step4Map is the "reshape and transpose" permutation of step 4, the exact
// inverse of Step2Map: (i, j) → ((i mod (r/s))·s + j, ⌊i/(r/s)⌋).
func Step4Map(r, s, i, j int) (ti, tj int) {
	return (i%(r/s))*s + j, i / (r / s)
}

// Step6Map is the "shift down by r/2" permutation into the r×(s+1) shifted
// matrix: (i, j) → (i + r/2, j) for i < r/2, else (i − r/2, j+1).
func Step6Map(r, i, j int) (ti, tj int) {
	if i < r/2 {
		return i + r/2, j
	}
	return i - r/2, j + 1
}

// Step8Map is the "shift up by r/2" permutation back from the shifted
// matrix, the inverse of Step6Map.
func Step8Map(r, i, j int) (ti, tj int) {
	if i >= r/2 {
		return i - r/2, j
	}
	return i + r/2, j - 1
}

// MapFunc is a step permutation on (row, column) positions.
type MapFunc func(i, j int) (ti, tj int)

// Permute applies f out-of-place: the record at (i, j) of m moves to
// f(i, j) of the result.
func (m Matrix) Permute(f MapFunc) Matrix {
	dst := New(m.R, m.S, m.Recs.Size)
	for j := 0; j < m.S; j++ {
		for i := 0; i < m.R; i++ {
			ti, tj := f(i, j)
			dst.Recs.CopyRecord(tj*m.R+ti, m.Recs, j*m.R+i)
		}
	}
	return dst
}

// SortColumns sorts every column of m in place (steps 1, 3, 5 and 7).
func (m Matrix) SortColumns() {
	scratch := record.Make(m.R, m.Recs.Size)
	for j := 0; j < m.S; j++ {
		col := m.Column(j)
		sortalg.SortInto(scratch, col)
		col.Copy(scratch)
	}
}

// Columnsort runs Leighton's 8-step columnsort on m in place. It returns an
// error if the shape violates the height restriction; on a valid shape the
// matrix ends sorted in column-major order.
//
// Steps 5–8 are realized as the equivalent fused boundary merges (see
// shiftSortShift): sort columns, then for every adjacent column pair replace
// (bottom of j, top of j+1) by the (low, high) halves of their merge. This
// avoids materializing ±∞ sentinel records, which matters because real data
// may contain the maximum key value.
func Columnsort(m Matrix) error {
	if err := CheckShape(m.R, m.S); err != nil {
		return err
	}
	columnsortSteps(m)
	return nil
}

func columnsortSteps(m Matrix) {
	if m.S == 1 {
		m.SortColumns()
		return
	}
	m.SortColumns()                                                                // step 1
	m2 := m.Permute(func(i, j int) (int, int) { return Step2Map(m.R, m.S, i, j) }) // step 2
	m.Recs.Copy(m2.Recs)
	m.SortColumns()                                                                // step 3
	m4 := m.Permute(func(i, j int) (int, int) { return Step4Map(m.R, m.S, i, j) }) // step 4
	m.Recs.Copy(m4.Recs)
	m.shiftSortShift() // steps 5–8
}

// shiftSortShift performs steps 5–8: sort each column, then merge adjacent
// half-columns across each column boundary. Writing [L; H] for the sorted
// merge of (bottom of column j−1, top of column j), step 8 deposits L as the
// final bottom of column j−1 and H as the final top of column j.
func (m Matrix) shiftSortShift() {
	m.SortColumns() // step 5 (and step 7's sortedness precondition)
	r, h := m.R, m.R/2
	low := record.Make(h, m.Recs.Size)
	for j := 1; j < m.S; j++ {
		bottom, top := m.Column(j-1).Sub(h, r), m.Column(j).Sub(0, h)
		sortalg.MergeLow(low, bottom, top)
		sortalg.MergeHigh(top, bottom, top)
		bottom.Copy(low)
	}
}

// SubblockColumnsort runs the paper's 10-step subblock columnsort on m in
// place: steps 1–3 of columnsort, the subblock permutation (step 3.1), a
// column sort (step 3.2), then steps 4–8.
func SubblockColumnsort(m Matrix) error {
	if err := CheckSubblockShape(m.R, m.S); err != nil {
		return err
	}
	sb := bitperm.MustSubblock(m.R, m.S)
	m.SortColumns()                                                                // step 1
	m2 := m.Permute(func(i, j int) (int, int) { return Step2Map(m.R, m.S, i, j) }) // step 2
	m.Recs.Copy(m2.Recs)
	m.SortColumns()          // step 3
	m31 := m.Permute(sb.Map) // step 3.1: the subblock permutation
	m.Recs.Copy(m31.Recs)
	m.SortColumns()                                                                // step 3.2
	m4 := m.Permute(func(i, j int) (int, int) { return Step4Map(m.R, m.S, i, j) }) // step 4
	m.Recs.Copy(m4.Recs)
	m.shiftSortShift() // steps 5–8
	return nil
}

// LiteralShiftSteps runs steps 5–8 literally: build the r×(s+1) shifted
// matrix with −∞/+∞ sentinel half-columns, sort its columns, and shift back.
// It exists to validate the fused shiftSortShift against Leighton's
// description; callers must guarantee no record uses the extreme key values.
func (m Matrix) LiteralShiftSteps() {
	m.SortColumns() // step 5
	r, s, h := m.R, m.S, m.R/2
	wide := New(r, s+1, m.Recs.Size)
	wide.Column(0).Sub(0, h).FillKey(record.MinKey)
	wide.Column(s).Sub(h, r).FillKey(record.MaxKey)
	for j := 0; j < s; j++ { // step 6
		for i := 0; i < r; i++ {
			ti, tj := Step6Map(r, i, j)
			wide.Recs.CopyRecord(tj*r+ti, m.Recs, j*r+i)
		}
	}
	wide.SortColumns()        // step 7
	for j := 0; j <= s; j++ { // step 8
		for i := 0; i < r; i++ {
			ti, tj := Step8Map(r, i, j)
			if tj < 0 || tj >= s {
				continue // sentinel positions drop out
			}
			m.Recs.CopyRecord(tj*r+ti, wide.Recs, j*r+i)
		}
	}
}
