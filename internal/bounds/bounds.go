// Package bounds implements the problem-size restrictions the paper studies
// (equations (1), (2), (3) and the future-work combination), the crossover
// analysis of Section 5, and the headline numeric claims of Sections 1–2.
//
// Quantities are in RECORDS throughout: M is the total cluster memory in
// records, M/P the per-processor memory in records, N the number of records
// sorted. Conversions to bytes (for "one terabyte"-style statements) take a
// record size.
package bounds

import (
	"fmt"
	"math"
)

// Algorithm names the columnsort variant whose bound is being computed.
type Algorithm int

const (
	// Threaded is 3-pass threaded columnsort [CC02]: r = M/P, r ≥ 2s².
	Threaded Algorithm = iota
	// Subblock is subblock columnsort: r = M/P, r ≥ 4·s^{3/2}.
	Subblock
	// MColumnsort reinterprets the height as r = M: r ≥ 2s².
	MColumnsort
	// Combined is the future-work algorithm of Section 6: r = M with the
	// subblock relaxation, r ≥ 4·s^{3/2}.
	Combined
)

func (a Algorithm) String() string {
	switch a {
	case Threaded:
		return "threaded"
	case Subblock:
		return "subblock"
	case MColumnsort:
		return "m-columnsort"
	case Combined:
		return "combined"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// MaxN returns the real-valued problem-size bound, in records, for the
// given algorithm on a machine with total memory m records and p
// processors:
//
//	Threaded:    N ≤ (M/P)^{3/2} / √2         (restriction 1)
//	Subblock:    N ≤ (M/P)^{5/3} / 4^{2/3}     (restriction 2)
//	MColumnsort: N ≤ M^{3/2} / √2              (restriction 3)
//	Combined:    N ≤ M^{5/3} / 4^{2/3}         (Section 6)
func MaxN(a Algorithm, m, p int64) float64 {
	mp := float64(m) / float64(p)
	switch a {
	case Threaded:
		return math.Pow(mp, 1.5) / math.Sqrt2
	case Subblock:
		return math.Pow(mp, 5.0/3.0) / math.Pow(4, 2.0/3.0)
	case MColumnsort:
		return math.Pow(float64(m), 1.5) / math.Sqrt2
	case Combined:
		return math.Pow(float64(m), 5.0/3.0) / math.Pow(4, 2.0/3.0)
	}
	panic(fmt.Sprintf("bounds: unknown algorithm %d", int(a)))
}

// MaxBytes converts MaxN to bytes for a given record size.
func MaxBytes(a Algorithm, m, p int64, recSize int) float64 {
	return MaxN(a, m, p) * float64(recSize)
}

// HeightOK reports whether an r×s matrix satisfies the algorithm's height
// restriction (the exact integer check the planners use).
func HeightOK(a Algorithm, r, s int64) bool {
	switch a {
	case Threaded, MColumnsort:
		return r >= 2*s*s
	case Subblock, Combined:
		// r ≥ 4·s^{3/2}: with s a power of 4, s^{3/2} = s·√s is exact.
		q := int64(math.Round(math.Sqrt(float64(s))))
		if q*q != s {
			return false
		}
		return r >= 4*s*q
	}
	panic(fmt.Sprintf("bounds: unknown algorithm %d", int(a)))
}

// SubblockGain is the problem-size ratio bound(2)/bound(1) =
// (M/P)^{1/6} · 2^{-5/6}. Section 1 claims this exceeds 2 — "more than
// double the largest problem size" — for M/P ≥ 2¹² records.
func SubblockGain(mOverP int64) float64 {
	return math.Pow(float64(mOverP), 1.0/6.0) * math.Pow(2, -5.0/6.0)
}

// CrossoverFormula is Section 5's closed form: M-columnsort handles more
// records than subblock columnsort iff M < 32·P¹⁰ (equivalently
// M^{3/2}/√2 > (M/P)^{5/3}/4^{2/3}).
func CrossoverFormula(m, p int64) bool {
	// Compare in logarithms to survive P¹⁰ for large P.
	return math.Log2(float64(m)) < 5+10*math.Log2(float64(p))
}

// CrossoverDirect compares the two bounds numerically (log-domain), as a
// cross-check of CrossoverFormula.
func CrossoverDirect(m, p int64) bool {
	lm := math.Log2(float64(m))
	lp := math.Log2(float64(p))
	lhs := 1.5*lm - 0.5              // log2(M^{3/2}/√2)
	rhs := 5.0/3.0*(lm-lp) - 4.0/3.0 // log2((M/P)^{5/3}/4^{2/3})
	return lhs > rhs
}

// InCoreOK reports whether M-columnsort's distributed in-core sort stage is
// itself a valid columnsort: the (M/P)×P in-core matrix needs M/P ≥ 2P².
func InCoreOK(mOverP, p int64) bool {
	return mOverP >= 2*p*p
}

// Row is one line of the bounds table printed by `colsort-paper bounds`.
type Row struct {
	MOverP   int64
	P        int64
	Bound1   float64 // threaded, records
	Bound2   float64 // subblock, records
	Bound3   float64 // m-columnsort, records
	Combined float64
}

// Table computes bound rows for each (M/P, P) combination.
func Table(mOverPs, ps []int64) []Row {
	var rows []Row
	for _, mp := range mOverPs {
		for _, p := range ps {
			m := mp * p
			rows = append(rows, Row{
				MOverP:   mp,
				P:        p,
				Bound1:   MaxN(Threaded, m, p),
				Bound2:   MaxN(Subblock, m, p),
				Bound3:   MaxN(MColumnsort, m, p),
				Combined: MaxN(Combined, m, p),
			})
		}
	}
	return rows
}

// HumanBytes renders a byte count with binary units.
func HumanBytes(b float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	return fmt.Sprintf("%.2f %s", b, units[i])
}
