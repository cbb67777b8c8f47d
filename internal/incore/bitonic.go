package incore

import (
	"fmt"

	"colsort/internal/bitperm"
	"colsort/internal/record"
	"colsort/internal/sim"
	"colsort/internal/sortalg"
)

// Bitonic is block bitonic sort: Batcher's bitonic sorting network on P
// elements with each compare-exchange replaced by a merge-split of two
// locally sorted blocks (the low processor keeps the n smallest of the 2n
// merged records). Substituting merge-split into any sorting network sorts
// block-distributed data, so correctness follows from the network's.
//
// It performs lg P·(lg P+1)/2 full-block exchanges, which is why the paper
// found it consistently slower than in-core columnsort (experiment E6).
type Bitonic struct {
	Pool    *record.Pool     // optional buffer pool (nil: allocate per call)
	Scratch *sortalg.Scratch // optional sort scratch; NOT concurrency-safe
}

func (Bitonic) Name() string { return "bitonic" }

func (bs Bitonic) Sort(pr Comm, cnt *sim.Counters, tagBase int, local record.Slice) (record.Slice, error) {
	p, rank := pr.NProcs(), pr.Rank()
	n := local.Len()
	z := local.Size
	pool, sc := bs.Pool, scratchOf(bs.Scratch)
	cur := pool.Get(n, z)
	sc.SortInto(cur, local)
	pool.Put(local)
	cnt.CompareUnits += sim.SortWork(n)
	cnt.MovedBytes += int64(len(cur.Data))
	if p == 1 {
		return cur, nil
	}
	if !bitperm.IsPow2(p) {
		return record.Slice{}, fmt.Errorf("incore: bitonic needs a power-of-two processor count, got %d", p)
	}

	tag := tagBase
	for k := 2; k <= p; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			partner := rank ^ j
			ascending := rank&k == 0
			keepLow := (rank < partner) == ascending

			// Exchange whole blocks with the partner.
			outBuf := pool.Get(n, z)
			outBuf.Copy(cur)
			cnt.MovedBytes += int64(len(outBuf.Data))
			if err := pr.Send(cnt, partner, tag, outBuf); err != nil {
				return record.Slice{}, err
			}
			theirs, err := pr.Recv(partner, tag)
			if err != nil {
				return record.Slice{}, err
			}
			tag++

			// Merge-split: merge only the half this processor keeps.
			kept := pool.Get(n, z)
			if keepLow {
				sortalg.MergeLow(kept, cur, theirs)
			} else {
				sortalg.MergeHigh(kept, cur, theirs)
			}
			pool.Put(theirs)
			pool.Put(cur)
			cur = kept
			cnt.CompareUnits += sim.MergeWork(n, 2)
			cnt.MovedBytes += int64(len(kept.Data))
		}
	}
	return cur, nil
}

// ExchangeCount returns the number of full-block merge-split exchanges
// block bitonic performs on p processors: lg p·(lg p+1)/2. Used by the E6
// analysis to predict the communication-volume ordering of the three
// in-core sorts.
func (Bitonic) ExchangeCount(p int) int {
	if p <= 1 {
		return 0
	}
	lg := bitperm.Log2(p)
	return lg * (lg + 1) / 2
}
