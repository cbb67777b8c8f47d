package incore

import (
	"fmt"

	"colsort/internal/cluster"
	"colsort/internal/record"
	"colsort/internal/sim"
)

// Radix is distributed LSD radix sort on the 64-bit key: four passes of
// 16-bit digits. Each pass histograms the digit locally, computes every
// record's exact global destination rank (stable within a digit value) via
// a balanced reduce-scatter of the histograms, and routes records with a
// personalized all-to-all. Records travel wrapped with their destination
// rank so receivers can scatter without knowing the senders' histograms —
// the 8-byte-per-record envelope overhead is charged as communication.
//
// The paper found radix competitive with in-core columnsort but rejected it
// for its dependence on the key format (it sorts by the 64-bit key only:
// ties keep their prior relative order rather than the payload total order)
// and because columnsort's communication is oblivious to key values
// (experiment E6).
type Radix struct {
	Pool *record.Pool // optional buffer pool (nil: allocate per call)
}

func (Radix) Name() string { return "radix" }

const (
	radixBits    = 16
	radixBuckets = 1 << radixBits
	radixPasses  = 64 / radixBits
)

func (rs Radix) Sort(pr *cluster.Proc, cnt *sim.Counters, tagBase int, local record.Slice) (record.Slice, error) {
	p, rank := pr.NProcs(), pr.Rank()
	n := local.Len()
	z := local.Size
	pool := rs.Pool
	cur := pool.Get(n, z)
	cur.Copy(local)
	pool.Put(local)
	cnt.MovedBytes += int64(len(cur.Data))
	if n == 0 || p > radixBuckets {
		if p > radixBuckets {
			return record.Slice{}, fmt.Errorf("incore: radix supports at most %d processors", radixBuckets)
		}
		return cur, nil
	}

	hist := make([]int64, radixBuckets)
	counts := make([]int, p)
	fill := make([]int, p)
	dests := make([]int64, n)
	for pass := 0; pass < radixPasses; pass++ {
		shift := uint(pass * radixBits)
		tag := tagBase + pass*8

		// Local histogram of this digit.
		clear(hist)
		for i := 0; i < n; i++ {
			hist[(cur.Key(i)>>shift)&(radixBuckets-1)]++
		}

		starts, err := globalStarts(pr, cnt, tag, hist, pool)
		if err != nil {
			return record.Slice{}, err
		}

		// Compute each record's destination rank (stable: local order
		// preserved within a bucket) and pack (rank, record) envelopes
		// per destination processor.
		clear(counts)
		clear(fill)
		for i := 0; i < n; i++ {
			b := (cur.Key(i) >> shift) & (radixBuckets - 1)
			dests[i] = starts[b]
			starts[b]++
			counts[dests[i]/int64(n)]++
		}
		out := record.GetHeaders(p)
		for q := 0; q < p; q++ {
			out[q] = pool.Get(counts[q], z+8)
		}
		for i := 0; i < n; i++ {
			q := int(dests[i] / int64(n))
			env := out[q].Record(fill[q])
			record.PutKey(env, uint64(dests[i]))
			copy(env[8:], cur.Record(i))
			fill[q]++
		}
		cnt.MovedBytes += int64(n * (z + 8))

		in, err := pr.AllToAll(cnt, tag+4, out)
		record.PutHeaders(out)
		if err != nil {
			return record.Slice{}, err
		}
		base := int64(rank) * int64(n)
		got := 0
		for q := 0; q < p; q++ {
			batch := in[q]
			for k := 0; k < batch.Len(); k++ {
				env := batch.Record(k)
				pos := int64(record.Key(env)) - base
				if pos < 0 || pos >= int64(n) {
					return record.Slice{}, fmt.Errorf("incore: radix routed rank %d to processor %d", record.Key(env), rank)
				}
				copy(cur.Record(int(pos)), env[8:])
				got++
			}
			pool.Put(batch)
		}
		record.PutHeaders(in)
		if got != n {
			return record.Slice{}, fmt.Errorf("incore: radix pass %d delivered %d of %d records", pass, got, n)
		}
		cnt.MovedBytes += int64(n * z)
	}
	return cur, nil
}

// globalStarts turns per-processor local histograms into, for the calling
// processor q, the array start[b] = (global exclusive prefix of bucket b)
// + (bucket-b records on processors before q) — the first destination rank
// of q's first record in bucket b.
//
// The combine is balanced rather than root-centric: a reduce-scatter
// (bucket ranges scattered over processors), a tiny allgather of the P
// range totals for the cross-range prefix, and a personalized scatter of
// the start offsets back to their owners. Each processor moves O(B) bytes
// regardless of P. Tags used: tag..tag+3. Message buffers cycle through
// pool (nil: allocate per call).
func globalStarts(pr *cluster.Proc, cnt *sim.Counters, tag int, hist []int64, pool *record.Pool) ([]int64, error) {
	p, rank := pr.NProcs(), pr.Rank()
	b := len(hist)
	if p == 1 {
		starts := make([]int64, b)
		var run int64
		for i := 0; i < b; i++ {
			starts[i] = run
			run += hist[i]
		}
		return starts, nil
	}
	if b%p != 0 {
		return nil, fmt.Errorf("incore: %d buckets not divisible by %d processors", b, p)
	}
	chunk := b / p

	// Reduce-scatter: processor d collects everyone's counts for its
	// bucket range [d·chunk, (d+1)·chunk).
	out := record.GetHeaders(p)
	for d := 0; d < p; d++ {
		buf := pool.Get(chunk, record.MinSize)
		for k := 0; k < chunk; k++ {
			buf.SetKey(k, uint64(hist[d*chunk+k]))
		}
		out[d] = buf
	}
	in, err := pr.AllToAll(cnt, tag, out)
	record.PutHeaders(out)
	if err != nil {
		return nil, err
	}

	// My range's per-(bucket, source) counts and range total.
	var rangeTotal int64
	for q := 0; q < p; q++ {
		for k := 0; k < chunk; k++ {
			rangeTotal += int64(in[q].Key(k))
		}
	}

	// Allgather range totals (P scalars) for the cross-range base.
	mine := pool.Get(1, record.MinSize)
	mine.SetKey(0, uint64(rangeTotal))
	totals, err := pr.Gather(cnt, 0, tag+1, mine)
	if err != nil {
		return nil, err
	}
	var allTotals record.Slice
	if rank == 0 {
		flat := pool.Get(p, record.MinSize)
		for q := 0; q < p; q++ {
			flat.SetKey(q, totals[q].Key(0))
			pool.Put(totals[q])
		}
		record.PutHeaders(totals)
		allTotals, err = pr.Broadcast(cnt, 0, tag+2, flat)
	} else {
		allTotals, err = pr.Broadcast(cnt, 0, tag+2, record.Slice{})
	}
	if err != nil {
		return nil, err
	}
	var base int64
	for d := 0; d < rank; d++ {
		base += int64(allTotals.Key(d))
	}
	pool.Put(allTotals)

	// Within my range, scan (bucket-major, then source processor) and
	// produce each source's start offsets; scatter them back.
	back := record.GetHeaders(p)
	for q := 0; q < p; q++ {
		back[q] = pool.Get(chunk, record.MinSize)
	}
	run := base
	for k := 0; k < chunk; k++ {
		for q := 0; q < p; q++ {
			back[q].SetKey(k, uint64(run))
			run += int64(in[q].Key(k))
		}
	}
	for q := 0; q < p; q++ {
		pool.Put(in[q])
	}
	record.PutHeaders(in)
	got, err := pr.AllToAll(cnt, tag+3, back)
	record.PutHeaders(back)
	if err != nil {
		return nil, err
	}
	starts := make([]int64, b)
	for d := 0; d < p; d++ {
		for k := 0; k < chunk; k++ {
			starts[d*chunk+k] = int64(got[d].Key(k))
		}
		pool.Put(got[d])
	}
	record.PutHeaders(got)
	return starts, nil
}
