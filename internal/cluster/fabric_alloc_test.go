package cluster

import (
	"sync"
	"testing"

	"colsort/internal/record"
)

// TestAllToAllPlanZeroAllocSteadyState pins the ownership-transfer
// contract's performance half: once the pools, header free lists and the
// exchange board are warm, a full planned all-to-all round on the
// zero-copy fabric — pack, exchange, adopt, recycle — performs no
// allocator work at all on any processor.
func TestAllToAllPlanZeroAllocSteadyState(t *testing.T) {
	const P, r, z = 4, 256, 32
	c := NewFabric(P, ZeroCopy)
	pools := record.NewPools(P)

	// A plan with single-record extents (the worst packing granularity).
	plan := SendPlan{Counts: make([]int32, P)}
	for i := 0; i < r; i++ {
		d := int32(i % P)
		plan.Counts[d]++
		plan.Exts = append(plan.Exts, Extent{Dst: d, Count: 1})
	}

	start := make([]chan int, P)
	for p := range start {
		start[p] = make(chan int)
	}
	done := make(chan error, P)
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			pr := &Proc{rank: rank, n: P, c: c}
			src := pools[rank].Get(r, z)
			for tag := range start[rank] {
				in, err := pr.AllToAllPlan(nil, tag, src, &plan, pools[rank])
				if err == nil {
					for _, m := range in {
						pools[rank].Put(m)
					}
					record.PutHeaders(in)
				}
				done <- err
			}
		}(p)
	}

	tag := 0
	round := func() {
		for p := 0; p < P; p++ {
			start[p] <- tag
		}
		for p := 0; p < P; p++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		tag++
	}
	round()
	round() // warm pools, headers and the exchange free list
	allocs := testing.AllocsPerRun(20, round)
	if allocs > 0 {
		t.Errorf("%v allocs per warm planned all-to-all round, want 0", allocs)
	}
	for p := range start {
		close(start[p])
	}
	wg.Wait()
}

// TestFabricAliasing verifies the transport semantics behind the two
// fabrics: zero-copy hands the receiver the sender's very buffer, copying
// hands it different backing memory with identical contents.
func TestFabricAliasing(t *testing.T) {
	for _, fabric := range []Fabric{ZeroCopy, Copying} {
		t.Run(fabric.String(), func(t *testing.T) {
			sent := make(chan *byte, 1)
			err := RunCtxFabric(t.Context(), 2, fabric, func(pr *Proc) error {
				if pr.Rank() == 0 {
					buf := record.Make(4, 16)
					buf.SetKey(0, 7)
					sent <- &buf.Data[0]
					return pr.Send(nil, 1, 9, buf)
				}
				msg, err := pr.Recv(0, 9)
				if err != nil {
					return err
				}
				if msg.Key(0) != 7 {
					t.Errorf("%v fabric: received key %d, want 7", fabric, msg.Key(0))
				}
				aliased := &msg.Data[0] == <-sent
				if fabric == ZeroCopy && !aliased {
					t.Errorf("zero-copy fabric copied the payload")
				}
				if fabric == Copying && aliased {
					t.Errorf("copying fabric aliased the sender's buffer")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
