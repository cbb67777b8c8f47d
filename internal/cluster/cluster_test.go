package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"colsort/internal/record"
	"colsort/internal/sim"
)

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(pr *Proc) error {
		var cnt sim.Counters
		if pr.Rank() == 0 {
			msg := record.Make(4, 16)
			msg.SetKey(0, 42)
			return pr.Send(&cnt, 1, 7, msg)
		}
		got, err := pr.Recv(0, 7)
		if err != nil {
			return err
		}
		if got.Len() != 4 || got.Key(0) != 42 {
			return fmt.Errorf("bad message: len=%d key=%d", got.Len(), got.Key(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	// Receive tags in the opposite order from sends: the mailbox must match
	// by tag, not arrival order.
	err := Run(2, func(pr *Proc) error {
		var cnt sim.Counters
		if pr.Rank() == 0 {
			a := record.Make(1, 8)
			a.SetKey(0, 1)
			b := record.Make(1, 8)
			b.SetKey(0, 2)
			if err := pr.Send(&cnt, 1, 100, a); err != nil {
				return err
			}
			return pr.Send(&cnt, 1, 200, b)
		}
		b, err := pr.Recv(0, 200)
		if err != nil {
			return err
		}
		a, err := pr.Recv(0, 100)
		if err != nil {
			return err
		}
		if a.Key(0) != 1 || b.Key(0) != 2 {
			return fmt.Errorf("tag matching delivered wrong payloads: %d %d", a.Key(0), b.Key(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerTag(t *testing.T) {
	const n = 100
	err := Run(2, func(pr *Proc) error {
		var cnt sim.Counters
		if pr.Rank() == 0 {
			for i := 0; i < n; i++ {
				m := record.Make(1, 8)
				m.SetKey(0, uint64(i))
				if err := pr.Send(&cnt, 1, 5, m); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			m, err := pr.Recv(0, 5)
			if err != nil {
				return err
			}
			if m.Key(0) != uint64(i) {
				return fmt.Errorf("out of order: got %d want %d", m.Key(0), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStagesSameProc(t *testing.T) {
	// Two stage goroutines per processor receive on different tags
	// concurrently — the scenario the tag-matched mailbox exists for.
	err := Run(2, func(pr *Proc) error {
		var cnt sim.Counters
		peer := 1 - pr.Rank()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for stage := 0; stage < 2; stage++ {
			wg.Add(1)
			go func(stage int) {
				defer wg.Done()
				var scnt sim.Counters
				for i := 0; i < 50; i++ {
					m := record.Make(1, 8)
					m.SetKey(0, uint64(stage*1000+i))
					if err := pr.Send(&scnt, peer, stage, m); err != nil {
						errs[stage] = err
						return
					}
					got, err := pr.Recv(peer, stage)
					if err != nil {
						errs[stage] = err
						return
					}
					if got.Key(0) != uint64(stage*1000+i) {
						errs[stage] = fmt.Errorf("stage %d got %d", stage, got.Key(0))
						return
					}
				}
			}(stage)
		}
		wg.Wait()
		_ = cnt
		return errors.Join(errs...)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNetworkVsLocalAccounting(t *testing.T) {
	cnts := make([]sim.Counters, 2)
	err := Run(2, func(pr *Proc) error {
		cnt := &cnts[pr.Rank()]
		m1 := record.Make(4, 16) // 64 bytes
		if err := pr.Send(cnt, pr.Rank(), 1, m1); err != nil {
			return err
		}
		if _, err := pr.Recv(pr.Rank(), 1); err != nil {
			return err
		}
		m2 := record.Make(2, 16) // 32 bytes
		if err := pr.Send(cnt, 1-pr.Rank(), 2, m2); err != nil {
			return err
		}
		_, err := pr.Recv(1-pr.Rank(), 2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, c := range cnts {
		if c.LocalBytes != 64 || c.LocalMsgs != 1 {
			t.Errorf("rank %d local: %d bytes %d msgs", rank, c.LocalBytes, c.LocalMsgs)
		}
		if c.NetBytes != 32 || c.NetMsgs != 1 {
			t.Errorf("rank %d net: %d bytes %d msgs", rank, c.NetBytes, c.NetMsgs)
		}
	}
}

func TestBarrier(t *testing.T) {
	const p = 8
	var mu sync.Mutex
	phase := make([]int, p)
	err := Run(p, func(pr *Proc) error {
		for round := 0; round < 5; round++ {
			mu.Lock()
			phase[pr.Rank()] = round
			mu.Unlock()
			if err := pr.Barrier(); err != nil {
				return err
			}
			// After the barrier, no processor may still be in an earlier
			// round.
			mu.Lock()
			for q, ph := range phase {
				if ph < round {
					mu.Unlock()
					return fmt.Errorf("rank %d saw rank %d at phase %d during round %d", pr.Rank(), q, ph, round)
				}
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAll(t *testing.T) {
	const p = 4
	err := Run(p, func(pr *Proc) error {
		var cnt sim.Counters
		out := make([]record.Slice, p)
		for q := 0; q < p; q++ {
			out[q] = record.Make(1, 8)
			out[q].SetKey(0, uint64(pr.Rank()*10+q))
		}
		in, err := pr.AllToAll(&cnt, 3, out)
		if err != nil {
			return err
		}
		for q := 0; q < p; q++ {
			if want := uint64(q*10 + pr.Rank()); in[q].Key(0) != want {
				return fmt.Errorf("rank %d from %d: got %d want %d", pr.Rank(), q, in[q].Key(0), want)
			}
		}
		// One message stays local.
		if cnt.LocalMsgs != 1 || cnt.NetMsgs != p-1 {
			return fmt.Errorf("rank %d: %d local %d net msgs", pr.Rank(), cnt.LocalMsgs, cnt.NetMsgs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllWrongLen(t *testing.T) {
	err := Run(2, func(pr *Proc) error {
		var cnt sim.Counters
		_, err := pr.AllToAll(&cnt, 1, make([]record.Slice, 3))
		if err == nil {
			return errors.New("no error for wrong buffer count")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastGather(t *testing.T) {
	const p = 4
	err := Run(p, func(pr *Proc) error {
		var cnt sim.Counters
		var payload record.Slice
		if pr.Rank() == 2 {
			payload = record.Make(1, 8)
			payload.SetKey(0, 777)
		}
		got, err := pr.Broadcast(&cnt, 2, 9, payload)
		if err != nil {
			return err
		}
		if got.Key(0) != 777 {
			return fmt.Errorf("rank %d broadcast got %d", pr.Rank(), got.Key(0))
		}
		mine := record.Make(1, 8)
		mine.SetKey(0, uint64(pr.Rank()))
		all, err := pr.Gather(&cnt, 0, 11, mine)
		if err != nil {
			return err
		}
		if pr.Rank() == 0 {
			for q := 0; q < p; q++ {
				if all[q].Key(0) != uint64(q) {
					return fmt.Errorf("gather slot %d = %d", q, all[q].Key(0))
				}
			}
		} else if all != nil {
			return errors.New("non-root got gather result")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduce(t *testing.T) {
	const p = 8
	err := Run(p, func(pr *Proc) error {
		var cnt sim.Counters
		sum, err := pr.AllReduceUint64(&cnt, 50, uint64(pr.Rank()+1), func(a, b uint64) uint64 { return a + b })
		if err != nil {
			return err
		}
		if sum != p*(p+1)/2 {
			return fmt.Errorf("rank %d: sum %d", pr.Rank(), sum)
		}
		max, err := pr.AllReduceUint64(&cnt, 60, uint64(pr.Rank()), func(a, b uint64) uint64 {
			if a > b {
				return a
			}
			return b
		})
		if err != nil {
			return err
		}
		if max != p-1 {
			return fmt.Errorf("rank %d: max %d", pr.Rank(), max)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorAbortsPeers(t *testing.T) {
	boom := errors.New("boom")
	err := Run(3, func(pr *Proc) error {
		if pr.Rank() == 1 {
			return boom
		}
		// These would block forever without abort propagation.
		_, err := pr.Recv(1, 99)
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	err := Run(2, func(pr *Proc) error {
		if pr.Rank() == 0 {
			panic("deliberate")
		}
		return pr.Barrier()
	})
	if err == nil || !contains(err.Error(), "panicked") {
		t.Fatalf("want panic error, got %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestAbortUnblocksBarrier(t *testing.T) {
	boom := errors.New("boom")
	err := Run(4, func(pr *Proc) error {
		if pr.Rank() == 3 {
			return boom
		}
		return pr.Barrier()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestSendRecvRangeChecks(t *testing.T) {
	err := Run(1, func(pr *Proc) error {
		var cnt sim.Counters
		if err := pr.Send(&cnt, 5, 0, record.Slice{}); err == nil {
			return errors.New("send to rank 5 of 1 accepted")
		}
		if _, err := pr.Recv(-1, 0); err == nil {
			return errors.New("recv from rank -1 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleProcCollectives(t *testing.T) {
	err := Run(1, func(pr *Proc) error {
		var cnt sim.Counters
		m := record.Make(1, 8)
		m.SetKey(0, 5)
		in, err := pr.AllToAll(&cnt, 0, []record.Slice{m})
		if err != nil || in[0].Key(0) != 5 {
			return fmt.Errorf("self all-to-all: %v", err)
		}
		if err := pr.Barrier(); err != nil {
			return err
		}
		v, err := pr.AllReduceUint64(&cnt, 2, 9, func(a, b uint64) uint64 { return a + b })
		if err != nil || v != 9 {
			return fmt.Errorf("self allreduce: %v %d", err, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunManyProcs(t *testing.T) {
	// A ring pass with 32 processors: each sends its rank around the ring
	// P times; the value arriving back must be its own rank.
	const p = 32
	err := Run(p, func(pr *Proc) error {
		var cnt sim.Counters
		val := uint64(pr.Rank())
		for hop := 0; hop < p; hop++ {
			m := record.Make(1, 8)
			m.SetKey(0, val)
			if err := pr.Send(&cnt, (pr.Rank()+1)%p, hop, m); err != nil {
				return err
			}
			got, err := pr.Recv((pr.Rank()+p-1)%p, hop)
			if err != nil {
				return err
			}
			val = got.Key(0)
		}
		if val != uint64(pr.Rank()) {
			return fmt.Errorf("ring returned %d to rank %d", val, pr.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// AllReduceUint64 folds one uint64 per processor with op (assumed
// associative and commutative) and returns the result on every processor.
// It rides on the record fabric with 8-byte records.
func (pr *Proc) AllReduceUint64(cnt *sim.Counters, tag int, x uint64, op func(a, b uint64) uint64) (uint64, error) {
	buf := record.Make(1, record.MinSize)
	buf.SetKey(0, x)
	all, err := pr.Gather(cnt, 0, tag, buf)
	if err != nil {
		return 0, err
	}
	var result record.Slice
	if pr.rank == 0 {
		acc := all[0].Key(0)
		for q := 1; q < pr.c.p; q++ {
			acc = op(acc, all[q].Key(0))
		}
		res := record.Make(1, record.MinSize)
		res.SetKey(0, acc)
		result, err = pr.Broadcast(cnt, 0, tag+1, res)
	} else {
		result, err = pr.Broadcast(cnt, 0, tag+1, record.Slice{})
	}
	if err != nil {
		return 0, err
	}
	return result.Key(0), nil
}
