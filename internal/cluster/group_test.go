package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"colsort/internal/record"
	"colsort/internal/sim"
)

func TestGroupValidation(t *testing.T) {
	err := Run(4, func(pr *Proc) error {
		if _, err := pr.Sub(2, 3); err == nil {
			return errors.New("window past the cluster accepted")
		}
		if _, err := pr.Sub(-1, 2); err == nil {
			return errors.New("window before rank 0 accepted")
		}
		if _, err := pr.Sub(pr.Rank(), 0); err == nil {
			return errors.New("empty window accepted")
		}
		peer := (pr.Rank() + 1) % 4
		if _, err := pr.Sub(peer, 1); err == nil {
			return errors.New("window without the caller accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContiguousGroupExchange(t *testing.T) {
	// Two windows of 2 on a 4-processor cluster, doing independent
	// all-to-alls with the same tag: the windows must not cross-talk.
	err := Run(4, func(pr *Proc) error {
		var cnt sim.Counters
		base := (pr.Rank() / 2) * 2
		g, err := pr.Sub(base, 2)
		if err != nil {
			return err
		}
		if g.NProcs() != 2 {
			return fmt.Errorf("window size %d", g.NProcs())
		}
		if base+g.Rank() != pr.Rank() {
			return errors.New("rank translation broken")
		}
		out := make([]record.Slice, 2)
		for d := range out {
			out[d] = record.Make(1, 8)
			out[d].SetKey(0, uint64(100*base+10*g.Rank()+d))
		}
		in, err := g.AllToAll(&cnt, 7, out)
		if err != nil {
			return err
		}
		for s := range in {
			want := uint64(100*base + 10*s + g.Rank())
			if in[s].Key(0) != want {
				return fmt.Errorf("rank %d got %d from %d, want %d (cross-window leak?)",
					pr.Rank(), in[s].Key(0), s, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupCollectives(t *testing.T) {
	err := Run(4, func(pr *Proc) error {
		var cnt sim.Counters
		g, err := pr.Sub(0, 4)
		if err != nil {
			return err
		}
		var payload record.Slice
		if g.Rank() == 1 {
			payload = record.Make(1, 8)
			payload.SetKey(0, 55)
		}
		got, err := g.Broadcast(&cnt, 1, 20, payload)
		if err != nil {
			return err
		}
		if got.Key(0) != 55 {
			return fmt.Errorf("broadcast got %d", got.Key(0))
		}
		mine := record.Make(1, 8)
		mine.SetKey(0, uint64(g.Rank()))
		all, err := g.Gather(&cnt, 2, 21, mine)
		if err != nil {
			return err
		}
		if g.Rank() == 2 {
			for s := range all {
				if all[s].Key(0) != uint64(s) {
					return fmt.Errorf("gather slot %d = %d", s, all[s].Key(0))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWindowsOffZero runs the windows [0, 2) and [2, 4) of a 4-processor
// cluster concurrently on the same tags, so a collective that forgets to
// translate window ranks by the window's base talks to the wrong window —
// and, its message never arriving, fails at the deadline instead of hanging.
func TestWindowsOffZero(t *testing.T) {
	ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel()
	err := RunCtx(ctx, 4, func(pr *Proc) error {
		base := pr.Rank() / 2 * 2
		g, err := pr.Sub(base, 2)
		if err != nil {
			return err
		}
		me, peer := g.Rank(), 1-g.Rank()
		if me != pr.Rank()-base {
			return fmt.Errorf("window rank %d for cluster rank %d", me, pr.Rank())
		}

		// Point to point: a message to oneself is local, one to the peer is
		// network traffic, and the peer is the one inside my window.
		var cnt sim.Counters
		for _, dst := range []int{me, peer} {
			m := record.Make(1, 8)
			m.SetKey(0, uint64(100*pr.Rank()+dst))
			if err := g.Send(&cnt, dst, 3, m); err != nil {
				return err
			}
		}
		if cnt.LocalMsgs != 1 || cnt.NetMsgs != 1 || cnt.LocalBytes != 8 || cnt.NetBytes != 8 {
			return fmt.Errorf("rank %d counted %+v, want one local and one network message", pr.Rank(), cnt)
		}
		for _, src := range []int{me, peer} {
			got, err := g.Recv(src, 3)
			if err != nil {
				return err
			}
			if want := uint64(100*(base+src) + me); got.Key(0) != want {
				return fmt.Errorf("rank %d got %d from window rank %d, want %d", pr.Rank(), got.Key(0), src, want)
			}
		}

		// Broadcast from window rank 1, Gather at window rank 0.
		var payload record.Slice
		if me == 1 {
			payload = record.Make(1, 8)
			payload.SetKey(0, uint64(1000+base))
		}
		got, err := g.Broadcast(&cnt, 1, 20, payload)
		if err != nil {
			return err
		}
		if got.Key(0) != uint64(1000+base) {
			return fmt.Errorf("rank %d: broadcast got %d, want %d", pr.Rank(), got.Key(0), 1000+base)
		}
		mine := record.Make(1, 8)
		mine.SetKey(0, uint64(pr.Rank()))
		all, err := g.Gather(&cnt, 0, 21, mine)
		if err != nil {
			return err
		}
		if me == 0 {
			for s := range all {
				if all[s].Key(0) != uint64(base+s) {
					return fmt.Errorf("rank %d: gather slot %d = %d, want %d", pr.Rank(), s, all[s].Key(0), base+s)
				}
			}
		} else if all != nil {
			return fmt.Errorf("rank %d: non-root gather returned %d buffers", pr.Rank(), len(all))
		}

		// A Sub of a window composes: the one-processor window [me, me+1)
		// of [base, base+2) is cluster rank base+me, talking to itself.
		one, err := g.Sub(me, 1)
		if err != nil {
			return err
		}
		if one.Rank() != 0 || one.NProcs() != 1 {
			return fmt.Errorf("sub of a window: rank %d of %d", one.Rank(), one.NProcs())
		}
		var own sim.Counters
		m := record.Make(1, 8)
		m.SetKey(0, uint64(pr.Rank()))
		if err := one.Send(&own, 0, 30, m); err != nil {
			return err
		}
		if own.LocalMsgs != 1 || own.NetMsgs != 0 {
			return fmt.Errorf("rank %d: self-send in a composed window counted %+v", pr.Rank(), own)
		}
		// It reads the mailbox cluster rank base+me wrote to itself.
		if got, err := g.Recv(me, 30); err != nil || got.Key(0) != uint64(pr.Rank()) {
			return fmt.Errorf("rank %d: composed window delivered %v, %v", pr.Rank(), got, err)
		}

		// A Sub must lie inside the caller's window and contain the caller.
		if _, err := g.Sub(0, 3); err == nil {
			return errors.New("window past the parent window accepted")
		}
		if _, err := g.Sub(peer, 1); err == nil {
			return errors.New("window without the caller accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupRangeChecks(t *testing.T) {
	err := Run(4, func(pr *Proc) error {
		var cnt sim.Counters
		g, err := pr.Sub(pr.Rank()/2*2, 2)
		if err != nil {
			return err
		}
		if err := g.Send(&cnt, 2, 0, record.Slice{}); err == nil {
			return errors.New("send to window rank 2 of 2 accepted")
		}
		if _, err := g.Recv(-1, 0); err == nil {
			return errors.New("recv from window rank -1 accepted")
		}
		if _, err := g.AllToAll(&cnt, 0, make([]record.Slice, 4)); err == nil {
			return errors.New("cluster-wide all-to-all width accepted in a window")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
