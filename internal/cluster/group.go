package cluster

import (
	"fmt"

	"colsort/internal/record"
	"colsort/internal/sim"
)

// Group is a sub-communicator: a view of the cluster restricted to an
// explicit member list, with ranks renumbered 0..len(members)−1 in list
// order. It is the MPI communicator-split analogue that hybrid group
// columnsort uses to run a distributed in-core sort within each processor
// group (and across pairs of groups for boundary overlaps).
//
// A Group shares the parent's mailboxes: its traffic must therefore use tag
// windows disjoint from any concurrent communication among the same
// processors, exactly as concurrent pipeline rounds already do.
type Group struct {
	pr      *Proc
	members []int // global ranks, in group-rank order
	myRank  int   // this processor's rank within the group
	contig  bool  // members are [members[0], members[0]+len) in order
}

// NewGroup builds the sub-communicator for the calling processor. members
// lists the global ranks of the group in group-rank order and must contain
// the caller exactly once (and no duplicates).
func NewGroup(pr *Proc, members []int) (*Group, error) {
	g := &Group{pr: pr, members: append([]int(nil), members...), myRank: -1}
	seen := make(map[int]bool, len(members))
	for i, m := range members {
		if m < 0 || m >= pr.NProcs() {
			return nil, fmt.Errorf("cluster: group member %d out of range", m)
		}
		if seen[m] {
			return nil, fmt.Errorf("cluster: duplicate group member %d", m)
		}
		seen[m] = true
		if m == pr.Rank() {
			g.myRank = i
		}
	}
	if g.myRank < 0 {
		return nil, fmt.Errorf("cluster: rank %d is not a member of the group %v", pr.Rank(), members)
	}
	g.contig = true
	for i, m := range g.members {
		if m != g.members[0]+i {
			g.contig = false
			break
		}
	}
	return g, nil
}

// ContiguousGroup is the common case: members are the global ranks
// [base, base+size).
func ContiguousGroup(pr *Proc, base, size int) (*Group, error) {
	members := make([]int, size)
	for i := range members {
		members[i] = base + i
	}
	return NewGroup(pr, members)
}

// Rank returns this processor's rank within the group.
func (g *Group) Rank() int { return g.myRank }

// NProcs returns the group size.
func (g *Group) NProcs() int { return len(g.members) }

// Global translates a group rank to the cluster rank.
func (g *Group) Global(rank int) int { return g.members[rank] }

// Send delivers to group rank dst.
func (g *Group) Send(cnt *sim.Counters, dst, tag int, recs record.Slice) error {
	if dst < 0 || dst >= len(g.members) {
		return fmt.Errorf("cluster: group send to rank %d of %d", dst, len(g.members))
	}
	return g.pr.Send(cnt, g.members[dst], tag, recs)
}

// Recv receives from group rank src.
func (g *Group) Recv(src, tag int) (record.Slice, error) {
	if src < 0 || src >= len(g.members) {
		return record.Slice{}, fmt.Errorf("cluster: group recv from rank %d of %d", src, len(g.members))
	}
	return g.pr.Recv(g.members[src], tag)
}

// AllToAll exchanges within the group only. Contiguous groups (the common
// case: ContiguousGroup) run the round through the exchange board — keyed
// by (tag, member window) so disjoint groups may share a tag — with one
// synchronization per member; arbitrary member lists fall back to tagged
// point-to-point messages. Ownership and counter semantics match
// Proc.AllToAll.
func (g *Group) AllToAll(cnt *sim.Counters, tag int, out []record.Slice) ([]record.Slice, error) {
	if len(out) != len(g.members) {
		return nil, fmt.Errorf("cluster: group all-to-all with %d buffers on %d members", len(out), len(g.members))
	}
	chargeAllToAll(cnt, g.myRank, out)
	if g.contig {
		c := g.pr.c
		for d := range out {
			out[d] = c.wireCopy(out[d])
		}
		return c.exchangeRound(xkey{tag: tag, base: g.members[0], n: len(g.members)}, g.myRank, out)
	}
	for d := range g.members {
		if err := g.Send(nil, d, tag, out[d]); err != nil {
			return nil, err
		}
	}
	in := make([]record.Slice, len(g.members))
	for s := range g.members {
		recs, err := g.Recv(s, tag)
		if err != nil {
			return nil, err
		}
		in[s] = recs
	}
	return in, nil
}

// Broadcast sends root's buffer to every group member.
func (g *Group) Broadcast(cnt *sim.Counters, root, tag int, recs record.Slice) (record.Slice, error) {
	if g.myRank == root {
		for d := range g.members {
			if d == root {
				continue
			}
			cp := record.Make(recs.Len(), recs.Size)
			cp.Copy(recs)
			if err := g.Send(cnt, d, tag, cp); err != nil {
				return record.Slice{}, err
			}
		}
		return recs, nil
	}
	return g.Recv(root, tag)
}

// Gather collects every member's buffer at the group root.
func (g *Group) Gather(cnt *sim.Counters, root, tag int, recs record.Slice) ([]record.Slice, error) {
	if err := g.Send(cnt, root, tag, recs); err != nil {
		return nil, err
	}
	if g.myRank != root {
		return nil, nil
	}
	all := make([]record.Slice, len(g.members))
	for s := range g.members {
		r, err := g.Recv(s, tag)
		if err != nil {
			return nil, err
		}
		all[s] = r
	}
	return all, nil
}
