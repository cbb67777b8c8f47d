// Package tournament is the loser-tree kernel shared by the in-memory
// k-way merge (internal/sortalg), the merge of sorted mini-runs that forms
// runs (internal/runform) and the streaming merge of spilled runs
// (internal/merge): Knuth's tree of losers (TAOCP vol. 3 §5.4.1) over n
// contestants, with each contestant's 8-byte key prefix held INLINE in the
// tree so the common match is one 16-byte node load and one uint64 compare.
//
// The tree is a plain []Node of length n: node[0] is the overall winner,
// node[i] for 1 ≤ i < n the loser of the match at internal node i, whose
// children are 2i and 2i+1; contestant id stands at the implicit leaf index
// n+id. Any n ≥ 1 works — no power-of-two padding. The path a changed
// contestant replays, (n+id)>>1, (n+id)>>2, …, 1, is known before any node
// is loaded, so the loads overlap instead of chaining the way a binary
// heap's sift-down (child index → key → next child index) must.
//
// Smaller keys win. What a key MEANS is the caller's business: callers put
// the maximal key on a contestant with nothing to offer (an exhausted run)
// and tell it apart from a live record carrying the same prefix in their tie
// function, which the kernel reaches only when two prefixes are equal — no
// interface or function call sits on the hot compare: tie(o, w) reports
// whether contestant o beats contestant w. A contestant with nothing to offer
// must lose to every live one; among live contestants tie must be a strict
// order.
package tournament

// Node is one tournament entry: a contestant and its current key prefix.
type Node struct {
	Key uint64
	ID  int32
}

// Play runs the whole tournament over len(node) contestants, leaf(id)
// giving each one's entry: losers are stored in node[1:], the winner in
// node[0]. O(n) matches, O(log n) stack, no scratch.
func Play(node []Node, leaf func(id int32) Node, tie func(o, w int32) bool) {
	w := play(node, 1, leaf, tie)
	node[0].Key, node[0].ID = w.Key, w.ID
}

// play resolves the tournament below tree index i and returns its winner.
func play(node []Node, i int, leaf func(id int32) Node, tie func(o, w int32) bool) Node {
	if i >= len(node) {
		return leaf(int32(i - len(node)))
	}
	a, b := play(node, 2*i, leaf, tie), play(node, 2*i+1, leaf, tie)
	if a.Key > b.Key || a.Key == b.Key && tie(b.ID, a.ID) {
		a, b = b, a
	}
	node[i].Key, node[i].ID = b.Key, b.ID
	return a
}

// Replay re-runs the matches on contestant w's path to the root after its
// key changed to key, and records the new winner in node[0]. The swap is
// written branchlessly (the loser is stored unconditionally, the winner
// selected by conditional moves) because match outcomes on random data are
// inherently unpredictable and a mispredicted swap branch would cost more
// than the compare itself.
func Replay(node []Node, w int32, key uint64, tie func(o, w int32) bool) {
	for i := (int(w) + len(node)) >> 1; i > 0; i >>= 1 {
		o := node[i]
		oBeats := o.Key < key
		if o.Key == key { // rare: prefix tie
			oBeats = tie(o.ID, w)
		}
		lk, lid := o.Key, o.ID
		if oBeats {
			lk, lid = key, w
			key, w = o.Key, o.ID
		}
		node[i].Key, node[i].ID = lk, lid
	}
	node[0].Key, node[0].ID = key, w
}

// Bound returns the smallest key stored on contestant w's path to the root:
// the least key among the contestants w has not yet met in the matches above
// it, and every other contestant's key once w is the winner — its runner-up's.
// A tournament of one has no path, and its bound is the maximal key.
func Bound(node []Node, w int32) uint64 {
	b := ^uint64(0)
	for i := (int(w) + len(node)) >> 1; i > 0; i >>= 1 {
		b = min(b, node[i].Key)
	}
	return b
}
