package tournament

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPlayReplayOrder drains tournaments of every small width (powers of
// two and not) over keys with many ties: the winners must come out in
// (key, id) order, and a contestant given MaxKey and marked done must never
// win again while a live one remains.
func TestPlayReplayOrder(t *testing.T) {
	const maxKey = ^uint64(0)
	for n := 1; n <= 33; n++ {
		rng := rand.New(rand.NewSource(int64(n)))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(4))
			if keys[i] == 3 {
				keys[i] = maxKey // a live contestant carrying the sentinel's key
			}
		}
		done := make([]bool, n)
		tie := func(o, w int32) bool {
			if done[o] || done[w] {
				return !done[o]
			}
			return o < w
		}
		node := make([]Node, n)
		Play(node, func(id int32) Node { return Node{Key: keys[id], ID: id} }, tie)

		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
		for i, w := range want {
			got := node[0]
			if got.ID != w || got.Key != keys[w] || done[w] {
				t.Fatalf("n=%d: winner %d is %+v, want contestant %d (key %d)", n, i, got, w, keys[w])
			}
			done[w] = true
			Replay(node, w, maxKey, tie)
		}
	}
}
