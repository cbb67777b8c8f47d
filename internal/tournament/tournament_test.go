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

// TestBound plays tournaments of every width up to 70 and replays each
// winner with a random key — the maximal key among them, both on contestants
// marked exhausted and on live ones — and after every replay requires the
// winner's Bound to be the least key of every other contestant, found by
// brute force.
func TestBound(t *testing.T) {
	const maxKey = ^uint64(0)
	for n := 1; n <= 70; n++ {
		rng := rand.New(rand.NewSource(int64(n)))
		draw := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return maxKey
			case 1:
				return uint64(rng.Intn(3))
			}
			return rng.Uint64()
		}
		keys, done := make([]uint64, n), make([]bool, n)
		for i := range keys {
			keys[i] = draw()
		}
		tie := func(o, w int32) bool {
			if done[o] || done[w] {
				return !done[o]
			}
			return o < w
		}
		node := make([]Node, n)
		Play(node, func(id int32) Node { return Node{Key: keys[id], ID: id} }, tie)
		for step := 0; step < 4*n; step++ {
			w := node[0].ID
			want := maxKey
			for i, k := range keys {
				if int32(i) != w {
					want = min(want, k)
				}
			}
			if got := Bound(node, w); got != want {
				t.Fatalf("n=%d step %d: Bound of winner %d is %x, want %x", n, step, w, got, want)
			}
			keys[w] = draw()
			done[w] = keys[w] == maxKey && rng.Intn(2) == 0
			Replay(node, w, keys[w], tie)
		}
	}
}
