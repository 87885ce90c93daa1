package core

import (
	"container/heap"
	"math/rand"
	"testing"
)

type intHeap []int32

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int32)) }
func (h *intHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestRankQueueMatchesHeap drives one rankQueue and a container/heap through
// the same random interleaving of pushes and pops at every size where the
// bitmap tree gains a level (64^k and its neighbours), drains both, and goes
// round again on the same queue: a drained queue must be as good as new, at
// any size, without being cleared.
func TestRankQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q rankQueue
	for round := 0; round < 2; round++ {
		for _, n := range []int{0, 1, 63, 64, 65, 4096, 4097, 262145, 65, 1} {
			q.reset(n)
			ref := &intHeap{}
			queued := make([]bool, n)
			pop := func() {
				want := heap.Pop(ref).(int32)
				if got := q.pop(); got != want {
					t.Fatalf("n=%d: pop = %d, heap says %d", n, got, want)
				}
				queued[want] = false
			}
			ops := min(4*n, 40000)
			for i := 0; i < ops; i++ {
				if r := int32(rng.Intn(n)); rng.Intn(3) > 0 && !queued[r] {
					q.push(r)
					heap.Push(ref, r)
					queued[r] = true
				} else if ref.Len() > 0 {
					pop()
				}
				if q.empty() != (ref.Len() == 0) {
					t.Fatalf("n=%d: empty() = %v with %d queued", n, q.empty(), ref.Len())
				}
			}
			if n > 0 && !queued[n-1] { // the last rank exercises the last word of every level
				q.push(int32(n - 1))
				heap.Push(ref, int32(n-1))
			}
			for ref.Len() > 0 {
				pop()
			}
			if !q.empty() {
				t.Fatalf("n=%d: not empty after the drain", n)
			}
			for k, lv := range q.levels {
				for i, w := range lv {
					if w != 0 {
						t.Fatalf("n=%d: level %d word %d = %#x after the drain", n, k, i, w)
					}
				}
			}
		}
	}
}
