package core

import (
	"container/heap"
	"math/rand"
	"slices"
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

// TestRadixSortIsAStableSort: random keys of every width class (one digit,
// several, all 64 bits, all equal, bits set only far apart) at sizes around
// the digit-width breakpoints, against slices.SortStableFunc; sorting twice
// in a row on the same scratch chains as two stable sorts do.
func TestRadixSortIsAStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	masks := []uint64{0, 0xf, 0x7ff, 0xfffff, 1<<40 | 1, 1<<63 | 0xff00, ^uint64(0)}
	var sc sortScratch
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 2047, 2048, 2049, 50000} {
		for _, mask := range masks {
			type item struct {
				key, key2 uint64
				id        int32
			}
			items := make([]item, n)
			keys, ids := sc.columns(n)
			for i := range items {
				items[i] = item{rng.Uint64() & mask, rng.Uint64() & 0x3, int32(i)}
				keys[i], ids[i] = items[i].key2, int32(i)
			}
			// Least significant key first, as the ordering stage chains them.
			_, order := sc.radixSort(n)
			keys, _ = sc.columns(n)
			for i, id := range order {
				keys[i] = items[id].key
			}
			keys, order = sc.radixSort(n)
			slices.SortStableFunc(items, func(a, b item) int {
				switch {
				case a.key != b.key && a.key < b.key, a.key == b.key && a.key2 < b.key2:
					return -1
				case a.key == b.key && a.key2 == b.key2:
					return 0
				}
				return 1
			})
			for i, it := range items {
				if order[i] != it.id || keys[i] != it.key {
					t.Fatalf("n=%d mask=%#x: position %d holds id %d key %#x, want id %d key %#x",
						n, mask, i, order[i], keys[i], it.id, it.key)
				}
			}
		}
	}
}
