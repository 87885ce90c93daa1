package core

import "math/bits"

// The ordering stage orders by small integers: a clock, a dense rank, a time
// offset from the trace's first event. Its sorts are flat.Sorter's radix sort;
// this file holds its other comparison-free primitive, a bitmap priority
// queue.

// rankQueue is a min-priority queue over the dense integer ranks [0, n): a
// 64-ary bitmap tree. Bit r of level 0 is set while rank r is queued, and bit
// i of level k+1 is set while word i of level k is non-zero, so the minimum
// is found by following trailing-zero counts down from the single top word.
// An empty queue is all zeros on every level: draining it is its reset, and
// a lane reuses one queue for every phase without clearing anything.
type rankQueue struct {
	levels [6][]uint64 // levels[0] are the leaves; 64^6 covers every int32 rank
	depth  int         // levels in use; the last one is a single word
}

// reset sizes the (empty) queue for ranks below n.
func (q *rankQueue) reset(n int) {
	q.depth = 0
	for words := max(n, 1); ; {
		words = (words + 63) / 64
		if len(q.levels[q.depth]) < words {
			q.levels[q.depth] = make([]uint64, words)
		}
		q.depth++
		if words == 1 {
			return
		}
	}
}

func (q *rankQueue) empty() bool { return q.levels[q.depth-1][0] == 0 }

func (q *rankQueue) push(r int32) {
	for _, lv := range q.levels[:q.depth] {
		w := &lv[r>>6]
		was := *w
		*w |= 1 << (r & 63)
		if was != 0 {
			return
		}
		r >>= 6
	}
}

// pop removes and returns the smallest queued rank; the queue must not be
// empty.
func (q *rankQueue) pop() int32 {
	r := int32(0)
	for k := q.depth - 1; k >= 0; k-- {
		r = r<<6 | int32(bits.TrailingZeros64(q.levels[k][r]))
	}
	at := r
	for _, lv := range q.levels[:q.depth] {
		w := &lv[at>>6]
		*w &^= 1 << (at & 63)
		if *w != 0 {
			break
		}
		at >>= 6
	}
	return r
}
