package core

import "math/bits"

// The ordering stage orders by small integers: a clock, a dense rank, a time
// offset from the trace's first event. This file holds its two comparison-free
// primitives, a radix sort and a bitmap priority queue.

// sortScratch is the working memory of radixSort: the key and ID columns, a
// second pair to scatter into, and the digit histogram.
type sortScratch struct {
	keys, keysTmp []uint64
	ids, idsTmp   []int32
	next          []int32
}

// columns returns the key and ID columns sized for n items, for the caller to
// fill before radixSort.
func (sc *sortScratch) columns(n int) ([]uint64, []int32) {
	if cap(sc.keys) < n {
		sc.keys, sc.keysTmp = make([]uint64, n), make([]uint64, n)
		sc.ids, sc.idsTmp = make([]int32, n), make([]int32, n)
	}
	return sc.keys[:n], sc.ids[:n]
}

// radixSort stably sorts the first n items of the columns by key — an LSD
// radix sort, so items with equal keys keep their order — and returns the
// sorted columns. The digit is as wide as the item count warrants (a
// histogram never outweighs the items) and digits on which all keys agree are
// skipped, so the cost is a few passes over the bits that actually vary.
func (sc *sortScratch) radixSort(n int) ([]uint64, []int32) {
	var differ uint64
	for _, k := range sc.keys[:n] {
		differ |= k ^ sc.keys[0]
	}
	width := min(max(bits.Len(uint(n)), 4), 11)
	if sc.next == nil {
		sc.next = make([]int32, 1<<11)
	}
	next := sc.next[:1<<width]
	mask := uint64(len(next) - 1)
	for shift := 0; differ>>shift != 0; shift += width {
		if differ>>shift&mask == 0 {
			continue
		}
		keys, ids := sc.keys[:n], sc.ids[:n]
		clear(next)
		for _, k := range keys {
			next[k>>shift&mask]++
		}
		at := int32(0)
		for d, c := range next {
			next[d], at = at, at+c
		}
		for i, k := range keys {
			d := k >> shift & mask
			sc.keysTmp[next[d]], sc.idsTmp[next[d]] = k, ids[i]
			next[d]++
		}
		sc.keys, sc.keysTmp, sc.ids, sc.idsTmp = sc.keysTmp, sc.keys, sc.idsTmp, sc.ids
	}
	return sc.keys[:n], sc.ids[:n]
}

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
