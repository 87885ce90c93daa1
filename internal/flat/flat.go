// Package flat holds the tree's one copy of each flat-layout primitive
// (DESIGN.md §3a): grouping IDs into CSR rows by a key column, a stable LSD
// radix sort over integer key columns, and the resize of a scratch buffer.
// Keys are columns, never callbacks, and buffers come from the caller, so a
// lane that reuses its scratch allocates nothing.
package flat

import "math/bits"

// Grow returns buf resized to n without preserving or zeroing its contents.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Rows is a CSR row set: row i is IDs[Off[i]:Off[i+1]].
type Rows[T ~int32] struct {
	Off []int32
	IDs []T
}

// Row returns row i as a full-capacity sub-slice (an append by the caller
// reallocates instead of clobbering the next row), nil when empty.
func (r Rows[T]) Row(i int) []T {
	lo, hi := r.Off[i], r.Off[i+1]
	if lo == hi {
		return nil
	}
	return r.IDs[lo:hi:hi]
}

// Group stably counting-sorts items into n rows: item x goes to row col[x],
// or nowhere if col[x] is negative, and every row keeps the items' order. off
// and dst are the caller's buffers for the result, reused when they have room
// for n+2 offsets and the kept items (nil allocates).
func Group[T, S, K ~int32](n int, off []int32, dst []T, items []S, col []K) Rows[T] {
	// Count into off[k+2] and prefix-sum, so that off[k+1] is row k's start;
	// filling advances it to the row's end, which leaves off[k], off[k+1] as
	// the row's bounds without a separate cursor array.
	off = Grow(off, n+2)
	clear(off)
	for _, x := range items {
		if k := col[x]; k >= 0 {
			off[k+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	dst = Grow(dst, int(off[n+1]))
	for _, x := range items {
		if k := col[x]; k >= 0 {
			dst[off[k+1]] = T(x)
			off[k+1]++
		}
	}
	return Rows[T]{Off: off[:n+1], IDs: dst}
}

// GroupAll is Group over the items 0..len(col)-1 in increasing order: the
// positions of col grouped by their key.
func GroupAll[T, K ~int32](n int, off []int32, dst []T, col []K) Rows[T] {
	off = Grow(off, n+2)
	clear(off)
	for _, k := range col {
		if k >= 0 {
			off[k+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	dst = Grow(dst, int(off[n+1]))
	for x, k := range col {
		if k >= 0 {
			dst[off[k+1]] = T(x)
			off[k+1]++
		}
	}
	return Rows[T]{Off: off[:n+1], IDs: dst}
}

// Sorter is the working memory of a radix sort: a key column and one payload
// column of any type, a second pair to scatter into (sized by Columns, or the
// caller's own), and the digit histogram.
type Sorter[P any] struct {
	Key, TmpKey []uint64
	Val, TmpVal []P
	next        []int32
}

// Columns returns the key and payload columns sized for n items, for the
// caller to fill before Sort.
func (s *Sorter[P]) Columns(n int) ([]uint64, []P) {
	s.Key, s.TmpKey = Grow(s.Key, n), Grow(s.TmpKey, n)
	s.Val, s.TmpVal = Grow(s.Val, n), Grow(s.TmpVal, n)
	return s.Key, s.Val
}

// Sort stably sorts the first n items of the columns by key — an LSD radix
// sort, so items with equal keys keep their order, and a key wider than 64
// bits is sorted low word first, each word carrying the other as payload —
// and returns the sorted columns; the pairs swap on every pass and the
// Sorter's own are the sorted ones afterwards. The digit is as wide as the
// item count warrants (a histogram never outweighs the items) and digits on
// which all keys agree are skipped, so the cost is a few passes over the bits
// that actually vary.
func (s *Sorter[P]) Sort(n int) ([]uint64, []P) {
	var differ uint64
	for _, k := range s.Key[:n] {
		differ |= k ^ s.Key[0]
	}
	width := min(max(bits.Len(uint(n)), 4), 11)
	s.next = Grow(s.next, 1<<width)
	next, mask := s.next, uint64(1)<<width-1
	for shift := 0; differ>>shift != 0; shift += width {
		if differ>>shift&mask == 0 {
			continue
		}
		keys, vals := s.Key[:n], s.Val[:n]
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
			s.TmpKey[next[d]], s.TmpVal[next[d]] = k, vals[i]
			next[d]++
		}
		s.Key, s.TmpKey, s.Val, s.TmpVal = s.TmpKey, s.Key, s.TmpVal, s.Val
	}
	return s.Key[:n], s.Val[:n]
}
