package lod

import (
	"sort"

	"charmtrace/internal/flat"
)

// edgeKey is an edge's endpoints packed into one integer — SrcBucket,
// SrcCluster, DstBucket, DstCluster from the most significant field down —
// so that integer order is the canonical wire order. hi is zero for keys of
// at most 64 bits.
type edgeKey struct{ hi, lo uint64 }

func (k edgeKey) shr(n uint) edgeKey {
	if n >= 64 {
		return edgeKey{0, k.hi >> (n - 64)}
	}
	return edgeKey{k.hi >> n, k.lo>>n | k.hi<<(64-n)}
}

// edgeList is one level's edges as parallel columns in ascending key order.
// The key fields are bBits (buckets) and cBits (clusters) wide: the widths
// the level's own bucket count and the structure's cluster count need. Keys
// that fit 64 bits live in lo alone and hi is nil; wider ones keep their
// high bits in hi. A weight counts matched messages, so it fits 32 bits.
type edgeList struct {
	hi, lo       []uint64
	weight       []uint32
	bBits, cBits uint
}

func newEdgeList(n int, bBits, cBits uint) edgeList {
	l := edgeList{lo: make([]uint64, n), weight: make([]uint32, n), bBits: bBits, cBits: cBits}
	if 2*(bBits+cBits) > 64 {
		l.hi = make([]uint64, n)
	}
	return l
}

func (l *edgeList) at(i int) edgeKey {
	if l.hi == nil {
		return edgeKey{0, l.lo[i]}
	}
	return edgeKey{l.hi[i], l.lo[i]}
}

func (l *edgeList) set(i int, k edgeKey, w uint32) {
	l.lo[i], l.weight[i] = k.lo, w
	if l.hi != nil {
		l.hi[i] = k.hi
	}
}

// resize sets the list's length, within the capacity it was made with.
func (l *edgeList) resize(n int) {
	l.lo, l.weight = l.lo[:n], l.weight[:n]
	if l.hi != nil {
		l.hi = l.hi[:n]
	}
}

// clone returns an exact-size copy.
func (l *edgeList) clone() edgeList {
	out := newEdgeList(len(l.lo), l.bBits, l.cBits)
	copy(out.lo, l.lo)
	copy(out.weight, l.weight)
	copy(out.hi, l.hi)
	return out
}

func (l *edgeList) pack(sb, sc, db, dc int32) edgeKey {
	src, half := uint64(sb)<<l.cBits|uint64(sc), l.bBits+l.cBits
	return edgeKey{src >> (64 - half), src<<half | uint64(db)<<l.cBits | uint64(dc)}
}

// edge unpacks entry i.
func (l *edgeList) edge(i int) Edge {
	k, half, cluster := l.at(i), l.bBits+l.cBits, uint64(1)<<l.cBits-1
	src, dst := k.shr(half).lo, k.lo&(1<<half-1)
	return Edge{int32(src >> l.cBits), int32(src & cluster), int32(dst >> l.cBits), int32(dst & cluster), int64(l.weight[i])}
}

// from returns the position of the first edge whose SrcBucket is >= b.
func (l *edgeList) from(b int32) int {
	return sort.Search(len(l.lo), func(i int) bool { return l.at(i).shr(l.bBits+2*l.cBits).lo >= uint64(b) })
}

// sortAndCombine turns one key per message, in any order and each weighing
// one, into the sorted edge list: the shared radix sort (no comparator; tmp is
// scratch of the same shape) — a 64-bit key carrying its weight, a wider one
// sorted by its low word carrying the high one and then, stably, the other
// way round — then each run of equal keys folded into one entry weighing the
// run's length.
func (l *edgeList) sortAndCombine(tmp *edgeList) {
	tmp.resize(len(l.lo))
	if l.hi == nil {
		s := flat.Sorter[uint32]{Key: l.lo, Val: l.weight, TmpKey: tmp.lo, TmpVal: tmp.weight}
		l.lo, l.weight = s.Sort(len(l.lo))
		tmp.lo, tmp.weight = s.TmpKey, s.TmpVal
	} else {
		s := flat.Sorter[uint64]{Key: l.lo, Val: l.hi, TmpKey: tmp.lo, TmpVal: tmp.hi}
		s.Sort(len(l.lo))
		s.Key, s.Val, s.TmpKey, s.TmpVal = s.Val, s.Key, s.TmpVal, s.TmpKey
		l.hi, l.lo = s.Sort(len(l.lo))
		tmp.hi, tmp.lo = s.TmpKey, s.TmpVal
	}
	n := 0
	for i := range l.lo {
		if k := l.at(i); n > 0 && k == l.at(n-1) {
			l.weight[n-1]++
		} else {
			l.set(n, k, 1)
			n++
		}
	}
	l.resize(n)
}
