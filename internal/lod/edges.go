package lod

import (
	"sort"

	"charmtrace/internal/flat"
)

// edgeKey is an edge's endpoints packed into one integer — SrcBucket,
// SrcCluster, DstBucket, DstCluster from the most significant field down —
// so that integer order is the canonical wire order and halving a bucket
// axis is removing one bit. hi is zero for keys of at most 64 bits.
type edgeKey struct{ hi, lo uint64 }

func (k edgeKey) less(o edgeKey) bool { return k.hi < o.hi || k.hi == o.hi && k.lo < o.lo }

func (k edgeKey) shr(n uint) edgeKey {
	if n >= 64 {
		return edgeKey{0, k.hi >> (n - 64)}
	}
	return edgeKey{k.hi >> n, k.lo>>n | k.hi<<(64-n)}
}

// dropBit removes bit p, moving every higher bit one place down.
func (k edgeKey) dropBit(p uint) edgeKey {
	drop := func(w uint64, p uint) uint64 { return w&(1<<p-1) | w>>(p+1)<<p }
	if p >= 64 {
		return edgeKey{drop(k.hi, p-64), k.lo}
	}
	return edgeKey{k.hi >> 1, drop(k.lo, p) | k.hi<<63}
}

// edgeList is one level's edges as parallel columns in ascending key order.
// The key fields are bBits (buckets) and cBits (clusters) wide: the widths
// the structure's own step and cluster counts need, one bucket bit fewer
// per level up. Keys that fit 64 bits live in lo alone and hi is nil; wider
// ones keep their high bits in hi.
type edgeList struct {
	hi, lo       []uint64
	weight       []int64
	bBits, cBits uint
}

func newEdgeList(n int, bBits, cBits uint) edgeList {
	l := edgeList{lo: make([]uint64, n), weight: make([]int64, n), bBits: bBits, cBits: cBits}
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

func (l *edgeList) set(i int, k edgeKey, w int64) {
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

// clone returns an exact-size copy for a level whose bucket fields are
// bBits wide, without the hi column if that width no longer needs it.
func (l *edgeList) clone(bBits uint) edgeList {
	out := newEdgeList(len(l.lo), bBits, l.cBits)
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
	return Edge{int32(src >> l.cBits), int32(src & cluster), int32(dst >> l.cBits), int32(dst & cluster), l.weight[i]}
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
		s := flat.Sorter[int64]{Key: l.lo, Val: l.weight, TmpKey: tmp.lo, TmpVal: tmp.weight}
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

// halveInto writes into out (made at least as long as l) the list whose keys
// are l's with bit p removed — the low bit of a bucket field, so one bucket
// axis at half resolution — summing the weights of keys that become equal.
// The keys that agree above bit p form one group; inside it those with the
// bit clear precede those with it set, and each run is ascending in the bits
// below p, so merging the two runs group by group leaves out sorted.
func (l *edgeList) halveInto(out *edgeList, p uint) {
	out.resize(cap(out.lo))
	n, end := 0, len(l.lo)
	for i := 0; i < end; {
		group, mid, j := l.at(i).shr(p+1), i, i
		for ; j < end && l.at(j).shr(p+1) == group; j++ {
			if l.at(j).shr(p).lo&1 == 0 {
				mid = j + 1
			}
		}
		for a, b := i, mid; a < mid || b < j; n++ {
			switch ka, kb := l.without(p, a, mid), l.without(p, b, j); {
			case ka == kb:
				out.set(n, ka, l.weight[a]+l.weight[b])
				a, b = a+1, b+1
			case ka.less(kb):
				out.set(n, ka, l.weight[a])
				a++
			default:
				out.set(n, kb, l.weight[b])
				b++
			}
		}
		i = j
	}
	out.resize(n)
}

// without returns entry i's key with bit p removed, or the all-ones key —
// above every real one — once i has reached its run's end.
func (l *edgeList) without(p uint, i, end int) edgeKey {
	if i == end {
		return edgeKey{^uint64(0), ^uint64(0)}
	}
	return l.at(i).dropBit(p)
}
