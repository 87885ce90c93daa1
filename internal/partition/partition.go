// Package partition implements the merge machinery of the phase-finding
// stage (Section 3.1 of the paper): a union-find over initial partitions
// ("atoms"), an atom-level dependency-edge store, cycle merges that contract
// strongly connected components so the partition graph stays a DAG, and
// snapshot views that expose the current partitions with their chare sets
// and the condensed partition DAG.
//
// The phase-finding pipeline in internal/core repeatedly alternates between
// scheduling merges (unions) based on heuristics and taking a fresh View to
// inspect the resulting partition graph.
//
// The atom table is stored struct-of-arrays: per-field slices indexed by ID,
// with every atom's events packed into one shared flat buffer. The repeated
// scans of the pipeline (dependency sweep, per-partition info, view
// construction) therefore walk contiguous memory instead of chasing
// per-atom slice headers, and a Set performs O(1) allocations per atom
// batch instead of O(atoms). Transient per-call state (root indexing, edge
// deduplication) lives in a scratch area owned by the Set and reused across
// calls; a Set is single-extraction state, so the scratch dies with it.
package partition

import (
	"fmt"
	"sort"
	"sync"

	"charmtrace/internal/flat"
	"charmtrace/internal/graph"
	"charmtrace/internal/trace"
)

// ID identifies an atom: one initial partition. After merging, an atom's
// current partition is identified by its union-find root.
type ID int32

// Atom describes an initial partition for AddAtom: a maximal run of
// dependency events within one serial block that does not cross the
// application/runtime boundary (Section 3.1.1, Figure 2). Every atom's
// events belong to a single chare. The Set copies the descriptor into its
// columnar atom table; the caller may reuse the Events slice.
type Atom struct {
	Chare   trace.ChareID
	Runtime bool // partition carries a dependency touching the runtime
	Events  []trace.EventID
	Block   trace.BlockID // serial block the atom was cut from
}

// edge is a directed happened-before/dependency relation between atoms.
type edge struct{ from, to ID }

// Set is the evolving collection of partitions.
type Set struct {
	// Atom table, struct-of-arrays. events holds every atom's events
	// back-to-back; atom id's slice is events[evOff[id]:evOff[id+1]].
	chare  []trace.ChareID
	block  []trace.BlockID
	atomRT []bool // creation-time runtime flag, immutable
	evOff  []int32
	events []trace.EventID

	parent []ID
	size   []int32
	// runtime[root] tracks whether the merged partition contains any
	// runtime dependency; maintained under union.
	runtime []bool
	edges   []edge

	scratch setScratch
}

// setScratch holds transient buffers reused across partsIndex / CycleMerge /
// View calls on one Set. Nothing here is referenced by a returned View.
type setScratch struct {
	partOf   []int32 // atom root -> dense partition index
	atomPart []int32 // atom -> dense partition index
	parts    []ID
	edgeU    []int32 // condensed edge endpoints (dense part indices)
	edgeV    []int32
	off      []int32 // row offsets of the grouping in progress
	// Atoms in (chare, atom ID) order, computed once per atom table (AddAtom
	// outdates it by changing the atom count).
	byChare []ID
	// Open-addressing dedup table for dedupedEdges. Slots are live only when
	// dedupMark[i] == dedupEpoch, so clearing between calls is a single
	// increment; freshly-grown tables are zeroed, which can never collide
	// with an epoch ≥ 1.
	dedupKey   []int64
	dedupMark  []int32
	dedupEpoch int32
}

// NewSet returns an empty partition set.
func NewSet() *Set { return &Set{evOff: []int32{0}} }

// AddAtom registers an initial partition and returns its ID. The events are
// copied into the set's flat event table.
func (s *Set) AddAtom(a Atom) ID {
	id := ID(len(s.parent))
	s.chare = append(s.chare, a.Chare)
	s.block = append(s.block, a.Block)
	s.atomRT = append(s.atomRT, a.Runtime)
	s.events = append(s.events, a.Events...)
	s.evOff = append(s.evOff, int32(len(s.events)))
	s.parent = append(s.parent, id)
	s.size = append(s.size, 1)
	s.runtime = append(s.runtime, a.Runtime)
	return id
}

// NumAtoms returns the number of atoms (initial partitions).
func (s *Set) NumAtoms() int { return len(s.parent) }

// AtomChare returns the chare an atom's events belong to.
func (s *Set) AtomChare(id ID) trace.ChareID { return s.chare[id] }

// AtomBlock returns the serial block the atom was cut from.
func (s *Set) AtomBlock(id ID) trace.BlockID { return s.block[id] }

// AtomRuntime returns the atom's creation-time runtime flag. Unlike
// IsRuntime it never changes under merging.
func (s *Set) AtomRuntime(id ID) bool { return s.atomRT[id] }

// AtomEvents returns the atom's events. The slice aliases the set's flat
// event table and must not be modified.
func (s *Set) AtomEvents(id ID) []trace.EventID {
	return s.events[s.evOff[id]:s.evOff[id+1]]
}

// AddEdge records a dependency edge between the partitions containing the
// two atoms. Self-edges (same current partition) are stored too; views and
// cycle merges drop them.
func (s *Set) AddEdge(from, to ID) {
	s.edges = append(s.edges, edge{from, to})
}

// NumEdges returns the number of recorded atom-level edges.
func (s *Set) NumEdges() int { return len(s.edges) }

// Find returns the current partition (root atom) of an atom, with path
// compression. It writes parent pointers, so — like every method of Set —
// it belongs to the goroutine running the pipeline: the pool's items read
// only the immutable atom table (AtomEvents and friends) and a View.
func (s *Set) Find(a ID) ID {
	for s.parent[a] != a {
		s.parent[a] = s.parent[s.parent[a]]
		a = s.parent[a]
	}
	return a
}

// SamePartition reports whether two atoms are currently merged.
func (s *Set) SamePartition(a, b ID) bool { return s.Find(a) == s.Find(b) }

// Union merges the partitions of a and b and returns the new root. The
// merged partition is a runtime partition if either operand was.
func (s *Set) Union(a, b ID) ID {
	ra, rb := s.Find(a), s.Find(b)
	if ra == rb {
		return ra
	}
	if s.size[ra] < s.size[rb] {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
	s.size[ra] += s.size[rb]
	s.runtime[ra] = s.runtime[ra] || s.runtime[rb]
	return ra
}

// IsRuntime reports whether the partition containing atom a carries any
// runtime dependency.
func (s *Set) IsRuntime(a ID) bool { return s.runtime[s.Find(a)] }

// CycleMerge contracts every strongly connected component of the current
// partition graph into a single partition, restoring the DAG property
// (Section 3.1: "we merge partitions that form strongly connected
// components"). It returns the number of partitions eliminated.
func (s *Set) CycleMerge() int {
	parts, atomPart := s.partsIndex()
	if len(parts) == 0 {
		return 0
	}
	eu, ev := s.dedupedEdges(atomPart)
	g := s.adjFromEdges(len(parts), eu, ev)
	comp, ncomp := g.SCC()
	if ncomp == len(parts) {
		return 0
	}
	rep := make([]ID, ncomp)
	for i := range rep {
		rep[i] = -1
	}
	merged := 0
	for i, root := range parts {
		c := comp[i]
		if rep[c] == -1 {
			rep[c] = root
			continue
		}
		s.Union(rep[c], root)
		merged++
	}
	return merged
}

// partsIndex returns the current roots in deterministic (atom ID) order and
// an atom-indexed dense partition-index table, so callers read an atom's
// partition with one array load instead of a Find. Both are scratch, valid
// until the next partsIndex call or merge.
func (s *Set) partsIndex() ([]ID, []int32) {
	n := len(s.parent)
	sc := &s.scratch
	sc.partOf, sc.atomPart = flat.Grow(sc.partOf, n), flat.Grow(sc.atomPart, n)
	partOf, atomPart := sc.partOf, sc.atomPart
	for i := range partOf {
		partOf[i] = -1
	}
	parts := sc.parts[:0]
	for a := ID(0); int(a) < n; a++ {
		r := s.Find(a)
		if partOf[r] < 0 {
			partOf[r] = int32(len(parts))
			parts = append(parts, r)
		}
		atomPart[a] = partOf[r]
	}
	sc.parts = parts
	return parts, atomPart
}

// dedupedEdges projects the atom-level edge list onto the current
// partitions: self-loops dropped, duplicates removed, and — because the
// condensed graph's adjacency order is part of the deterministic output —
// first-occurrence order preserved, exactly as a map-based first-seen
// filter would. The returned slices are scratch, valid until the next call.
func (s *Set) dedupedEdges(atomPart []int32) (eu, ev []int32) {
	sc := &s.scratch
	eu, ev = sc.edgeU[:0], sc.edgeV[:0]
	// One linear-probing table sized to keep the load factor under 1/2 even
	// if every raw edge survives projection. Inserting on first sight and
	// dropping on key match preserves first-occurrence order in one pass —
	// the condensed graph's adjacency order is part of the deterministic
	// output, so this must behave exactly like a map-based first-seen filter.
	size := 16
	for size < 2*len(s.edges) {
		size <<= 1
	}
	if cap(sc.dedupKey) < size {
		sc.dedupKey = make([]int64, size)
		sc.dedupMark = make([]int32, size)
		sc.dedupEpoch = 0
	}
	keys := sc.dedupKey[:size]
	marks := sc.dedupMark[:size]
	sc.dedupEpoch++
	if sc.dedupEpoch <= 0 { // epoch wrapped: stale marks could alias it
		clear(sc.dedupMark[:cap(sc.dedupMark)])
		sc.dedupEpoch = 1
	}
	epoch := sc.dedupEpoch
	mask := uint64(size - 1)
	for _, e := range s.edges {
		u, v := atomPart[e.from], atomPart[e.to]
		if u == v {
			continue
		}
		k := int64(u)<<32 | int64(uint32(v))
		h := uint64(k)
		h ^= h >> 33
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
		i := h & mask
		for {
			if marks[i] != epoch {
				marks[i], keys[i] = epoch, k
				eu = append(eu, u)
				ev = append(ev, v)
				break
			}
			if keys[i] == k {
				break
			}
			i = (i + 1) & mask
		}
	}
	sc.edgeU, sc.edgeV = eu, ev
	return eu, ev
}

// adjFromEdges builds a graph over n nodes from an edge list, preserving
// per-source edge order. Adjacency rows are full-capacity subslices of one
// flat buffer, so a later append to a row (the ordering stage inserts
// collision-repair edges into the final DAG) reallocates that row instead
// of clobbering its neighbour.
func (s *Set) adjFromEdges(n int, eu, ev []int32) *graph.Graph {
	// The edges' positions grouped by source, then each replaced by the
	// edge's target. Zero-degree rows stay nil, matching the append-built
	// adjacency the codec produces (DeepEqual distinguishes nil from empty).
	rows := flat.GroupAll(n, s.scratch.off, make([]int32, len(eu)), eu)
	s.scratch.off = rows.Off
	for k, i := range rows.IDs {
		rows.IDs[k] = ev[i]
	}
	adj := make([][]int32, n)
	for u := range adj {
		adj[u] = rows.Row(u)
	}
	return &graph.Graph{Adj: adj}
}

// atomsByChare returns the atoms in (chare, atom ID) order: a stable counting
// sort by chare, kept in the scratch until the atom table grows.
func (s *Set) atomsByChare() []ID {
	sc := &s.scratch
	n := len(s.parent)
	if len(sc.byChare) == n {
		return sc.byChare
	}
	lo, hi := s.chare[0], s.chare[0]
	for _, c := range s.chare {
		lo, hi = min(lo, c), max(hi, c)
	}
	col := make([]int32, n) // chare IDs shifted to start at 0: a negative key is a dropped one
	for a, c := range s.chare {
		col[a] = int32(c - lo)
	}
	rows := flat.GroupAll[ID](int(hi-lo)+1, sc.off, nil, col)
	sc.off, sc.byChare = rows.Off, rows.IDs
	return sc.byChare
}

// Part is one current partition in a View.
type Part struct {
	Root    ID
	Atoms   []ID
	Chares  []trace.ChareID // sorted, unique
	Runtime bool
}

// HasChare reports whether the partition contains events of chare c.
func (p *Part) HasChare(c trace.ChareID) bool {
	i := sort.Search(len(p.Chares), func(i int) bool { return p.Chares[i] >= c })
	return i < len(p.Chares) && p.Chares[i] == c
}

// ChareOverlap reports whether two partitions share any chare.
func (p *Part) ChareOverlap(q *Part) bool {
	i, j := 0, 0
	for i < len(p.Chares) && j < len(q.Chares) {
		switch {
		case p.Chares[i] == q.Chares[j]:
			return true
		case p.Chares[i] < q.Chares[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// View is an immutable snapshot of the partition set: the current
// partitions, the condensed partition graph over them, and (lazily) its
// leaps. Mutating the underlying Set invalidates the view.
//
// A View is safe for concurrent readers: its exported fields are never
// mutated after Set.View returns, every method is read-only, and the one
// lazy computation (Leaps) is synchronized. Concurrent readers must not
// mutate Parts, PartOf or G themselves. Views own their storage (the per-
// part sub-slices share a few flat buffers allocated at snapshot time), so
// snapshots taken at different times coexist safely.
type View struct {
	Parts  []Part
	PartOf []int32 // atom -> dense partition index
	G      *graph.Graph

	leapOnce sync.Once
	leap     []int32
	maxLeap  int32
}

// View snapshots the current partitions and the deduplicated partition
// graph (self-loops dropped). Per-part atom and chare lists are carved out
// of single flat buffers: a snapshot costs a constant number of
// allocations, not one per partition.
func (s *Set) View() *View {
	parts, atomPart := s.partsIndex()
	n := len(parts)
	natoms := len(s.parent)
	v := &View{
		Parts:  make([]Part, n),
		PartOf: make([]int32, natoms),
	}
	for i, root := range parts {
		v.Parts[i] = Part{Root: root, Runtime: s.runtime[root]}
	}
	copy(v.PartOf, atomPart)
	// Chare sets: the atoms grouped by part in (chare, atom) order hold every
	// part's chares in ascending order, equal ones adjacent, so replacing each
	// atom by its chare and dropping repeats, row by row in place, leaves the
	// sorted sets (the rows are typed by what they end up holding). Both
	// groupings are by atomPart over all the atoms, so they share their row
	// offsets.
	sc, byChare := &s.scratch, s.atomsByChare()
	chares := flat.Group(n, sc.off, make([]trace.ChareID, natoms), byChare, atomPart)
	atoms := flat.GroupAll(n, chares.Off, make([]ID, natoms), atomPart)
	sc.off = atoms.Off
	for i := range v.Parts {
		v.Parts[i].Atoms = atoms.Row(i)
		row, k := chares.IDs[atoms.Off[i]:atoms.Off[i+1]], 0
		for _, a := range row {
			if c := s.chare[a]; k == 0 || c != row[k-1] {
				row[k] = c
				k++
			}
		}
		v.Parts[i].Chares = row[:k:k]
	}
	eu, ev := s.dedupedEdges(atomPart)
	v.G = s.adjFromEdges(n, eu, ev)
	return v
}

// Acyclic reports whether the snapshot's partition graph is a DAG.
func (v *View) Acyclic() bool {
	_, ok := v.G.TopoSort()
	return ok
}

// Leaps returns the leap of every partition and the maximum leap. The view's
// graph must be acyclic (run CycleMerge on the set before snapshotting).
// Safe for concurrent callers: the lazy computation runs exactly once.
func (v *View) Leaps() ([]int32, int32) {
	v.leapOnce.Do(func() {
		v.leap, v.maxLeap = v.G.Leaps()
	})
	return v.leap, v.maxLeap
}

// PartsAtLeap groups partition indices by leap: result[l] lists the
// partitions whose leap is l, in partition order.
func (v *View) PartsAtLeap() [][]int32 {
	leap, maxLeap := v.Leaps()
	rows := flat.GroupAll[int32](int(maxLeap)+1, nil, nil, leap)
	out := make([][]int32, maxLeap+1)
	for l := range out {
		out[l] = rows.Row(l)
	}
	return out
}

// String summarizes the view for debugging.
func (v *View) String() string {
	return fmt.Sprintf("partition.View{%d parts, %d edges}", len(v.Parts), v.G.NumEdges())
}

// MergePlan collects pairs to merge and applies them at once, mirroring the
// schedule_merge / merge_scheduled structure of the paper's pseudocode.
type MergePlan struct {
	s     *Set
	pairs []edge
}

// NewMergePlan returns a plan targeting the given set.
func (s *Set) NewMergePlan() *MergePlan { return &MergePlan{s: s} }

// Schedule records that the partitions of a and b must merge.
func (m *MergePlan) Schedule(a, b ID) { m.pairs = append(m.pairs, edge{a, b}) }

// Len returns the number of scheduled merges.
func (m *MergePlan) Len() int { return len(m.pairs) }

// Apply performs all scheduled unions and returns the number of partitions
// eliminated.
func (m *MergePlan) Apply() int {
	merged := 0
	for _, p := range m.pairs {
		if m.s.Find(p.from) != m.s.Find(p.to) {
			m.s.Union(p.from, p.to)
			merged++
		}
	}
	m.pairs = m.pairs[:0]
	return merged
}
