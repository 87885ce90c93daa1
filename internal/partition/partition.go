// Package partition implements the merge machinery of the phase-finding
// stage (Section 3.1 of the paper): a union-find over initial partitions
// ("atoms"), an atom-level dependency-edge store, cycle merges that contract
// strongly connected components so the partition graph stays a DAG, and
// snapshot views that expose the current partitions with their chare sets
// and the condensed partition DAG.
//
// The phase-finding pipeline in internal/core repeatedly alternates between
// scheduling merges (unions) based on heuristics and looking at the resulting
// partition graph through a View. The Set keeps the View of its current
// state: one snapshot per partition state, however many stages (and cycle
// merges, which read only its graph) look at it; a mutation drops it. Its
// parts' atom and chare rows are filled by the first View call, so a state
// that only a cycle merge looked at never pays for them.
//
// The atom table is stored struct-of-arrays: per-field slices indexed by ID,
// with every atom's events packed into one shared flat buffer, all allocated
// once at the sizes NewSet is given. The repeated scans of the pipeline
// (dependency sweep, per-partition info, view construction) therefore walk
// contiguous memory instead of chasing per-atom slice headers. Transient
// per-snapshot state (root indexing, edge deduplication) lives in a scratch
// area owned by the Set and reused across snapshots; a Set is
// single-extraction state, so the scratch dies with it.
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
}

// edge is a directed happened-before/dependency relation between atoms.
type edge struct{ from, to ID }

// Set is the evolving collection of partitions.
type Set struct {
	// Atom table, struct-of-arrays. events holds every atom's events
	// back-to-back; atom id's slice is events[evOff[id]:evOff[id+1]].
	chare  []trace.ChareID
	atomRT []bool // creation-time runtime flag, immutable
	evOff  []int32
	events []trace.EventID

	parent []ID
	size   []int32
	// runtime[root] tracks whether the merged partition contains any
	// runtime dependency; maintained under union.
	runtime []bool
	edges   []edge

	// view is the snapshot of the current state, built by the first look
	// (View or CycleMerge) after AddAtom, AddEdge or a joining Union dropped
	// the last one; rows reports that its parts' atom and chare rows are
	// filled, which only View needs; snapshots counts the builds.
	view      *View
	rows      bool
	snapshots int

	scratch setScratch
}

// setScratch holds transient buffers reused across snapshots of one Set.
// Nothing here is referenced by a returned View.
type setScratch struct {
	partOf []int32 // atom root -> dense partition index
	edgeU  []int32 // condensed edge endpoints (dense part indices)
	edgeV  []int32
	off    []int32 // row offsets of the grouping in progress
	// Atoms in (chare, atom ID) order, computed once per atom table (AddAtom
	// outdates it by changing the atom count).
	byChare []ID
	// Open-addressing dedup table for partGraph. Slots are live only when
	// dedupMark[i] == dedupEpoch, so clearing between calls is a single
	// increment; freshly-grown tables are zeroed, which can never collide
	// with an epoch ≥ 1.
	dedupKey   []int64
	dedupMark  []int32
	dedupEpoch int32
}

// NewSet returns an empty partition set whose atom table, flat event table
// and edge list are allocated for the given numbers of atoms, atom events and
// edges. More may be added; the tables then grow.
func NewSet(atoms, events, edges int) *Set {
	return &Set{
		chare:   make([]trace.ChareID, 0, atoms),
		atomRT:  make([]bool, 0, atoms),
		evOff:   make([]int32, 1, atoms+1),
		events:  make([]trace.EventID, 0, events),
		parent:  make([]ID, 0, atoms),
		size:    make([]int32, 0, atoms),
		runtime: make([]bool, 0, atoms),
		edges:   make([]edge, 0, edges),
	}
}

// AddAtom registers an initial partition and returns its ID. The events are
// copied into the set's flat event table.
func (s *Set) AddAtom(a Atom) ID {
	s.view = nil
	id := ID(len(s.parent))
	s.chare = append(s.chare, a.Chare)
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
	s.view = nil
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
	s.view = nil
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
// components"). It returns the number of partitions eliminated. It reads the
// graph of the set's snapshot, so on an unchanged set it costs one SCC pass,
// and a following View call builds no graph unless it merged.
func (s *Set) CycleMerge() int {
	v := s.graphView()
	comp, ncomp := v.G.SCC()
	if ncomp == len(v.roots) {
		return 0
	}
	rep := make([]ID, ncomp)
	for i := range rep {
		rep[i] = -1
	}
	merged := 0
	for i, root := range v.roots {
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

// partGraph projects the atom-level edge list onto the n current partitions
// (atomPart: atom -> dense partition index): self-loops dropped, duplicates
// removed, and — because the condensed graph's adjacency order is part of the
// deterministic output — first-occurrence order preserved, exactly as a
// map-based first-seen filter would. Adjacency rows are full-capacity
// subslices of one flat buffer, so a later append to a row (the ordering
// stage inserts collision-repair edges into the final DAG) reallocates that
// row instead of clobbering its neighbour.
func (s *Set) partGraph(n int, atomPart []int32) *graph.Graph {
	sc := &s.scratch
	eu, ev := sc.edgeU[:0], sc.edgeV[:0]
	// One linear-probing table sized to keep the load factor under 1/2 even
	// if every raw edge survives projection. Inserting on first sight and
	// dropping on key match preserves first-occurrence order in one pass.
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
	// The edges' positions grouped by source, then each replaced by the
	// edge's target. Zero-degree rows stay nil, matching the append-built
	// adjacency the codec produces (DeepEqual distinguishes nil from empty).
	rows := flat.GroupAll(n, sc.off, make([]int32, len(eu)), eu)
	sc.off = rows.Off
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

// View is an immutable snapshot of the partition set: the current
// partitions, the condensed partition graph over them, and (lazily) its
// leaps. Mutating the underlying Set outdates the view: the next Set.View
// builds a new one, and this one stays as it was.
//
// A View is safe for concurrent readers: its exported fields are never
// mutated after Set.View returns, every method is read-only, and the one
// lazy computation (Leaps) is synchronized. Set.View hands the same View to
// every caller until the set changes, so no reader — concurrent or not — may
// mutate Parts, PartOf or G; a caller that extends the graph copies it
// first. Views own their storage (the per-part sub-slices share a few flat
// buffers allocated at snapshot time), so snapshots taken at different times
// coexist safely.
type View struct {
	Parts  []Part
	PartOf []int32 // atom -> dense partition index
	G      *graph.Graph

	roots []ID // Parts' roots, for CycleMerge before the rows are filled

	leapOnce sync.Once
	leap     []int32
	maxLeap  int32
}

// View returns the snapshot of the current partitions and the deduplicated
// partition graph (self-loops dropped). It is built on the first look after
// a mutation — AddAtom, AddEdge, or a Union that joins two partitions — and
// returned as is until the next one, so every look at one partition state
// shares one snapshot. Per-part atom and chare lists are carved out of
// single flat buffers: a snapshot costs a constant number of allocations,
// not one per partition.
func (s *Set) View() *View {
	v := s.graphView()
	if !s.rows {
		s.fillRows(v)
		s.rows = true
	}
	return v
}

// Graph returns the snapshot of the current state View returns, but with its
// Parts not yet filled in: the partition graph and every atom's partition,
// for a caller that needs nothing of the parts' atom and chare rows. A later
// View call fills them into the same snapshot.
func (s *Set) Graph() *View { return s.graphView() }

// Snapshots returns how many snapshots the set has built.
func (s *Set) Snapshots() int { return s.snapshots }

// graphView returns the snapshot of the current state, building it without
// its parts' atom and chare rows: CycleMerge reads only the roots and the
// graph, and a state it merges is never looked at again. View fills the
// rows before anything outside the set sees the snapshot.
func (s *Set) graphView() *View {
	if s.view == nil {
		s.view, s.rows = s.snapshot(), false
		s.snapshots++
	}
	return s.view
}

// snapshot builds the View of the current state but for its Parts.
func (s *Set) snapshot() *View {
	natoms := len(s.parent)
	sc := &s.scratch
	// Roots in atom ID order, and every atom's dense partition index.
	sc.partOf = flat.Grow(sc.partOf, natoms)
	partOf := sc.partOf
	for i := range partOf {
		partOf[i] = -1
	}
	atomPart := make([]int32, natoms)
	var roots []ID
	for a := ID(0); int(a) < natoms; a++ {
		r := s.Find(a)
		if partOf[r] < 0 {
			partOf[r] = int32(len(roots))
			roots = append(roots, r)
		}
		atomPart[a] = partOf[r]
	}
	return &View{PartOf: atomPart, G: s.partGraph(len(roots), atomPart), roots: roots}
}

// fillRows fills in the Parts of a snapshot of the current state.
// Chare sets: the atoms grouped by part in (chare, atom) order hold every
// part's chares in ascending order, equal ones adjacent, so replacing each
// atom by its chare and dropping repeats, row by row in place, leaves the
// sorted sets (the rows are typed by what they end up holding). Both
// groupings are by PartOf over all the atoms, so they share their row
// offsets.
func (s *Set) fillRows(v *View) {
	n, natoms, sc := len(v.roots), len(s.parent), &s.scratch
	v.Parts = make([]Part, n)
	byChare := s.atomsByChare()
	chares := flat.Group(n, sc.off, make([]trace.ChareID, natoms), byChare, v.PartOf)
	atoms := flat.GroupAll(n, chares.Off, make([]ID, natoms), v.PartOf)
	sc.off = atoms.Off
	for i, root := range v.roots {
		v.Parts[i] = Part{Root: root, Runtime: s.runtime[root], Atoms: atoms.Row(i)}
		row, k := chares.IDs[atoms.Off[i]:atoms.Off[i+1]], 0
		for _, a := range row {
			if c := s.chare[a]; k == 0 || c != row[k-1] {
				row[k] = c
				k++
			}
		}
		v.Parts[i].Chares = row[:k:k]
	}
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
