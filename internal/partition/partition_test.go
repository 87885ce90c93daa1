package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"charmtrace/internal/trace"
)

func atom(c trace.ChareID) Atom { return Atom{Chare: c} }

// acyclic reports whether a snapshot's partition graph is a DAG.
func acyclic(v *View) bool {
	_, ok := v.G.TopoSort()
	return ok
}

func TestUnionFindBasics(t *testing.T) {
	s := NewSet(0, 0, 0)
	a := s.AddAtom(atom(0))
	b := s.AddAtom(atom(1))
	c := s.AddAtom(atom(2))
	if s.SamePartition(a, b) {
		t.Fatal("fresh atoms should be separate")
	}
	s.Union(a, b)
	if !s.SamePartition(a, b) || s.SamePartition(a, c) {
		t.Fatal("union results wrong")
	}
	s.Union(b, c)
	if !s.SamePartition(a, c) {
		t.Fatal("transitive union failed")
	}
}

func TestRuntimeFlagPropagates(t *testing.T) {
	s := NewSet(0, 0, 0)
	a := s.AddAtom(Atom{Chare: 0, Runtime: false})
	b := s.AddAtom(Atom{Chare: 1, Runtime: true})
	if s.IsRuntime(a) {
		t.Fatal("app atom marked runtime")
	}
	s.Union(a, b)
	if !s.IsRuntime(a) || !s.IsRuntime(b) {
		t.Fatal("merged partition must be runtime if either side was")
	}
}

func TestCycleMergeContractsCycle(t *testing.T) {
	s := NewSet(0, 0, 0)
	var ids []ID
	for i := 0; i < 4; i++ {
		ids = append(ids, s.AddAtom(atom(trace.ChareID(i))))
	}
	// 0 -> 1 -> 2 -> 0 cycle, 3 hangs off 2.
	s.AddEdge(ids[0], ids[1])
	s.AddEdge(ids[1], ids[2])
	s.AddEdge(ids[2], ids[0])
	s.AddEdge(ids[2], ids[3])
	merged := s.CycleMerge()
	if merged != 2 {
		t.Fatalf("merged = %d, want 2", merged)
	}
	if !s.SamePartition(ids[0], ids[2]) {
		t.Fatal("cycle not contracted")
	}
	if s.SamePartition(ids[0], ids[3]) {
		t.Fatal("non-cycle atom absorbed")
	}
	v := s.View()
	if !acyclic(v) {
		t.Fatal("graph cyclic after CycleMerge")
	}
}

func TestCycleMergeNoOpOnDAG(t *testing.T) {
	s := NewSet(0, 0, 0)
	a := s.AddAtom(atom(0))
	b := s.AddAtom(atom(1))
	s.AddEdge(a, b)
	if merged := s.CycleMerge(); merged != 0 {
		t.Fatalf("merged = %d on a DAG, want 0", merged)
	}
}

func TestViewChares(t *testing.T) {
	s := NewSet(0, 0, 0)
	a := s.AddAtom(atom(5))
	b := s.AddAtom(atom(3))
	s.AddAtom(atom(7))
	s.Union(a, b)
	v := s.View()
	pa := &v.Parts[v.PartOf[a]]
	if len(pa.Chares) != 2 || pa.Chares[0] != 3 || pa.Chares[1] != 5 {
		t.Fatalf("chares = %v, want [3 5] sorted", pa.Chares)
	}
	if !pa.HasChare(5) || pa.HasChare(4) {
		t.Fatal("HasChare wrong")
	}
}

func TestViewEdgesDedupedAndSelfLoopsDropped(t *testing.T) {
	s := NewSet(0, 0, 0)
	a := s.AddAtom(atom(0))
	b := s.AddAtom(atom(1))
	c := s.AddAtom(atom(2))
	s.AddEdge(a, c)
	s.AddEdge(b, c)
	s.AddEdge(a, b) // becomes self-loop after union below
	s.Union(a, b)
	v := s.View()
	if got := v.G.NumEdges(); got != 1 {
		t.Fatalf("view edges = %d, want 1 (dedup + self-loop drop)", got)
	}
}

func TestLeapsAndPartsAtLeap(t *testing.T) {
	s := NewSet(0, 0, 0)
	a := s.AddAtom(atom(0))
	b := s.AddAtom(atom(1))
	c := s.AddAtom(atom(2))
	d := s.AddAtom(atom(3))
	s.AddEdge(a, b)
	s.AddEdge(b, c)
	s.AddEdge(a, d)
	v := s.View()
	leap, maxLeap := v.Leaps()
	if maxLeap != 2 {
		t.Fatalf("maxLeap = %d, want 2", maxLeap)
	}
	if leap[v.PartOf[d]] != 1 || leap[v.PartOf[c]] != 2 {
		t.Fatalf("leaps wrong: %v", leap)
	}
	byLeap := v.PartsAtLeap()
	if len(byLeap) != 3 || len(byLeap[0]) != 1 || len(byLeap[1]) != 2 || len(byLeap[2]) != 1 {
		t.Fatalf("PartsAtLeap shape wrong: %v", byLeap)
	}
}

func TestMergePlan(t *testing.T) {
	s := NewSet(0, 0, 0)
	a := s.AddAtom(atom(0))
	b := s.AddAtom(atom(1))
	c := s.AddAtom(atom(2))
	plan := s.NewMergePlan()
	plan.Schedule(a, b)
	plan.Schedule(b, c)
	plan.Schedule(a, c) // already merged by then: no extra count
	if plan.Len() != 3 {
		t.Fatalf("plan len = %d, want 3", plan.Len())
	}
	if got := plan.Apply(); got != 2 {
		t.Fatalf("Apply merged %d, want 2", got)
	}
	if !s.SamePartition(a, c) {
		t.Fatal("plan did not merge")
	}
	if plan.Len() != 0 {
		t.Fatal("plan not reset after Apply")
	}
}

// Property: after CycleMerge the view is always acyclic, regardless of the
// random edge/union history.
func TestCycleMergeAlwaysYieldsDAG(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet(0, 0, 0)
		n := 3 + rng.Intn(30)
		ids := make([]ID, n)
		for i := range ids {
			ids[i] = s.AddAtom(atom(trace.ChareID(rng.Intn(6))))
		}
		for i := 0; i < 3*n; i++ {
			s.AddEdge(ids[rng.Intn(n)], ids[rng.Intn(n)])
		}
		for i := 0; i < n/4; i++ {
			s.Union(ids[rng.Intn(n)], ids[rng.Intn(n)])
		}
		s.CycleMerge()
		return acyclic(s.View())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every atom appears in exactly one partition of a view, and the
// partition's chare list covers exactly its atoms' chares.
func TestViewCoversAllAtoms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet(0, 0, 0)
		n := 1 + rng.Intn(40)
		ids := make([]ID, n)
		for i := range ids {
			ids[i] = s.AddAtom(atom(trace.ChareID(rng.Intn(8))))
		}
		for i := 0; i < n/3; i++ {
			s.Union(ids[rng.Intn(n)], ids[rng.Intn(n)])
		}
		v := s.View()
		count := 0
		for pi := range v.Parts {
			p := &v.Parts[pi]
			count += len(p.Atoms)
			for _, a := range p.Atoms {
				if v.PartOf[a] != int32(pi) {
					return false
				}
				if !p.HasChare(s.AtomChare(a)) {
					return false
				}
			}
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestViewConcurrentReaders: a View is safe for concurrent readers — the
// parallel extraction engine hands one snapshot to many workers. The lazy
// Leaps computation is the only mutable state; nothing calls it on the shared
// View before the readers start, so they race to run it, and every reader
// must observe the same result. Run under -race in the tier-1 verify recipe.
func TestViewConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewSet(0, 0, 0)
	const n = 60
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = s.AddAtom(atom(trace.ChareID(rng.Intn(8))))
	}
	// Forward-only edges keep the partition graph acyclic so Leaps is defined.
	for i := 0; i < 2*n; i++ {
		a, b := rng.Intn(n-1), 0
		b = a + 1 + rng.Intn(n-1-a)
		s.AddEdge(ids[a], ids[b])
	}
	for i := 0; i < n/4; i++ {
		a := rng.Intn(n - 1)
		s.Union(ids[a], ids[a+1])
	}
	s.CycleMerge()
	v := s.View()

	// The expected answer comes from a second snapshot of the same partition
	// state: a self-edge drops the kept View without changing the graph, so
	// the set builds a fresh one and v's lazy Leaps stays untouched.
	s.AddEdge(ids[0], ids[0])
	ref := s.View()
	if ref == v {
		t.Fatal("a mutation returned the kept View")
	}
	wantLeap, wantMax := ref.Leaps()

	const readers = 8
	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			leap, max := v.Leaps()
			if max != wantMax {
				errc <- fmt.Errorf("max leap %d, want %d", max, wantMax)
				return
			}
			for p := range leap {
				if leap[p] != wantLeap[p] {
					errc <- fmt.Errorf("partition %d leap %d, want %d", p, leap[p], wantLeap[p])
					return
				}
			}
			if !acyclic(v) {
				errc <- fmt.Errorf("view not acyclic")
				return
			}
			byLeap := v.PartsAtLeap()
			total := 0
			for _, ps := range byLeap {
				total += len(ps)
			}
			if total != len(v.Parts) {
				errc <- fmt.Errorf("PartsAtLeap covers %d of %d parts", total, len(v.Parts))
				return
			}
			for pi := range v.Parts {
				p := &v.Parts[pi]
				for _, c := range p.Chares {
					if !p.HasChare(c) {
						errc <- fmt.Errorf("partition %d missing own chare %d", pi, c)
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for r := 0; r < readers; r++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestViewChareRowsMatchSortCompact: every part's Chares is the sorted set of
// its atoms' chares — checked against a sort-and-compact of the part's atom
// chares, snapshot after snapshot while random unions merge the parts, and
// again after atoms are added to a set that has already been snapshotted
// (the cached (chare, atom) order must grow with the atom table). Chares
// repeat, skip values and include negatives.
func TestViewChareRowsMatchSortCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(s *Set) {
		t.Helper()
		v := s.View()
		total := 0
		for pi := range v.Parts {
			p := &v.Parts[pi]
			var want []trace.ChareID
			for _, a := range p.Atoms {
				want = append(want, s.AtomChare(a))
			}
			slices.Sort(want)
			want = slices.Compact(want)
			if !slices.Equal(p.Chares, want) {
				t.Fatalf("%d atoms, part %d: Chares = %v, want %v", s.NumAtoms(), pi, p.Chares, want)
			}
			if cap(p.Chares) != len(p.Chares) {
				t.Fatalf("part %d: Chares has spare capacity, an append would clobber the next row", pi)
			}
			total += len(p.Atoms)
		}
		if total != s.NumAtoms() {
			t.Fatalf("parts hold %d atoms of %d", total, s.NumAtoms())
		}
	}
	for trial := 0; trial < 20; trial++ {
		s := NewSet(0, 0, 0)
		check(s) // empty set
		grow := func(n int) {
			for i := 0; i < n; i++ {
				s.AddAtom(atom(trace.ChareID(rng.Intn(40)*3 - 20)))
			}
		}
		grow(1 + rng.Intn(200))
		check(s)
		for round := 0; round < 6; round++ {
			for i := rng.Intn(s.NumAtoms()); i > 0; i-- {
				s.Union(ID(rng.Intn(s.NumAtoms())), ID(rng.Intn(s.NumAtoms())))
			}
			check(s)
			if round%2 == 1 {
				grow(1 + rng.Intn(50))
				check(s)
			}
		}
	}
}

// refSnapshot is View by definition, built here: parts in order of their
// first atom, each part's atoms ascending and its chares sorted and unique,
// and the partition graph with self-loops dropped and repeats removed in
// first-occurrence order.
func refSnapshot(s *Set) ([]Part, []int32, [][]int32) {
	parts, partOf, index := []Part{}, make([]int32, s.NumAtoms()), map[ID]int32{}
	for a := ID(0); int(a) < s.NumAtoms(); a++ {
		r := s.Find(a)
		p, ok := index[r]
		if !ok {
			p, index[r] = int32(len(parts)), int32(len(parts))
			parts = append(parts, Part{Root: r, Runtime: s.IsRuntime(r)})
		}
		partOf[a] = p
		parts[p].Atoms = append(parts[p].Atoms, a)
		parts[p].Chares = append(parts[p].Chares, s.AtomChare(a))
	}
	for i := range parts {
		slices.Sort(parts[i].Chares)
		parts[i].Chares = slices.Compact(parts[i].Chares)
	}
	adj, seen := make([][]int32, len(parts)), map[[2]int32]bool{}
	for _, e := range s.edges {
		if u, v := partOf[e.from], partOf[e.to]; u != v && !seen[[2]int32{u, v}] {
			seen[[2]int32{u, v}] = true
			adj[u] = append(adj[u], v)
		}
	}
	return parts, partOf, adj
}

// TestViewMemoMatchesFreshSnapshot runs random sequences of AddAtom,
// AddEdge, Union, MergePlan.Apply and CycleMerge, and after every step holds
// the kept snapshot to three rules: it equals a snapshot built from scratch,
// a second View call with nothing in between returns the same *View, and a
// step that changed the set (an atom, an edge, or a union that joined two
// partitions) yields a new one, while a step that changed nothing keeps it.
func TestViewMemoMatchesFreshSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet(rng.Intn(4), rng.Intn(4), rng.Intn(4)) // sizes are room, not limits
		for i := 0; i < 3; i++ {
			s.AddAtom(Atom{Chare: trace.ChareID(rng.Intn(9) - 2), Runtime: rng.Intn(4) == 0})
		}
		some := func() ID { return ID(rng.Intn(s.NumAtoms())) }
		prev := s.View()
		for step := 0; step < 200; step++ {
			var op string
			changed := true
			switch k := rng.Intn(10); {
			case k < 2:
				op = "AddAtom"
				s.AddAtom(Atom{Chare: trace.ChareID(rng.Intn(9) - 2), Runtime: rng.Intn(4) == 0})
			case k < 5:
				op = "AddEdge"
				s.AddEdge(some(), some())
			case k < 7:
				op = "Union"
				a, b := some(), some()
				changed = !s.SamePartition(a, b)
				s.Union(a, b)
			case k < 8:
				op = "MergePlan.Apply"
				plan := s.NewMergePlan()
				for n := rng.Intn(4); n > 0; n-- {
					plan.Schedule(some(), some())
				}
				changed = plan.Apply() > 0
			default:
				op = "CycleMerge"
				changed = s.CycleMerge() > 0
			}
			v := s.View()
			if (v != prev) != changed {
				t.Fatalf("seed %d step %d (%s, changed %v): new snapshot %v", seed, step, op, changed, v != prev)
			}
			if s.View() != v {
				t.Fatalf("seed %d step %d (%s): two View calls with nothing between returned different snapshots", seed, step, op)
			}
			parts, partOf, adj := refSnapshot(s)
			if !reflect.DeepEqual(v.Parts, parts) || !reflect.DeepEqual(v.PartOf, partOf) || !reflect.DeepEqual(v.G.Adj, adj) {
				t.Fatalf("seed %d step %d (%s): kept snapshot differs from a fresh one", seed, step, op)
			}
			prev = v
		}
	}
}
