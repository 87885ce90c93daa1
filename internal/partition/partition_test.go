package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"charmtrace/internal/trace"
)

func atom(c trace.ChareID) Atom { return Atom{Chare: c} }

func TestUnionFindBasics(t *testing.T) {
	s := NewSet()
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
	s := NewSet()
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
	s := NewSet()
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
	if !v.Acyclic() {
		t.Fatal("graph cyclic after CycleMerge")
	}
}

func TestCycleMergeNoOpOnDAG(t *testing.T) {
	s := NewSet()
	a := s.AddAtom(atom(0))
	b := s.AddAtom(atom(1))
	s.AddEdge(a, b)
	if merged := s.CycleMerge(); merged != 0 {
		t.Fatalf("merged = %d on a DAG, want 0", merged)
	}
}

func TestViewCharesAndOverlap(t *testing.T) {
	s := NewSet()
	a := s.AddAtom(atom(5))
	b := s.AddAtom(atom(3))
	c := s.AddAtom(atom(7))
	s.Union(a, b)
	v := s.View()
	pa := &v.Parts[v.PartOf[a]]
	if len(pa.Chares) != 2 || pa.Chares[0] != 3 || pa.Chares[1] != 5 {
		t.Fatalf("chares = %v, want [3 5] sorted", pa.Chares)
	}
	if !pa.HasChare(5) || pa.HasChare(4) {
		t.Fatal("HasChare wrong")
	}
	pc := &v.Parts[v.PartOf[c]]
	if pa.ChareOverlap(pc) {
		t.Fatal("disjoint partitions reported overlapping")
	}
	d := s.AddAtom(atom(5))
	v = s.View()
	pd := &v.Parts[v.PartOf[d]]
	pa = &v.Parts[v.PartOf[a]]
	if !pa.ChareOverlap(pd) {
		t.Fatal("partitions sharing chare 5 reported disjoint")
	}
}

func TestViewEdgesDedupedAndSelfLoopsDropped(t *testing.T) {
	s := NewSet()
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
	s := NewSet()
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
	s := NewSet()
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
		s := NewSet()
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
		return s.View().Acyclic()
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
		s := NewSet()
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
// Leaps computation is the only mutable state; every reader must observe
// the same result. Run under -race in the tier-1 verify recipe.
func TestViewConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewSet()
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

	wantLeap, wantMax := func() ([]int32, int32) {
		// Compute the expected answer on a second snapshot of the same set,
		// untouched by the concurrent readers.
		return s.View().Leaps()
	}()

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
			if !v.Acyclic() {
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
		s := NewSet()
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
