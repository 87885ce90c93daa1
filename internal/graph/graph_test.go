package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSCCSimpleCycle(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0) // cycle 0-1-2
	g.AddEdge(2, 3)
	comp, n := g.SCC()
	if n != 2 {
		t.Fatalf("ncomp = %d, want 2", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("cycle nodes in different components: %v", comp)
	}
	if comp[3] == comp[0] {
		t.Fatalf("node 3 merged into cycle: %v", comp)
	}
	// Reverse topological numbering: 0-1-2 reaches 3, so comp(0) > comp(3).
	if comp[0] <= comp[3] {
		t.Fatalf("component numbering not reverse-topological: %v", comp)
	}
}

func TestSCCSelfLoopAndSingletons(t *testing.T) {
	g := New(3)
	g.AddEdge(1, 1)
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("ncomp = %d, want 3 (self-loop is its own SCC)", n)
	}
	if comp[0] == comp[1] || comp[1] == comp[2] || comp[0] == comp[2] {
		t.Fatalf("independent nodes merged: %v", comp)
	}
}

func TestSCCDeepChainNoStackOverflow(t *testing.T) {
	const n = 200000
	g := New(n)
	for i := int32(0); i < n-1; i++ {
		g.AddEdge(i, i+1)
	}
	_, ncomp := g.SCC()
	if ncomp != n {
		t.Fatalf("ncomp = %d, want %d", ncomp, n)
	}
}

func TestTopoSortDAG(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(2, 4)
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("DAG reported cyclic")
	}
	pos := make([]int, 5)
	for i, v := range order {
		pos[v] = i
	}
	for u := int32(0); u < 5; u++ {
		for _, v := range g.Adj[u] {
			if pos[u] >= pos[v] {
				t.Fatalf("edge %d->%d violates topo order %v", u, v, order)
			}
		}
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	if _, ok := g.TopoSort(); ok {
		t.Fatal("cycle not detected")
	}
}

func TestLeaps(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2 -> 3, 4 isolated
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	leap, maxLeap := g.Leaps()
	want := []int32{0, 1, 1, 2, 0}
	for i, w := range want {
		if leap[i] != w {
			t.Fatalf("leap[%d] = %d, want %d (all: %v)", i, leap[i], w, leap)
		}
	}
	if maxLeap != 2 {
		t.Fatalf("maxLeap = %d, want 2", maxLeap)
	}
}

func TestLeapsLongestPathNotShortest(t *testing.T) {
	// 0 -> 3 directly, and 0 -> 1 -> 2 -> 3: leap(3) must be 3, not 1.
	g := New(4)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	leap, _ := g.Leaps()
	if leap[3] != 3 {
		t.Fatalf("leap[3] = %d, want 3 (maximum distance)", leap[3])
	}
}

func TestLeapsPanicsOnCycle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.Leaps()
}

func TestCondense(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	comp, n := g.SCC()
	cg, size := g.Condense(comp, n)
	if cg.N() != 3 {
		t.Fatalf("condensation nodes = %d, want 3", cg.N())
	}
	if size[comp[0]] != 2 {
		t.Fatalf("component of 0 size = %d, want 2", size[comp[0]])
	}
	// Edges 1->2 and 0->2 must be deduplicated into one.
	if got := len(cg.Adj[comp[0]]); got != 1 {
		t.Fatalf("condensed out-degree of {0,1} = %d, want 1 (dedup)", got)
	}
	if _, ok := cg.TopoSort(); !ok {
		t.Fatal("condensation not acyclic")
	}
}

// randomGraph builds a random digraph with n nodes and m edges.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		g.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return g
}

// TestSCCCondensationAlwaysAcyclic is the core property: condensing any
// digraph by its SCCs yields a DAG, and nodes in one component are mutually
// reachable.
func TestSCCCondensationAlwaysAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(4*n))
		comp, ncomp := g.SCC()
		cg, _ := g.Condense(comp, ncomp)
		_, ok := cg.TopoSort()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSCCReverseTopoNumbering verifies the documented numbering property on
// random graphs: for every edge u->v across components, comp(u) > comp(v).
func TestSCCReverseTopoNumbering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(4*n))
		comp, _ := g.SCC()
		for u := range g.Adj {
			for _, v := range g.Adj[u] {
				if comp[u] != comp[v] && comp[u] <= comp[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSCCMutualReachability verifies with a brute-force reachability check
// that SCC grouping matches mutual reachability on small random graphs.
func TestSCCMutualReachability(t *testing.T) {
	reach := func(g *Graph) [][]bool {
		n := g.N()
		r := make([][]bool, n)
		for i := range r {
			r[i] = make([]bool, n)
			// BFS from i.
			queue := []int32{int32(i)}
			r[i][i] = true
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, v := range g.Adj[u] {
					if !r[i][v] {
						r[i][v] = true
						queue = append(queue, v)
					}
				}
			}
		}
		return r
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := randomGraph(rng, n, rng.Intn(3*n))
		comp, _ := g.SCC()
		r := reach(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				mutual := r[i][j] && r[j][i]
				if mutual != (comp[i] == comp[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
