// Package graph provides the directed-graph algorithms the phase-finding
// pipeline is built on: strongly connected components (for cycle merges),
// topological ordering, leap computation (the maximum distance of each node
// from the sources of a DAG, Section 3.1.4 of the paper), and condensation.
//
// Graphs are adjacency lists over dense int32 node IDs. All algorithms are
// iterative so they scale to the event counts of large traces without
// risking goroutine stack growth on deep recursions.
package graph

// Graph is a directed graph over nodes 0..N-1.
type Graph struct {
	Adj [][]int32
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	return &Graph{Adj: make([][]int32, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Adj) }

// AddEdge adds a directed edge u -> v. Duplicate edges are permitted; the
// algorithms tolerate them.
func (g *Graph) AddEdge(u, v int32) {
	g.Adj[u] = append(g.Adj[u], v)
}

// NumEdges returns the total number of (directed, possibly duplicated) edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n
}

// SCC computes strongly connected components using an iterative Tarjan
// algorithm. It returns the component of each node and the component count.
// Components are numbered in reverse topological order: if component A can
// reach component B (A != B), then comp(A) > comp(B).
func (g *Graph) SCC() (comp []int32, ncomp int) {
	n := len(g.Adj)
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32   // Tarjan stack
	var next int32      // next DFS index
	var ncompi int32    // next component number
	type frame struct { // explicit DFS frame
		v  int32
		ei int // next adjacency position to explore
	}
	var dfs []frame

	for root := int32(0); root < int32(n); root++ {
		if index[root] != -1 {
			continue
		}
		dfs = append(dfs[:0], frame{v: root})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := f.v
			advanced := false
			for f.ei < len(g.Adj[v]) {
				w := g.Adj[v][f.ei]
				f.ei++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && low[v] > index[w] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncompi
					if w == v {
						break
					}
				}
				ncompi++
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := dfs[len(dfs)-1].v
				if low[p] > low[v] {
					low[p] = low[v]
				}
			}
		}
	}
	return comp, int(ncompi)
}

// Condense builds the condensation of g under the component assignment comp
// (ncomp components): one node per component, with deduplicated edges between
// distinct components. It also returns the size of each component.
func (g *Graph) Condense(comp []int32, ncomp int) (*Graph, []int32) {
	cg := New(ncomp)
	size := make([]int32, ncomp)
	seen := make(map[int64]struct{})
	for u := range g.Adj {
		cu := comp[u]
		size[cu]++
		for _, v := range g.Adj[u] {
			cv := comp[v]
			if cu == cv {
				continue
			}
			key := int64(cu)<<32 | int64(uint32(cv))
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			cg.AddEdge(cu, cv)
		}
	}
	return cg, size
}

// TopoSort returns a topological order of the nodes (Kahn's algorithm) and
// reports whether the graph is acyclic. If it is not, the returned order
// covers only the nodes outside cycles reachable before them.
func (g *Graph) TopoSort() (order []int32, acyclic bool) {
	n := len(g.Adj)
	indeg := make([]int32, n)
	for _, adj := range g.Adj {
		for _, v := range adj {
			indeg[v]++
		}
	}
	queue := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order = make([]int32, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return order, len(order) == n
}

// Leaps computes, for every node of a DAG, its leap: the maximum distance
// from any source (in-degree-0) node. The paper (§3.1.4) defines a leap as
// the set of partitions at the same maximum distance from the beginning of
// the partition graph. Returns the per-node leap and the maximum leap.
// Panics if the graph has a cycle: leaps are only defined on DAGs.
func (g *Graph) Leaps() (leap []int32, maxLeap int32) {
	order, acyclic := g.TopoSort()
	if !acyclic {
		panic("graph: Leaps called on a cyclic graph")
	}
	leap = make([]int32, len(g.Adj))
	for _, u := range order {
		for _, v := range g.Adj[u] {
			if leap[v] < leap[u]+1 {
				leap[v] = leap[u] + 1
			}
		}
	}
	for _, l := range leap {
		if l > maxLeap {
			maxLeap = l
		}
	}
	return leap, maxLeap
}
