// Package lod is the server-side level-of-detail aggregation engine: the
// layer that lets an interactive client render a recovered structure at any
// scale without ever receiving per-event payloads. The paper's logical view
// (phases → steps → chares → communication) is exactly what a trace UI
// draws, but at a thousand chares and tens of thousands of events the
// client drowns; Traveler and the scalable-Gantt study (PAPERS.md) both
// conclude the server must aggregate to the client's resolution.
//
// The engine precomputes a mip-pyramid of power-of-two step-bucket levels
// over a structure: level 0 buckets one global step each, level L buckets
// 2^L steps, aligned to the absolute step grid so any window snaps onto
// bucket boundaries and coarsening is exactly monotone (a parent cell is
// the merge of its two children — pinned by the property suite). Chare rows
// are collapsed through internal/charegroup's behavioural clustering, and
// communication is aggregated to (bucket, cluster) → (bucket, cluster)
// edge weights instead of per-message lines. A query picks the coarsest
// level that fits the requested resolution and renders O(buckets × rows)
// output, never O(events).
//
// Everything is deterministic: the pyramid is a pure function of the
// structure (which is itself byte-identical at any extraction parallelism),
// cells are stored in fixed array order and edges in sorted key order, so
// the same trace + options + resolution yields a byte-identical response
// from any replica.
package lod

import (
	"math/bits"
	"slices"

	"charmtrace/internal/charegroup"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/trace"
)

// NumMetrics is the §4 metric column count carried per cell.
const NumMetrics = 4

// MetricNames are the canonical §4 metric column names, in cell array
// order — the legend every response carries so clients can label the
// metric_sum/metric_max arrays without hardcoding the order.
var MetricNames = [NumMetrics]string{
	"sub_dur",
	"idle_experienced",
	"differential_duration",
	"imbalance",
}

// Cell is one (cluster, bucket) aggregate: event counts by kind, the
// virtual-time span of the bucket's events, and the §4 metric rollups.
// A Cell with Events == 0 is empty and its Time fields are meaningless.
type Cell struct {
	Events  int64
	Sends   int64
	Recvs   int64
	TimeMin trace.Time
	TimeMax trace.Time
	Sum     [NumMetrics]int64
	Max     [NumMetrics]int64
}

// merge folds other into c (the coarsening operation).
func (c *Cell) merge(o *Cell) {
	if o.Events == 0 {
		return
	}
	if c.Events == 0 {
		*c = *o
		return
	}
	c.Events += o.Events
	c.Sends += o.Sends
	c.Recvs += o.Recvs
	if o.TimeMin < c.TimeMin {
		c.TimeMin = o.TimeMin
	}
	if o.TimeMax > c.TimeMax {
		c.TimeMax = o.TimeMax
	}
	for m := 0; m < NumMetrics; m++ {
		c.Sum[m] += o.Sum[m]
		if o.Max[m] > c.Max[m] {
			c.Max[m] = o.Max[m]
		}
	}
}

// Edge is one aggregated communication edge at a level: the total number of
// matched send→recv pairs whose send lands in (SrcBucket, SrcCluster) and
// whose receive lands in (DstBucket, DstCluster).
type Edge struct {
	SrcBucket  int32
	SrcCluster int32
	DstBucket  int32
	DstCluster int32
	Weight     int64
}

// Level is one pyramid level: buckets of Width = 2^level global steps,
// aligned to step 0. Only non-empty cells are stored, as CSR rows: cluster
// ci owns cells[rowStart[ci]:rowStart[ci+1]] in ascending bucket order, and
// bucket[i] is the bucket of cells[i].
type Level struct {
	Width    int32
	Buckets  int32
	rowStart []int32
	bucket   []int32
	cells    []Cell
	edges    edgeList
}

// seek returns the position of the cluster's first stored cell whose bucket
// is >= b, and the end of the cluster's row.
func (l *Level) seek(cluster, b int32) (int32, int32) {
	start, end := l.rowStart[cluster], l.rowStart[cluster+1]
	i, _ := slices.BinarySearch(l.bucket[start:end], b)
	return start + int32(i), end
}

// coarsen returns the next level up without its edges: one walk per row
// that merges the adjacent cells whose bucket/2 agree.
func (l *Level) coarsen() Level {
	nc := len(l.rowStart) - 1
	up := Level{Width: l.Width * 2, Buckets: (l.Buckets + 1) / 2, rowStart: make([]int32, nc+1)}
	var n int32
	for ci := 0; ci < nc; ci++ {
		up.rowStart[ci] = n
		for i := l.rowStart[ci]; i < l.rowStart[ci+1]; i++ {
			if i == l.rowStart[ci] || l.bucket[i]/2 != l.bucket[i-1]/2 {
				n++
			}
		}
	}
	up.rowStart[nc] = n
	up.bucket, up.cells = make([]int32, n), make([]Cell, n)
	n = 0
	for ci := 0; ci < nc; ci++ {
		for i := l.rowStart[ci]; i < l.rowStart[ci+1]; i++ {
			if b := l.bucket[i] / 2; n > up.rowStart[ci] && up.bucket[n-1] == b {
				up.cells[n-1].merge(&l.cells[i])
			} else {
				up.bucket[n], up.cells[n] = b, l.cells[i]
				n++
			}
		}
	}
	return up
}

// Pyramid is the precomputed level-of-detail structure for one recovered
// structure. Immutable once built and safe for concurrent readers;
// resultcache caches it beside the query index so repeat LOD queries never
// rescan the trace.
type Pyramid struct {
	S *core.Structure
	// Clusters is the behavioural clustering (charegroup.Exact): the
	// maximal row collapse that loses nothing, since members have
	// identical logical timelines.
	Clusters []charegroup.Cluster
	// ClusterOf maps each chare to its cluster index.
	ClusterOf []int32
	// Levels[l] has bucket width 2^l; the top level has one bucket.
	Levels []Level

	bytes int64
}

// Build constructs the pyramid. rep supplies the §4 per-event metrics; nil
// computes them (one metrics.Compute pass — callers that already hold a
// query index can pass its report to share the work). Cost beyond the
// metrics pass is two scans of the events — count the occupied (cluster,
// step) slots, then fill exactly that many cells — one sort of the matched
// messages' keys, and a geometric sweep of linear merges up the levels.
func Build(s *core.Structure, rep *metrics.Report) *Pyramid {
	if rep == nil {
		rep = metrics.Compute(s)
	}
	tab := s.Table()
	p := &Pyramid{
		S:         s,
		Clusters:  charegroup.Exact(s),
		ClusterOf: make([]int32, tab.NumChares()),
	}
	for i := range p.Clusters {
		for _, m := range p.Clusters[i].Members {
			p.ClusterOf[m] = int32(i)
		}
	}
	p.bytes = int64(len(p.ClusterOf)) * 4
	for i := range p.Clusters {
		p.bytes += int64(len(p.Clusters[i].Members))*4 + 16
	}
	numSteps := int(s.MaxStep()) + 1
	if numSteps <= 0 {
		return p
	}
	nc := len(p.Clusters)

	// Base level, one bucket per global step. slot is the only table with
	// an entry per (cluster, step): it marks the occupied slots, then maps
	// each to its cell's position in the CSR arrays.
	slot := make([]int32, nc*numSteps)
	var stored, recvs int
	for e, kind := range tab.Kind {
		if i := int(p.ClusterOf[tab.Chare[e]])*numSteps + int(s.Step[e]); slot[i] == 0 {
			slot[i] = 1
			stored++
		}
		if kind == trace.Recv {
			recvs++
		}
	}
	base := Level{
		Width: 1, Buckets: int32(numSteps),
		rowStart: make([]int32, nc+1), bucket: make([]int32, stored), cells: make([]Cell, stored),
	}
	var n int32
	for ci := 0; ci < nc; ci++ {
		base.rowStart[ci] = n
		for b, occupied := range slot[ci*numSteps : (ci+1)*numSteps] {
			if occupied != 0 {
				slot[ci*numSteps+b], base.bucket[n] = n, int32(b)
				n++
			}
		}
	}
	base.rowStart[nc] = n

	// msgs collects one key per matched message, then is sorted and
	// run-length-combined into the base edges; after that it and tmp are the
	// two scratch lists every coarser level's edges are merged through.
	bBits, cBits := uint(bits.Len(uint(numSteps-1))), uint(bits.Len(uint(nc-1)))
	msgs, tmp := newEdgeList(recvs, bBits, cBits), newEdgeList(recvs, bBits, cBits)
	matched := 0
	for eid, kind := range tab.Kind {
		cluster, step := p.ClusterOf[tab.Chare[eid]], s.Step[eid]
		one := Cell{Events: 1, TimeMin: tab.Time[eid], TimeMax: tab.Time[eid]}
		if kind == trace.Send {
			one.Sends = 1
		} else {
			one.Recvs = 1
		}
		for m, v := range [NumMetrics]trace.Time{
			rep.SubDur[eid], rep.IdleExperienced[eid], rep.DifferentialDuration[eid], rep.Imbalance[eid],
		} {
			one.Sum[m], one.Max[m] = int64(v), max(int64(v), 0)
		}
		base.cells[slot[int(cluster)*numSteps+int(step)]].merge(&one)
		if send := tab.Partner[eid]; send != trace.NoEvent {
			msgs.set(matched, msgs.pack(s.Step[send], p.ClusterOf[tab.Chare[send]], step, cluster), 1)
			matched++
		}
	}
	msgs.resize(matched)
	msgs.sortAndCombine(&tmp)
	base.edges = msgs.clone(bBits)
	p.Levels = append(make([]Level, 0, bBits+1), base)

	// Coarsen: each level halves the bucket count (ceiling) until one
	// bucket spans everything. Parent bucket b merges children 2b, 2b+1:
	// the bucket fields of an edge key lose their low bit, destination
	// first, each by one merging pass.
	for bBits > 0 {
		prev := &p.Levels[len(p.Levels)-1]
		up := prev.coarsen()
		prev.edges.halveInto(&msgs, cBits)
		bBits--
		msgs.halveInto(&tmp, 2*cBits+bBits)
		up.edges = tmp.clone(bBits)
		p.Levels = append(p.Levels, up)
	}

	const cellSize = 8 * (5 + 2*NumMetrics) // counts + span + metric arrays
	for i := range p.Levels {
		l := &p.Levels[i]
		p.bytes += int64(len(l.rowStart)+len(l.bucket))*4 + int64(len(l.cells))*cellSize +
			int64(len(l.edges.hi)+len(l.edges.lo)+len(l.edges.weight))*8
	}
	return p
}

// Bytes is the pyramid's resident size beyond the structure itself — an
// exact count of the level arrays — for cache memory accounting.
func (p *Pyramid) Bytes() int64 { return p.bytes }
