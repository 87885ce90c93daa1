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

// Stored cell columns, in order: the two event counts (Events is their
// sum, so it is not stored), the time span's two ends as offsets from the
// pyramid's earliest event time, then each metric's sum and each metric's
// max.
const (
	colSends = iota
	colRecvs
	colTimeMin
	colTimeMax
	colSum
	colMax  = colSum + NumMetrics
	numCols = colMax + NumMetrics
)

// scratchLevel is Build's one wide scratch level: a full-width column per
// stored quantity, sized for the base level and reused up the pyramid. The
// columns fold the way merge does — counts and sums add, the span's start
// takes the minimum, its end and the metric maxima the maximum — on
// uint64s: offsets and maxima are non-negative and a sum's wrapping uint64
// add is int64's, so unsigned order and addition are the right ones.
type scratchLevel [numCols][]uint64

// newScratchLevel returns n empty cells: every column at its fold identity.
func newScratchLevel(n int) (w scratchLevel) {
	all := make([]uint64, numCols*n)
	for k := range w {
		w[k], all = all[:n:n], all[n:]
	}
	for i := range w[colTimeMin] {
		w[colTimeMin][i] = ^uint64(0)
	}
	return w
}

// column is one quantity of a level's stored cells, a 64-bit value per cell
// split in two: lo holds each value's low 32 bits and hi its high 32 — or
// hi is nil when every value in the level lies in [0, 2^32), the rule the
// edge keys' hi column follows too. Counts never need hi.
type column struct{ lo, hi []uint32 }

func (c *column) at(i int32) uint64 {
	if c.hi == nil {
		return uint64(c.lo[i])
	}
	return uint64(c.hi[i])<<32 | uint64(c.lo[i])
}

// Level is one pyramid level: buckets of Width = 2^level global steps,
// aligned to step 0. Only non-empty cells are stored, as CSR rows: cluster
// ci owns stored cells rowStart[ci]:rowStart[ci+1] in ascending bucket
// order, and bucket[i] is the bucket of cell i. The cells themselves are
// the cols columns, read back through at; all the level's low halves share
// one allocation and any high halves a second.
type Level struct {
	Width    int32
	Buckets  int32
	rowStart []int32
	bucket   []int32
	origin   trace.Time // the pyramid's earliest event time
	cols     [numCols]column
	edges    edgeList
}

// at returns stored cell i.
func (l *Level) at(i int32) (c Cell) {
	col := &l.cols
	c.Sends, c.Recvs = int64(col[colSends].at(i)), int64(col[colRecvs].at(i))
	c.Events = c.Sends + c.Recvs
	c.TimeMin = l.origin + trace.Time(col[colTimeMin].at(i))
	c.TimeMax = l.origin + trace.Time(col[colTimeMax].at(i))
	for m := 0; m < NumMetrics; m++ {
		c.Sum[m], c.Max[m] = int64(col[colSum+m].at(i)), int64(col[colMax+m].at(i))
	}
	return c
}

// pack stores the level's cells as its columns. Column by column, fill
// writes the column's value for every stored cell into the scratch level
// and their low halves into lo, while they are still in cache, and returns
// the values' high halves or-ed together; those are kept only for the
// columns that need them.
func (l *Level) pack(w *scratchLevel, fill func(k int, vals []uint64, lo []uint32) (high uint64)) {
	n := len(l.bucket)
	lo := make([]uint32, numCols*n)
	var high [numCols]uint64
	wide := 0
	for k := range l.cols {
		c := &l.cols[k]
		c.lo, lo = lo[:n:n], lo[n:]
		if high[k] = fill(k, w[k][:n], c.lo); high[k] != 0 {
			wide++
		}
	}
	if wide == 0 {
		return
	}
	hi := make([]uint32, wide*n)
	for k := range l.cols {
		if c := &l.cols[k]; high[k] != 0 {
			c.hi, hi = hi[:n:n], hi[n:]
			for i, v := range w[k][:n] {
				c.hi[i] = uint32(v >> 32)
			}
		}
	}
}

// split is pack's fill for a level already folded into the scratch level.
func split(_ int, vals []uint64, lo []uint32) (high uint64) {
	for i, v := range vals {
		lo[i] = uint32(v)
		high |= v >> 32
	}
	return high
}

// bytes is the level's resident size: every slice's length × element size.
func (l *Level) bytes() int64 {
	n := int64(len(l.rowStart)+len(l.bucket)+len(l.edges.weight))*4 + int64(len(l.edges.hi)+len(l.edges.lo))*8
	for k := range l.cols {
		n += int64(len(l.cols[k].lo)+len(l.cols[k].hi)) * 4
	}
	return n
}

// seek returns the position of the cluster's first stored cell whose bucket
// is >= b, and the end of the cluster's row.
func (l *Level) seek(cluster, b int32) (int32, int32) {
	start, end := l.rowStart[cluster], l.rowStart[cluster+1]
	i, _ := slices.BinarySearch(l.bucket[start:end], b)
	return start + int32(i), end
}

// coarsen returns the next level up without its edges. A parent's one or
// two children are adjacent in l's CSR order, so one walk per row finds each
// parent's first child, first[p] (first[n] closes the last run, and first
// is scratch longer than l has cells), and then each column of the parents
// is one pass that folds a run's first and last child — the same cell when
// the parent has one, which a sum must then count once.
func (l *Level) coarsen(w *scratchLevel, first []int32) Level {
	nc := len(l.rowStart) - 1
	up := Level{Width: l.Width * 2, Buckets: (l.Buckets + 1) / 2, rowStart: make([]int32, nc+1), origin: l.origin}
	var n int32
	for ci := 0; ci < nc; ci++ {
		up.rowStart[ci] = n
		for i := l.rowStart[ci]; i < l.rowStart[ci+1]; i++ {
			if i == l.rowStart[ci] || l.bucket[i]/2 != l.bucket[i-1]/2 {
				first[n] = i
				n++
			}
		}
	}
	up.rowStart[nc], first[n] = n, int32(len(l.bucket))
	up.bucket = make([]int32, n)
	for p := range up.bucket {
		up.bucket[p] = l.bucket[first[p]] / 2
	}
	up.pack(w, func(k int, vals []uint64, lo []uint32) (high uint64) {
		src := l.cols[k]
		for p := range vals {
			a, b := first[p], first[p+1]-1
			var v uint64
			switch {
			case k == colTimeMin:
				v = min(src.at(a), src.at(b))
			case k == colTimeMax || k >= colMax:
				v = max(src.at(a), src.at(b))
			default: // a sum: the second child's value only if it is not the first
				v = src.at(a) + src.at(b)&-uint64(b-a)
			}
			vals[p], lo[p] = v, uint32(v)
			high |= v >> 32
		}
		return high
	})
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
// Each level's cells are merged in one full-width scratch level, sized for
// the base level and reused up the pyramid, and packed into the level's
// columns as it is finished: 52 bytes a cell where no value needs 64 bits.
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
	origin := tab.Time[0]
	for e, kind := range tab.Kind {
		origin = min(origin, tab.Time[e])
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
		rowStart: make([]int32, nc+1), bucket: make([]int32, stored), origin: origin,
	}
	scratch, first := newScratchLevel(stored), make([]int32, stored+1)
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
		j, t := slot[int(cluster)*numSteps+int(step)], uint64(tab.Time[eid]-origin)
		if kind == trace.Send {
			scratch[colSends][j]++
		} else {
			scratch[colRecvs][j]++
		}
		scratch[colTimeMin][j] = min(scratch[colTimeMin][j], t)
		scratch[colTimeMax][j] = max(scratch[colTimeMax][j], t)
		for m, v := range [NumMetrics]trace.Time{
			rep.SubDur[eid], rep.IdleExperienced[eid], rep.DifferentialDuration[eid], rep.Imbalance[eid],
		} {
			scratch[colSum+m][j] += uint64(v)
			scratch[colMax+m][j] = max(scratch[colMax+m][j], uint64(max(v, 0)))
		}
		if send := tab.Partner[eid]; send != trace.NoEvent {
			msgs.set(matched, msgs.pack(s.Step[send], p.ClusterOf[tab.Chare[send]], step, cluster), 1)
			matched++
		}
	}
	base.pack(&scratch, split)
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
		up := prev.coarsen(&scratch, first)
		prev.edges.halveInto(&msgs, cBits)
		bBits--
		msgs.halveInto(&tmp, 2*cBits+bBits)
		up.edges = tmp.clone(bBits)
		p.Levels = append(p.Levels, up)
	}

	for i := range p.Levels {
		p.bytes += p.Levels[i].bytes()
	}
	return p
}

// Bytes is the pyramid's resident size beyond the structure itself — an
// exact count of the level arrays — for cache memory accounting.
func (p *Pyramid) Bytes() int64 { return p.bytes }
