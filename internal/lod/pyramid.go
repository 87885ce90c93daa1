// Package lod is the server-side level-of-detail aggregation engine: the
// layer that lets an interactive client render a recovered structure at any
// scale without ever receiving per-event payloads. The paper's logical view
// (phases → steps → chares → communication) is exactly what a trace UI
// draws, but at a thousand chares and tens of thousands of events the
// client drowns; Traveler and the scalable-Gantt study (PAPERS.md) both
// conclude the server must aggregate to the client's resolution.
//
// The engine serves a mip-pyramid of power-of-two step-bucket levels over a
// structure: level 0 buckets one global step each, level L buckets 2^L
// steps, aligned to the absolute step grid so any window snaps onto bucket
// boundaries. A level is built the first time a query needs it, as one fold
// of the events into its (cluster, step >> L) cells, so coarsening is
// exactly monotone by construction (a parent cell is the merge of its two
// children — pinned by the property suite) and a resident pyramid holds only
// the levels its clients asked for. Chare rows
// are collapsed through internal/charegroup's behavioural clustering, and
// communication is aggregated to (bucket, cluster) → (bucket, cluster)
// edge weights instead of per-message lines. A query picks the coarsest
// level that fits the requested resolution and renders O(buckets × rows)
// output, never O(events).
//
// Everything is deterministic: every level is a pure function of the
// structure (which is itself byte-identical at any extraction parallelism),
// cells are stored in fixed array order and edges in sorted key order, so
// the same trace + options + resolution yields a byte-identical response
// from any replica.
package lod

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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

// merge folds o into c.
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
// structure's earliest event time, then each metric's sum and each metric's
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

// scratchLevel is a level build's wide scratch: a full-width column per
// stored quantity. The columns fold the way merge does — counts and sums
// add, the span's start takes the minimum, its end and the metric maxima
// the maximum — on uint64s: offsets and maxima are non-negative and a sum's
// wrapping uint64 add is int64's, so unsigned order and addition are the
// right ones.
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
	origin   trace.Time // the structure's earliest event time
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

// pack stores the folded scratch cells as the level's columns: every
// value's low half, and the high halves of the columns whose values need
// them.
func (l *Level) pack(w *scratchLevel) {
	n := len(l.bucket)
	lo := make([]uint32, numCols*n)
	var high [numCols]uint64
	wide := 0
	for k := range l.cols {
		c := &l.cols[k]
		c.lo, lo = lo[:n:n], lo[n:]
		for i, v := range w[k] {
			c.lo[i] = uint32(v)
			high[k] |= v >> 32
		}
		if high[k] != 0 {
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
			for i, v := range w[k] {
				c.hi[i] = uint32(v >> 32)
			}
		}
	}
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

// Pyramid is the level-of-detail structure for one recovered structure:
// the clustering and the level geometry, with each level built the first
// time a query needs it. Safe for concurrent readers, which wait on one
// build per level; resultcache caches it beside the query index so repeat
// LOD queries never rescan the trace.
type Pyramid struct {
	S *core.Structure
	// Clusters is the behavioural clustering (charegroup.Exact): the
	// maximal row collapse that loses nothing, since members have
	// identical logical timelines.
	Clusters []charegroup.Cluster
	// ClusterOf maps each chare to its cluster index.
	ClusterOf []int32

	rep    *metrics.Report // the caller's report, or nil: each level build computes its own
	levels []lazyLevel     // levels[l] has bucket width 2^l; the top one has one bucket
	bytes  atomic.Int64
}

// lazyLevel is one level, built at most once.
type lazyLevel struct {
	once  sync.Once
	level Level
}

// Build clusters the chares and lays out the level geometry; no level is
// built until Level asks for it. rep supplies the §4 per-event metrics and
// is kept for the level builds; nil has each level build compute them and
// keep nothing per event. charmd passes the structure's shared report
// (metrics.Shared), which its query index reads too, so one resident entry
// computes the metrics once. Bytes leaves a given report out: it is the
// caller's (charmd's query index counts it, once the index is built).
func Build(s *core.Structure, rep *metrics.Report) *Pyramid {
	p := &Pyramid{
		S:         s,
		Clusters:  charegroup.Exact(s),
		ClusterOf: make([]int32, s.Table().NumChares()),
		rep:       rep,
	}
	for i := range p.Clusters {
		for _, m := range p.Clusters[i].Members {
			p.ClusterOf[m] = int32(i)
		}
	}
	bytes := int64(len(p.ClusterOf)) * 4
	for i := range p.Clusters {
		bytes += int64(len(p.Clusters[i].Members))*4 + 16
	}
	p.bytes.Store(bytes)
	if numSteps := int(s.MaxStep()) + 1; numSteps > 0 {
		p.levels = make([]lazyLevel, bits.Len(uint(numSteps-1))+1)
	}
	return p
}

// NumLevels is the number of levels: level l has bucket width 2^l, and the
// top one a single bucket spanning every step. Zero for a structure with no
// steps.
func (p *Pyramid) NumLevels() int { return len(p.levels) }

// Level returns level l, building it on first use; concurrent first users
// wait for the one build.
func (p *Pyramid) Level(l int) *Level {
	ll := &p.levels[l]
	ll.once.Do(func() {
		ll.level = p.build(l)
		p.bytes.Add(ll.level.bytes())
	})
	return &ll.level
}

// build folds the events into level l's cells. Two scans of the events —
// count the occupied (cluster, step >> l) slots, then fill exactly that
// many cells, collecting one key per matched message — and one radix sort
// of those keys. The cells are folded in a full-width scratch level and
// packed into the level's columns: 52 bytes a cell where no value needs 64
// bits.
func (p *Pyramid) build(l int) Level {
	s, tab, rep := p.S, p.S.Table(), p.rep
	if rep == nil {
		rep = metrics.Compute(s)
	}
	nb, nc := (int(s.MaxStep())>>l)+1, len(p.Clusters)

	// slot is the only table with an entry per (cluster, bucket): it marks
	// the occupied slots, then maps each to its cell's position in the CSR
	// arrays.
	slot := make([]int32, nc*nb)
	var stored, recvs int
	origin := tab.Time[0]
	for e, kind := range tab.Kind {
		origin = min(origin, tab.Time[e])
		if i := int(p.ClusterOf[tab.Chare[e]])*nb + int(s.Step[e]>>l); slot[i] == 0 {
			slot[i] = 1
			stored++
		}
		if kind == trace.Recv {
			recvs++
		}
	}
	lvl := Level{
		Width: 1 << l, Buckets: int32(nb),
		rowStart: make([]int32, nc+1), bucket: make([]int32, stored), origin: origin,
	}
	var n int32
	for ci := 0; ci < nc; ci++ {
		lvl.rowStart[ci] = n
		for b, occupied := range slot[ci*nb : (ci+1)*nb] {
			if occupied != 0 {
				slot[ci*nb+b], lvl.bucket[n] = n, int32(b)
				n++
			}
		}
	}
	lvl.rowStart[nc] = n

	// msgs collects one key per matched message, then is sorted and
	// run-length-combined into the level's edges.
	bBits, cBits := uint(bits.Len(uint(nb-1))), uint(bits.Len(uint(nc-1)))
	msgs := newEdgeList(recvs, bBits, cBits)
	scratch, matched := newScratchLevel(stored), 0
	for eid, kind := range tab.Kind {
		cluster, b := p.ClusterOf[tab.Chare[eid]], s.Step[eid]>>l
		j, t := slot[int(cluster)*nb+int(b)], uint64(tab.Time[eid]-origin)
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
			msgs.set(matched, msgs.pack(s.Step[send]>>l, p.ClusterOf[tab.Chare[send]], b, cluster), 1)
			matched++
		}
	}
	lvl.pack(&scratch)
	msgs.resize(matched)
	tmp := newEdgeList(matched, bBits, cBits)
	msgs.sortAndCombine(&tmp)
	lvl.edges = msgs.clone()
	return lvl
}

// Bytes is the pyramid's resident size beyond the structure itself — an
// exact count of the clustering and of the level arrays built so far — for
// cache memory accounting. It grows as queries build levels.
func (p *Pyramid) Bytes() int64 { return p.bytes.Load() }
