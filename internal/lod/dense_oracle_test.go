package lod

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"charmtrace/internal/charegroup"
	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/query"
	"charmtrace/internal/structdiff"
	"charmtrace/internal/trace"
	"charmtrace/internal/viz"
)

// The dense pyramid as it stood at e3685ba, kept test-only as the
// differential oracle for the CSR pyramid that replaced it (the way PR 14
// kept the old trace decoder): row-major [cluster][bucket] Cell grids at
// every level, edges re-keyed through a map and comparator-sorted per
// level, and a Query that scans whole levels through maps. The code below
// is the old Build, Query, edgesFor, edgeSet and diffOverlay verbatim under
// dense* names; only helpers the replacement left untouched (planRows,
// divergenceStep, the Series/RowSeries builders) are shared, through the
// embedded Pyramid shell, which carries S/Clusters/ClusterOf and no levels.

// denseLevel is one level of the old layout. Cells is row-major
// [cluster][bucket]; Edges is sorted by (SrcBucket, SrcCluster, DstBucket,
// DstCluster).
type denseLevel struct {
	Width   int32
	Buckets int32
	Cells   []Cell
	Edges   []Edge
}

func (l *denseLevel) cell(cluster, bucket int32) *Cell {
	return &l.Cells[int(cluster)*int(l.Buckets)+int(bucket)]
}

type densePyramid struct {
	*Pyramid
	Levels []denseLevel
}

func denseBuild(s *core.Structure, rep *metrics.Report) *densePyramid {
	if rep == nil {
		rep = metrics.Compute(s)
	}
	tr := s.Trace
	p := &densePyramid{Pyramid: &Pyramid{
		S:         s,
		Clusters:  charegroup.Exact(s),
		ClusterOf: make([]int32, len(tr.Chares)),
	}}
	for i := range p.Clusters {
		for _, m := range p.Clusters[i].Members {
			p.ClusterOf[m] = int32(i)
		}
	}
	numSteps := int32(s.MaxStep()) + 1
	if numSteps <= 0 {
		return p
	}
	nc := int32(len(p.Clusters))

	// Base level: one bucket per global step.
	base := denseLevel{Width: 1, Buckets: numSteps, Cells: make([]Cell, int(nc)*int(numSteps))}
	type denseKey struct{ sb, sc, db, dc int32 }
	acc := make(map[denseKey]int64)
	for e := range tr.Events {
		ev := &tr.Events[e]
		eid := trace.EventID(e)
		c := base.cell(p.ClusterOf[ev.Chare], s.Step[eid])
		if c.Events == 0 {
			c.TimeMin, c.TimeMax = ev.Time, ev.Time
		} else {
			if ev.Time < c.TimeMin {
				c.TimeMin = ev.Time
			}
			if ev.Time > c.TimeMax {
				c.TimeMax = ev.Time
			}
		}
		c.Events++
		if ev.Kind == trace.Send {
			c.Sends++
		} else {
			c.Recvs++
		}
		vals := [NumMetrics]trace.Time{
			rep.SubDur[eid],
			rep.IdleExperienced[eid],
			rep.DifferentialDuration[eid],
			rep.Imbalance[eid],
		}
		for m, v := range vals {
			c.Sum[m] += int64(v)
			if int64(v) > c.Max[m] {
				c.Max[m] = int64(v)
			}
		}
		if ev.Kind == trace.Recv {
			if send := tr.MatchingSend(eid); send != trace.NoEvent {
				sv := &tr.Events[send]
				acc[denseKey{s.Step[send], p.ClusterOf[sv.Chare], s.Step[eid], p.ClusterOf[ev.Chare]}]++
			}
		}
	}
	base.Edges = make([]Edge, 0, len(acc))
	for k, w := range acc {
		base.Edges = append(base.Edges, Edge{k.sb, k.sc, k.db, k.dc, w})
	}
	denseSortEdges(base.Edges)
	p.Levels = append(p.Levels, base)

	// Coarsen: each level halves the bucket count (ceiling) until one
	// bucket spans everything. Parent bucket b merges children 2b, 2b+1.
	for p.Levels[len(p.Levels)-1].Buckets > 1 {
		prev := &p.Levels[len(p.Levels)-1]
		nb := (prev.Buckets + 1) / 2
		lvl := denseLevel{Width: prev.Width * 2, Buckets: nb, Cells: make([]Cell, int(nc)*int(nb))}
		for ci := int32(0); ci < nc; ci++ {
			for b := int32(0); b < prev.Buckets; b++ {
				lvl.cell(ci, b/2).merge(prev.cell(ci, b))
			}
		}
		half := make(map[denseKey]int64, len(prev.Edges))
		for _, e := range prev.Edges {
			half[denseKey{e.SrcBucket / 2, e.SrcCluster, e.DstBucket / 2, e.DstCluster}] += e.Weight
		}
		lvl.Edges = make([]Edge, 0, len(half))
		for k, w := range half {
			lvl.Edges = append(lvl.Edges, Edge{k.sb, k.sc, k.db, k.dc, w})
		}
		denseSortEdges(lvl.Edges)
		p.Levels = append(p.Levels, lvl)
	}

	return p
}

// denseSortEdges orders edges by (SrcBucket, SrcCluster, DstBucket, DstCluster)
// — the canonical wire order.
func denseSortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := &edges[i], &edges[j]
		if a.SrcBucket != b.SrcBucket {
			return a.SrcBucket < b.SrcBucket
		}
		if a.SrcCluster != b.SrcCluster {
			return a.SrcCluster < b.SrcCluster
		}
		if a.DstBucket != b.DstBucket {
			return a.DstBucket < b.DstBucket
		}
		return a.DstCluster < b.DstCluster
	})
}

func (p *densePyramid) levelFor(res Resolution, from, to int32) int {
	if res == Native {
		return 0
	}
	for l := range p.Levels {
		w := p.Levels[l].Width
		if int(to/w-from/w)+1 <= int(res) {
			return l
		}
	}
	return len(p.Levels) - 1
}

func (p *densePyramid) Query(sp Spec, diff *structdiff.Diff) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	maxStep := p.S.MaxStep()
	res := &Result{
		Resolution: sp.Resolution,
		MaxStep:    maxStep,
		NumPhases:  p.S.NumPhases(),
		Metrics:    MetricNames,
		TotalRows:  len(p.Clusters),
		Rows:       newRowSeries(0),
		Buckets:    newSeries(0),
		Cells:      [][]int64{},
	}
	if maxStep < 0 || len(p.Levels) == 0 {
		res.BucketWidth = 1
		if !sp.NoEdges {
			res.ClusterEdges = &EdgeSet{Src: []int32{}, Dst: []int32{}, Weight: []int64{}}
			res.BucketEdges = &EdgeSet{Src: []int32{}, Dst: []int32{}, Weight: []int64{}}
		}
		return res, nil
	}
	from, to := int32(0), maxStep
	if sp.Steps != nil {
		from, to = sp.Steps.From, sp.Steps.To
		if from > maxStep {
			from = maxStep
		}
		if to > maxStep {
			to = maxStep
		}
	}
	lvl := p.levelFor(sp.Resolution, from, to)
	level := &p.Levels[lvl]
	w := level.Width
	b0, b1 := from/w, to/w
	res.Level = lvl
	res.BucketWidth = w
	res.Window = query.StepRange{From: b0 * w, To: min((b1+1)*w-1, maxStep)}
	res.NumBuckets = b1 - b0 + 1

	plan := p.planRows(sp.MaxRows)
	nRows := len(plan.rows)

	// One merged cell per (row, window bucket), then marginalize both ways.
	merged := make([]Cell, nRows*int(res.NumBuckets))
	for ri, members := range plan.rows {
		for b := b0; b <= b1; b++ {
			c := &merged[ri*int(res.NumBuckets)+int(b-b0)]
			for _, ci := range members {
				c.merge(level.cell(ci, b))
			}
		}
	}

	// Bucket marginals over displayed (non-empty) buckets.
	res.Buckets = newSeries(int(res.NumBuckets))
	displayed := make([]int32, 0, res.NumBuckets) // window-relative indices
	for b := b0; b <= b1; b++ {
		var col Cell
		for ri := 0; ri < nRows; ri++ {
			col.merge(&merged[ri*int(res.NumBuckets)+int(b-b0)])
		}
		if col.Events == 0 {
			continue
		}
		displayed = append(displayed, b-b0)
		res.Buckets.push(b, &col)
	}

	// Row aggregates and the heatmap over the displayed columns.
	res.Rows = newRowSeries(nRows)
	res.Cells = make([][]int64, nRows)
	for ri, members := range plan.rows {
		var agg Cell
		cells := make([]int64, len(displayed))
		for k, rel := range displayed {
			c := &merged[ri*int(res.NumBuckets)+int(rel)]
			agg.merge(c)
			cells[k] = c.Events
		}
		res.Cells[ri] = cells

		rep, memberCount := trace.ChareID(-1), 0
		for _, ci := range members {
			cl := &p.Clusters[ci]
			memberCount += len(cl.Members)
			if rep < 0 || cl.Representative < rep {
				rep = cl.Representative
			}
		}
		label, runtime := "", false
		if len(members) == 1 {
			cl := &p.Clusters[members[0]]
			label, runtime = cl.Label(p.S.Table()), cl.Runtime
		} else {
			label = labelOverflow(memberCount, len(members))
		}
		res.Rows.Representative = append(res.Rows.Representative, int32(rep))
		res.Rows.Label = append(res.Rows.Label, label)
		res.Rows.Members = append(res.Rows.Members, int32(memberCount))
		res.Rows.Clusters = append(res.Rows.Clusters, int32(len(members)))
		res.Rows.Runtime = append(res.Rows.Runtime, runtime)
		res.Rows.Events = append(res.Rows.Events, agg.Events)
		res.Rows.Sends = append(res.Rows.Sends, agg.Sends)
		res.Rows.Recvs = append(res.Rows.Recvs, agg.Recvs)
		res.Rows.TimeMin = append(res.Rows.TimeMin, int64(agg.TimeMin))
		res.Rows.TimeMax = append(res.Rows.TimeMax, int64(agg.TimeMax))
		for m := 0; m < NumMetrics; m++ {
			res.Rows.MetricSum[m] = append(res.Rows.MetricSum[m], agg.Sum[m])
			res.Rows.MetricMax[m] = append(res.Rows.MetricMax[m], agg.Max[m])
		}
	}

	if !sp.NoEdges {
		res.ClusterEdges, res.BucketEdges = p.edgesFor(level, plan, b0, b1, sp.MaxEdges)
	}

	if sp.Render {
		rows := make([]viz.ClusterRow, nRows)
		for i := 0; i < nRows; i++ {
			rows[i] = viz.ClusterRow{
				Representative: trace.ChareID(res.Rows.Representative[i]),
				Label:          res.Rows.Label[i],
			}
		}
		res.Render = viz.LogicalClusteredWindow(p.S, rows, res.Window.From, res.Window.To)
	}

	if diff != nil {
		res.Diff = p.diffOverlay(diff, level, plan, b0, b1)
	}
	return res, nil
}

func (p *densePyramid) edgesFor(level *denseLevel, plan rowPlan, b0, b1 int32, maxEdges int) (*EdgeSet, *EdgeSet) {
	byRow := make(map[[2]int32]int64)
	byBucket := make(map[[2]int32]int64)
	for _, e := range level.Edges {
		if e.SrcBucket < b0 || e.SrcBucket > b1 || e.DstBucket < b0 || e.DstBucket > b1 {
			continue
		}
		byRow[[2]int32{plan.rowOf[e.SrcCluster], plan.rowOf[e.DstCluster]}] += e.Weight
		byBucket[[2]int32{e.SrcBucket, e.DstBucket}] += e.Weight
	}
	return denseEdgeSet(byRow, maxEdges), denseEdgeSet(byBucket, maxEdges)
}

// denseEdgeSet renders one aggregation map as a sorted, optionally capped
// columnar edge list.
func denseEdgeSet(acc map[[2]int32]int64, maxEdges int) *EdgeSet {
	type edge struct {
		src, dst int32
		weight   int64
	}
	all := make([]edge, 0, len(acc))
	for k, w := range acc {
		all = append(all, edge{k[0], k[1], w})
	}
	less := func(i, j int) bool {
		if all[i].src != all[j].src {
			return all[i].src < all[j].src
		}
		return all[i].dst < all[j].dst
	}
	sort.Slice(all, less)
	out := &EdgeSet{Total: len(all)}
	if maxEdges > 0 && len(all) > maxEdges {
		// Keep the heaviest deterministically, then restore key order.
		sort.SliceStable(all, func(i, j int) bool { return all[i].weight > all[j].weight })
		all = all[:maxEdges]
		sort.Slice(all, less)
	}
	out.Src = make([]int32, len(all))
	out.Dst = make([]int32, len(all))
	out.Weight = make([]int64, len(all))
	for i, e := range all {
		out.Src[i], out.Dst[i], out.Weight[i] = e.src, e.dst, e.weight
	}
	return out
}

// diffOverlay buckets the structural diff at the response's resolution:
// for every chare whose timeline diverges, the divergence is located at a
// global step of this structure's timeline and counted in the covering
// (row, bucket) cell. A chare whose timelines differ only in length is
// located at the first extra/missing position.
func (p *densePyramid) diffOverlay(d *structdiff.Diff, level *denseLevel, plan rowPlan, b0, b1 int32) *DiffJSON {
	out := &DiffJSON{
		Equivalent: d.Empty(),
		PhaseCount: d.PhaseCount,
		MaxStep:    d.MaxStep,
		Diverged:   len(d.Chares),
	}
	if d.PatternA != d.PatternB {
		out.PatternA, out.PatternB = d.PatternA, d.PatternB
	}
	if len(d.Chares) == 0 {
		return out
	}
	counts := make(map[[2]int32]int64) // (row, bucket) -> diverged chares
	for _, cd := range d.Chares {
		step := p.divergenceStep(cd)
		if step < 0 {
			continue
		}
		b := step / level.Width
		if b < b0 || b > b1 {
			continue
		}
		counts[[2]int32{plan.rowOf[p.ClusterOf[cd.Chare]], b}]++
	}
	keys := make([][2]int32, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var cur *DiffRowJSON
	for _, k := range keys {
		if cur == nil || cur.Row != k[0] {
			out.Rows = append(out.Rows, DiffRowJSON{Row: k[0]})
			cur = &out.Rows[len(out.Rows)-1]
		}
		cur.Buckets = append(cur.Buckets, DiffBucketJSON{Bucket: k[1], Diverged: counts[k]})
	}
	return out
}

// oracleSpecs is the request grid the differential test replays on both
// pyramids: the benchmark's overview and zoom shapes, each cap, the native
// render, a one-step window, and (when other is a comparable run) the diff
// overlay at two resolutions.
func oracleSpecs(maxStep int32) []Spec {
	zoom := &query.StepRange{From: maxStep / 4, To: maxStep/4 + maxStep/3}
	one := &query.StepRange{From: maxStep / 2, To: maxStep / 2}
	return []Spec{
		{Resolution: 64},
		{Resolution: 256, Steps: zoom, MaxRows: 16},
		{Resolution: 8, MaxRows: 3, MaxEdges: 5},
		{Resolution: 1},
		{Resolution: 16, Steps: zoom, NoEdges: true},
		{Render: true},
		{Steps: zoom, MaxEdges: 7},
		{Steps: one},
		{Resolution: 4, Steps: one, MaxRows: 2},
		{Steps: &query.StepRange{From: maxStep + 5, To: maxStep + 9}},
	}
}

// TestDenseOracle holds the CSR pyramid against the dense one it replaced,
// for every workload in the internal/cli registry, with a perturbed sibling
// run of the same workload supplying the diff overlay.
func TestDenseOracle(t *testing.T) {
	for _, name := range cli.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := extractRegistry(t, name, cli.Params{})
			d, err := structdiff.Compare(s, extractRegistry(t, name, cli.Params{Seed: 99, Iterations: 3}))
			if err != nil {
				t.Fatalf("sibling run is not comparable: %v", err)
			}
			checkAgainstOracle(t, s, d)
		})
	}
}

// checkAgainstOracle builds both pyramids over s and requires that every
// level's cells and edges are equal slot for slot (an absent CSR slot is the
// zero Cell, and the rows store exactly the non-empty ones), and that every
// response of the request grid — without a diff overlay, and with d when it
// is non-nil — marshals to the same bytes.
func checkAgainstOracle(t *testing.T, s *core.Structure, d *structdiff.Diff) {
	t.Helper()
	got, want := Build(s, nil), denseBuild(s, nil)
	if !reflect.DeepEqual(got.Clusters, want.Clusters) || !reflect.DeepEqual(got.ClusterOf, want.ClusterOf) {
		t.Fatal("clustering differs from the oracle's")
	}
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%d levels, oracle has %d", len(got.Levels), len(want.Levels))
	}
	for l := range want.Levels {
		g, w := &got.Levels[l], &want.Levels[l]
		if g.Width != w.Width || g.Buckets != w.Buckets {
			t.Fatalf("level %d: width %d buckets %d, oracle %d / %d", l, g.Width, g.Buckets, w.Width, w.Buckets)
		}
		var stored int
		for ci := int32(0); ci < int32(len(want.Clusters)); ci++ {
			for b := int32(0); b < w.Buckets; b++ {
				if c := *g.cell(ci, b); c != *w.cell(ci, b) {
					t.Fatalf("level %d cell (%d,%d): %+v, oracle %+v", l, ci, b, c, *w.cell(ci, b))
				}
				if w.cell(ci, b).Events != 0 {
					stored++
				}
			}
		}
		if len(g.cells) != stored {
			t.Fatalf("level %d stores %d cells, oracle has %d non-empty", l, len(g.cells), stored)
		}
		if e := g.allEdges(); len(e) != len(w.Edges) || len(e) > 0 && !reflect.DeepEqual(e, w.Edges) {
			t.Fatalf("level %d edges differ from the oracle's:\n%v\n----\n%v", l, e, w.Edges)
		}
	}
	diffs := []*structdiff.Diff{nil}
	if d != nil {
		diffs = append(diffs, d)
	}
	for _, sp := range oracleSpecs(s.MaxStep()) {
		for _, d := range diffs {
			gr, gerr := got.Query(sp, d)
			wr, werr := want.Query(sp, d)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%+v: err %v, oracle %v", sp, gerr, werr)
			}
			gb, _ := json.Marshal(gr)
			wb, _ := json.Marshal(wr)
			if !bytes.Equal(gb, wb) {
				t.Fatalf("%+v (diff=%v): response differs from the oracle's:\n%s\n----\n%s", sp, d != nil, gb, wb)
			}
		}
	}
}
