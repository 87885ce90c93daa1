package lod

import (
	"cmp"
	"slices"
	"sort"
	"strconv"

	"charmtrace/internal/query"
	"charmtrace/internal/structdiff"
	"charmtrace/internal/trace"
	"charmtrace/internal/viz"
)

// The wire format is columnar (arrays per field, parallel by position)
// rather than an array of objects: an interactive client feeds the columns
// straight into typed arrays and plots, and the payload stays
// O(buckets + rows + edges) numbers with each JSON key spelled once. The
// only two-dimensional field is Cells — the row × bucket event-count
// heatmap — which is O(buckets × rows) small integers, never O(events).

// Series carries the per-bucket marginals of the window — the "bucketed
// step windows" of the response: for every displayed (non-empty) bucket,
// the event/send/recv counts, the wall-clock span, and the §4 metric
// rollups summed and maxed over every chare. Buckets are aligned to the
// absolute step grid: bucket b covers global steps [b*width, (b+1)*width-1].
// MetricSum/MetricMax are metric-major: MetricSum[m][k] is metric m (per
// the response's metrics legend) summed over bucket Bucket[k].
type Series struct {
	Bucket    []int32             `json:"bucket"`
	Events    []int64             `json:"events"`
	Sends     []int64             `json:"sends"`
	Recvs     []int64             `json:"recvs"`
	TimeMin   []int64             `json:"time_min"`
	TimeMax   []int64             `json:"time_max"`
	MetricSum [NumMetrics][]int64 `json:"metric_sum"`
	MetricMax [NumMetrics][]int64 `json:"metric_max"`
}

func newSeries(n int) Series {
	s := Series{
		Bucket:  make([]int32, 0, n),
		Events:  make([]int64, 0, n),
		Sends:   make([]int64, 0, n),
		Recvs:   make([]int64, 0, n),
		TimeMin: make([]int64, 0, n),
		TimeMax: make([]int64, 0, n),
	}
	for m := 0; m < NumMetrics; m++ {
		s.MetricSum[m] = make([]int64, 0, n)
		s.MetricMax[m] = make([]int64, 0, n)
	}
	return s
}

func (s *Series) push(b int32, c *Cell) {
	s.Bucket = append(s.Bucket, b)
	s.Events = append(s.Events, c.Events)
	s.Sends = append(s.Sends, c.Sends)
	s.Recvs = append(s.Recvs, c.Recvs)
	s.TimeMin = append(s.TimeMin, int64(c.TimeMin))
	s.TimeMax = append(s.TimeMax, int64(c.TimeMax))
	for m := 0; m < NumMetrics; m++ {
		s.MetricSum[m] = append(s.MetricSum[m], c.Sum[m])
		s.MetricMax[m] = append(s.MetricMax[m], c.Max[m])
	}
}

// RowSeries carries the per-row aggregates of the window, one position per
// response row: a behavioural cluster (or the overflow merge of the
// smallest clusters when max_rows caps the response), with its event count,
// wall-clock span, and metric rollups summed/maxed over the whole window.
type RowSeries struct {
	Representative []int32             `json:"representative"`
	Label          []string            `json:"label"`
	Members        []int32             `json:"members"`
	Clusters       []int32             `json:"clusters"`
	Runtime        []bool              `json:"runtime"`
	Events         []int64             `json:"events"`
	Sends          []int64             `json:"sends"`
	Recvs          []int64             `json:"recvs"`
	TimeMin        []int64             `json:"time_min"`
	TimeMax        []int64             `json:"time_max"`
	MetricSum      [NumMetrics][]int64 `json:"metric_sum"`
	MetricMax      [NumMetrics][]int64 `json:"metric_max"`
}

func newRowSeries(n int) RowSeries {
	r := RowSeries{
		Representative: make([]int32, 0, n),
		Label:          make([]string, 0, n),
		Members:        make([]int32, 0, n),
		Clusters:       make([]int32, 0, n),
		Runtime:        make([]bool, 0, n),
		Events:         make([]int64, 0, n),
		Sends:          make([]int64, 0, n),
		Recvs:          make([]int64, 0, n),
		TimeMin:        make([]int64, 0, n),
		TimeMax:        make([]int64, 0, n),
	}
	for m := 0; m < NumMetrics; m++ {
		r.MetricSum[m] = make([]int64, 0, n)
		r.MetricMax[m] = make([]int64, 0, n)
	}
	return r
}

// EdgeSet is one aggregated communication edge list in columnar form:
// edge k is Src[k] → Dst[k] carrying Weight[k] matched send→recv pairs.
// Total is the pre-cap number of distinct pairs when max_edges truncates.
type EdgeSet struct {
	Total  int     `json:"total"`
	Src    []int32 `json:"src"`
	Dst    []int32 `json:"dst"`
	Weight []int64 `json:"weight"`
}

// DiffBucketJSON counts the chares of one row whose timelines diverge
// within one bucket.
type DiffBucketJSON struct {
	Bucket   int32 `json:"bucket"`
	Diverged int64 `json:"diverged"`
}

// DiffRowJSON is one row's divergence overlay.
type DiffRowJSON struct {
	Row     int32            `json:"row"`
	Buckets []DiffBucketJSON `json:"buckets"`
}

// DiffJSON is the structdiff-backed timeline overlay: the structural
// summary plus per-(row, bucket) counts of diverged chares, at the same
// resolution as the main response.
type DiffJSON struct {
	Equivalent bool          `json:"equivalent"`
	PhaseCount *[2]int       `json:"phase_count,omitempty"`
	MaxStep    *[2]int32     `json:"max_step,omitempty"`
	PatternA   string        `json:"pattern_a,omitempty"`
	PatternB   string        `json:"pattern_b,omitempty"`
	Diverged   int           `json:"diverged_chares"`
	Rows       []DiffRowJSON `json:"rows,omitempty"`
}

// Result is one executed LOD request. Field order (and struct typing
// throughout) keeps the encoding deterministic.
type Result struct {
	Resolution  Resolution         `json:"resolution"`
	Level       int                `json:"level"`
	BucketWidth int32              `json:"bucket_width"`
	Window      query.StepRange    `json:"window"`
	NumBuckets  int32              `json:"num_buckets"`
	MaxStep     int32              `json:"max_step"`
	NumPhases   int                `json:"num_phases"`
	Metrics     [NumMetrics]string `json:"metrics"`
	TotalRows   int                `json:"total_rows"`
	Rows        RowSeries          `json:"rows"`
	Buckets     Series             `json:"buckets"`
	// Cells is the heatmap: Cells[r][k] is the event count of row r in
	// displayed bucket Buckets.Bucket[k].
	Cells        [][]int64 `json:"cells"`
	ClusterEdges *EdgeSet  `json:"cluster_edges,omitempty"`
	BucketEdges  *EdgeSet  `json:"bucket_edges,omitempty"`
	Render       string    `json:"render,omitempty"`
	Diff         *DiffJSON `json:"diff,omitempty"`
}

// rowPlan maps behavioural clusters onto response rows under a max_rows
// cap: rowOf[cluster] = response row, rows = member clusters per row in
// original (display) order.
type rowPlan struct {
	rowOf []int32
	rows  [][]int32 // per response row, the merged cluster indices
}

// planRows caps the cluster list at maxRows response rows. Clusters are
// kept whole; when there are more clusters than rows, the largest
// (by member count, ties to the earlier cluster) keep their own rows in
// display order and the rest merge into one trailing overflow row. The
// plan is a pure function of (clusters, maxRows) — deterministic.
func (p *Pyramid) planRows(maxRows int) rowPlan {
	nc := len(p.Clusters)
	plan := rowPlan{rowOf: make([]int32, nc)}
	if maxRows <= 0 || nc <= maxRows {
		plan.rows = make([][]int32, nc)
		for i := 0; i < nc; i++ {
			plan.rowOf[i] = int32(i)
			plan.rows[i] = []int32{int32(i)}
		}
		return plan
	}
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(p.Clusters[order[a]].Members) > len(p.Clusters[order[b]].Members)
	})
	keep := make(map[int]bool, maxRows-1)
	for _, ci := range order[:maxRows-1] {
		keep[ci] = true
	}
	plan.rows = make([][]int32, 0, maxRows)
	var overflow []int32
	for ci := 0; ci < nc; ci++ {
		if keep[ci] {
			plan.rowOf[ci] = int32(len(plan.rows))
			plan.rows = append(plan.rows, []int32{int32(ci)})
		} else {
			overflow = append(overflow, int32(ci))
		}
	}
	orow := int32(len(plan.rows))
	for _, ci := range overflow {
		plan.rowOf[ci] = orow
	}
	plan.rows = append(plan.rows, overflow)
	return plan
}

// levelFor picks the coarsest level whose bucket count across the window
// fits the resolution — native pins level 0 — from the level geometry
// alone, so no level is built to be rejected. Buckets are grid-aligned, so
// the count is over the window snapped outward to bucket boundaries.
func (p *Pyramid) levelFor(res Resolution, from, to int32) int {
	if res == Native {
		return 0
	}
	for l := range p.levels {
		if int(to>>l-from>>l)+1 <= int(res) {
			return l
		}
	}
	return len(p.levels) - 1
}

// Query executes one LOD request against the pyramid, building the level it
// reads if no query has needed it before. diff is the computed
// structural diff when the spec asked for the overlay (the caller resolves
// the second digest), else nil. The result is a pure function of
// (pyramid, spec, diff), rendered in fully deterministic order.
func (p *Pyramid) Query(sp Spec, diff *structdiff.Diff) (*Result, error) {
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
	if maxStep < 0 || len(p.levels) == 0 {
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
	level := p.Level(lvl)
	w := level.Width
	b0, b1 := from/w, to/w
	res.Level = lvl
	res.BucketWidth = w
	res.Window = query.StepRange{From: b0 * w, To: min((b1+1)*w-1, maxStep)}
	res.NumBuckets = b1 - b0 + 1

	plan := p.planRows(sp.MaxRows)
	nRows := len(plan.rows)

	// Bucket marginals, read from the stored cells of the window only:
	// marginal[k] merges every cluster's cell at bucket b0+k. The displayed
	// buckets are the non-empty ones; column[k] is bucket b0+k's position
	// among them.
	marginal := make([]Cell, res.NumBuckets)
	for ci := range p.Clusters {
		for i, end := level.seek(int32(ci), b0); i < end && level.bucket[i] <= b1; i++ {
			c := level.at(i)
			marginal[level.bucket[i]-b0].merge(&c)
		}
	}
	res.Buckets = newSeries(len(marginal))
	column := make([]int32, len(marginal))
	for k := range marginal {
		if marginal[k].Events != 0 {
			column[k] = int32(len(res.Buckets.Bucket))
			res.Buckets.push(b0+int32(k), &marginal[k])
		}
	}

	// Row aggregates and the heatmap over the displayed columns.
	res.Rows = newRowSeries(nRows)
	res.Cells = make([][]int64, nRows)
	for ri, members := range plan.rows {
		var agg Cell
		cells := make([]int64, len(res.Buckets.Bucket))
		for _, ci := range members {
			for i, end := level.seek(ci, b0); i < end && level.bucket[i] <= b1; i++ {
				c := level.at(i)
				agg.merge(&c)
				cells[column[level.bucket[i]-b0]] += c.Events
			}
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

// labelOverflow names the merged trailing row.
func labelOverflow(members, clusters int) string {
	return "other (" + strconv.Itoa(clusters) + " clusters) x" + strconv.Itoa(members)
}

// edgesFor renders the window's aggregated communication edges at the two
// response granularities: row → row (bucket axis collapsed) and bucket →
// bucket (cluster axis collapsed). Only the level's edges whose SrcBucket is
// in the window are visited, and those with the other endpoint outside it
// are dropped; each set is sorted by (src, dst); maxEdges > 0 keeps the
// heaviest of each (ties to earlier key order) and reports the pre-cap
// totals.
func (p *Pyramid) edgesFor(level *Level, plan rowPlan, b0, b1 int32, maxEdges int) (*EdgeSet, *EdgeSet) {
	byRow := make(map[[2]int32]int64)
	byBucket := make(map[[2]int32]int64)
	for i, end := level.edges.from(b0), level.edges.from(b1+1); i < end; i++ {
		e := level.edges.edge(i)
		if e.DstBucket < b0 || e.DstBucket > b1 {
			continue
		}
		byRow[[2]int32{plan.rowOf[e.SrcCluster], plan.rowOf[e.DstCluster]}] += e.Weight
		byBucket[[2]int32{e.SrcBucket, e.DstBucket}] += e.Weight
	}
	return edgeSet(byRow, maxEdges), edgeSet(byBucket, maxEdges)
}

// edgeSet renders one aggregation map as a sorted, optionally capped
// columnar edge list.
func edgeSet(acc map[[2]int32]int64, maxEdges int) *EdgeSet {
	type edge struct {
		src, dst int32
		weight   int64
	}
	all := make([]edge, 0, len(acc))
	for k, w := range acc {
		all = append(all, edge{k[0], k[1], w})
	}
	byKey := func(a, b edge) int {
		if a.src != b.src {
			return cmp.Compare(a.src, b.src)
		}
		return cmp.Compare(a.dst, b.dst)
	}
	slices.SortFunc(all, byKey)
	out := &EdgeSet{Total: len(all)}
	if maxEdges > 0 && len(all) > maxEdges {
		// Keep the heaviest deterministically, then restore key order.
		slices.SortStableFunc(all, func(a, b edge) int { return cmp.Compare(b.weight, a.weight) })
		all = all[:maxEdges]
		slices.SortFunc(all, byKey)
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
func (p *Pyramid) diffOverlay(d *structdiff.Diff, level *Level, plan rowPlan, b0, b1 int32) *DiffJSON {
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

// divergenceStep locates one chare divergence on this structure's step
// axis: the step of the first diverging timeline position, clamped into
// the chare's timeline (a timeline that is a strict prefix of the other
// side's diverges just past its own end). -1 when the chare has no events
// here at all.
func (p *Pyramid) divergenceStep(cd structdiff.ChareDiff) int32 {
	events := p.S.EventsOfChare(cd.Chare)
	if len(events) == 0 {
		return -1
	}
	pos := cd.FirstDivergence
	if pos < 0 {
		pos = cd.LenB // length-only diff: first extra/missing position
	}
	if pos >= len(events) {
		pos = len(events) - 1
	}
	return p.S.Step[events[pos]]
}
