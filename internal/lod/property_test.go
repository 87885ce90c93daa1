package lod

import (
	"encoding/json"
	"testing"

	"charmtrace/internal/charegroup"
	"charmtrace/internal/conformance"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
	"charmtrace/internal/viz"
)

// cell looks a (cluster, bucket) slot up in the CSR rows; an absent slot is
// the zero Cell, exactly what the dense grid held there.
func (l *Level) cell(cluster, bucket int32) *Cell {
	if i, end := l.seek(cluster, bucket); i < end && l.bucket[i] == bucket {
		return &l.cells[i]
	}
	return &Cell{}
}

// allEdges unpacks the level's whole edge list, in stored order.
func (l *Level) allEdges() []Edge {
	out := make([]Edge, len(l.edges.lo))
	for i := range out {
		out[i] = l.edges.edge(i)
	}
	return out
}

// TestZooNativeLossless pins satellite property (a): at resolution=native
// the pyramid's base level is a lossless re-binning of the structure the
// /steps and /viz responses render — per-(cluster, step) event counts
// recount exactly from the structure, edge weight equals the matched
// send→recv pair count, the clustering passes charegroup's validator, and
// the native render is exactly viz's clustered window. Runs the whole
// nine-workload zoo at parallelism 1/2/4; the response bytes must be
// identical at every worker count.
func TestZooNativeLossless(t *testing.T) {
	for _, w := range conformance.Zoo() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.MustGen()
			var golden []byte
			for _, par := range []int{1, 2, 4} {
				opt := w.Opts
				opt.Parallelism = par
				s, err := core.Extract(tr, opt)
				if err != nil {
					t.Fatal(err)
				}
				p := Build(s, nil)
				if err := charegroup.Validate(s, p.Clusters); err != nil {
					t.Fatalf("par=%d: clustering invalid: %v", par, err)
				}
				checkNativeCounts(t, p)
				checkNativeEdges(t, p)
				checkNativeRender(t, p)
				out, err := p.Query(Spec{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				if golden == nil {
					golden = b
				} else if string(b) != string(golden) {
					t.Fatalf("par=%d: native response differs from par=1", par)
				}
			}
		})
	}
}

// checkNativeCounts recounts every base-level cell from the structure.
func checkNativeCounts(t *testing.T, p *Pyramid) {
	t.Helper()
	if len(p.Levels) == 0 {
		if p.S.MaxStep() >= 0 {
			t.Fatal("non-empty structure built no levels")
		}
		return
	}
	base := &p.Levels[0]
	s, tr := p.S, p.S.Trace
	nc := int32(len(p.Clusters))
	want := make([]int64, int(nc)*int(base.Buckets))
	var total int64
	for e := range tr.Events {
		ci := p.ClusterOf[tr.Events[e].Chare]
		want[int(ci)*int(base.Buckets)+int(s.Step[trace.EventID(e)])]++
		total++
	}
	var got int64
	for ci := int32(0); ci < nc; ci++ {
		for b := int32(0); b < base.Buckets; b++ {
			c := base.cell(ci, b)
			if c.Events != want[int(ci)*int(base.Buckets)+int(b)] {
				t.Fatalf("cell (%d,%d): %d events, structure recount %d", ci, b, c.Events, want[int(ci)*int(base.Buckets)+int(b)])
			}
			got += c.Events
		}
	}
	if got != total {
		t.Fatalf("base level holds %d events, trace has %d", got, total)
	}
	// The rows store exactly the occupied slots, in bucket order.
	for i := range base.cells {
		if base.cells[i].Events == 0 {
			t.Fatalf("stored cell %d is empty", i)
		}
	}
	for ci := int32(0); ci < nc; ci++ {
		for i := base.rowStart[ci] + 1; i < base.rowStart[ci+1]; i++ {
			if base.bucket[i-1] >= base.bucket[i] {
				t.Fatalf("row %d: buckets not ascending at %d", ci, i)
			}
		}
	}
}

// checkNativeEdges equates base-level edge weight with the trace's matched
// send→recv pairs.
func checkNativeEdges(t *testing.T, p *Pyramid) {
	t.Helper()
	if len(p.Levels) == 0 {
		return
	}
	tr := p.S.Trace
	var pairs int64
	for e := range tr.Events {
		if tr.Events[e].Kind == trace.Recv && tr.MatchingSend(trace.EventID(e)) != trace.NoEvent {
			pairs++
		}
	}
	var weight int64
	for _, e := range p.Levels[0].allEdges() {
		weight += e.Weight
	}
	if weight != pairs {
		t.Fatalf("base edges weigh %d, trace has %d matched pairs", weight, pairs)
	}
}

// checkNativeRender pins the native text render to viz's clustered window
// over the same rows.
func checkNativeRender(t *testing.T, p *Pyramid) {
	t.Helper()
	if p.S.MaxStep() < 0 {
		return
	}
	out, err := p.Query(Spec{Render: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]viz.ClusterRow, len(p.Clusters))
	for i, c := range p.Clusters {
		rows[i] = viz.ClusterRow{Representative: c.Representative, Label: c.Label(p.S.Table())}
	}
	want := viz.LogicalClusteredWindow(p.S, rows, 0, p.S.MaxStep())
	if out.Render != want {
		t.Fatalf("native render differs from viz.LogicalClusteredWindow:\n%s\n----\n%s", out.Render, want)
	}
}

// TestZooCoarseningMonotone pins satellite property (b): at every level
// L >= 1, each cell is exactly the merge of its children at L-1 and each
// edge's weight is the sum of the child edges it covers — so zooming out
// never invents or loses an event, a nanosecond of metric mass, or a
// message. Runs the whole zoo.
func TestZooCoarseningMonotone(t *testing.T) {
	for _, w := range conformance.Zoo() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			s, err := core.Extract(w.MustGen(), w.Opts)
			if err != nil {
				t.Fatal(err)
			}
			p := Build(s, nil)
			for l := 1; l < len(p.Levels); l++ {
				child, parent := &p.Levels[l-1], &p.Levels[l]
				if parent.Width != child.Width*2 {
					t.Fatalf("level %d width %d, child width %d", l, parent.Width, child.Width)
				}
				nc := int32(len(p.Clusters))
				for ci := int32(0); ci < nc; ci++ {
					for b := int32(0); b < parent.Buckets; b++ {
						var want Cell
						want.merge(child.cell(ci, 2*b))
						if 2*b+1 < child.Buckets {
							want.merge(child.cell(ci, 2*b+1))
						}
						if got := *parent.cell(ci, b); got != want {
							t.Fatalf("level %d cell (%d,%d): %+v, children merge to %+v", l, ci, b, got, want)
						}
					}
				}
				wantEdges := make(map[Edge]int64)
				for _, e := range child.allEdges() {
					wantEdges[Edge{e.SrcBucket / 2, e.SrcCluster, e.DstBucket / 2, e.DstCluster, 0}] += e.Weight
				}
				parentEdges := parent.allEdges()
				if len(parentEdges) != len(wantEdges) {
					t.Fatalf("level %d: %d edges, children re-aggregate to %d", l, len(parentEdges), len(wantEdges))
				}
				for i, e := range parentEdges {
					if i > 0 && !edgeBefore(parentEdges[i-1], e) {
						t.Fatalf("level %d: edges %+v, %+v out of wire order", l, parentEdges[i-1], e)
					}
					if wantEdges[Edge{e.SrcBucket, e.SrcCluster, e.DstBucket, e.DstCluster, 0}] != e.Weight {
						t.Fatalf("level %d edge %+v does not match children", l, e)
					}
				}
			}
			if top := p.Levels[len(p.Levels)-1]; top.Buckets != 1 {
				t.Fatalf("top level has %d buckets, want 1", top.Buckets)
			}
		})
	}
}

// edgeBefore is strict (SrcBucket, SrcCluster, DstBucket, DstCluster) order.
func edgeBefore(a, b Edge) bool {
	ka := [4]int32{a.SrcBucket, a.SrcCluster, a.DstBucket, a.DstCluster}
	kb := [4]int32{b.SrcBucket, b.SrcCluster, b.DstBucket, b.DstCluster}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return false
}
