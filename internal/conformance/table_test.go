package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"charmtrace/internal/charegroup"
	"charmtrace/internal/core"
	"charmtrace/internal/lod"
	"charmtrace/internal/metrics"
	"charmtrace/internal/query"
	"charmtrace/internal/structdiff"
	"charmtrace/internal/tracefile"
)

// TestViewsAgreeWithAndWithoutTrace: for every zoo workload, the structure
// as extracted (trace attached) and the same structure decoded against
// nothing but the persisted table give equal §4 reports, query indexes,
// LOD pyramids, clusterings and diffs, and equal answers to a query and an
// LOD read — the table carries everything the read path takes from a trace.
func TestViewsAgreeWithAndWithoutTrace(t *testing.T) {
	for _, w := range Zoo() {
		tr := w.MustGen()
		with, err := core.Extract(tr, w.Opts)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var tbl, cstr bytes.Buffer
		if err := tracefile.WriteTable(&tbl, tr.Table()); err != nil {
			t.Fatal(err)
		}
		tab, err := tracefile.ReadTable(tbl.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := core.EncodeStructure(&cstr, with); err != nil {
			t.Fatal(err)
		}
		without, _, err := core.DecodeStructureTable(cstr.Bytes(), tab)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if without.Trace != nil {
			t.Fatalf("%s: decoding against a table attached a trace", w.Name)
		}
		same := func(what string, a, b any) {
			t.Helper()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: %s differs between the structure with its trace and the one with its table", w.Name, what)
			}
		}

		ra, rb := metrics.Compute(with), metrics.Compute(without)
		ra.Structure, rb.Structure = nil, nil
		same("metrics.Compute", ra, rb)
		same("metrics.Lateness", metrics.Lateness(with), metrics.Lateness(without))
		same("charegroup.Exact", charegroup.Exact(with), charegroup.Exact(without))
		same("charegroup.ByPhaseShape", charegroup.ByPhaseShape(with), charegroup.ByPhaseShape(without))

		ia, ib := query.BuildIndex(with), query.BuildIndex(without)
		for _, spec := range []query.Spec{
			{Select: query.SelectSteps},
			{Select: query.SelectMetrics, GroupBy: query.GroupByChare},
			{Select: query.SelectViz},
		} {
			qa, erra := query.Run(context.Background(), ia, spec)
			qb, errb := query.Run(context.Background(), ib, spec)
			if erra != nil || errb != nil {
				t.Fatalf("%s: query %s: %v / %v", w.Name, spec.Select, erra, errb)
			}
			same("query "+spec.Select, qa, qb)
		}
		ia.S, ib.S, ia.Tab, ib.Tab, ia.Report.Structure, ib.Report.Structure = nil, nil, nil, nil, nil, nil
		same("query.BuildIndex", ia, ib)

		pa, pb := lod.Build(with, nil), lod.Build(without, nil)
		for _, sp := range []lod.Spec{{Resolution: 8}, {Render: true, MaxRows: 5}} {
			la, erra := pa.Query(sp, nil)
			lb, errb := pb.Query(sp, nil)
			if erra != nil || errb != nil {
				t.Fatalf("%s: lod: %v / %v", w.Name, erra, errb)
			}
			ja, _ := json.Marshal(la)
			jb, _ := json.Marshal(lb)
			same("lod response", ja, jb)
		}
		pa.S, pb.S = nil, nil
		same("lod.Build", pa, pb)

		d, err := structdiff.Compare(with, without)
		if err != nil || !d.Empty() {
			t.Errorf("%s: structdiff across the two forms: %v, %v", w.Name, err, d)
		}
	}
}
