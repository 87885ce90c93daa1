package lod

import (
	"encoding/json"
	"errors"
	"net/url"
	"strings"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/core"
	"charmtrace/internal/query"
	"charmtrace/internal/structdiff"
	"charmtrace/internal/trace"
)

// jacobiPyramid builds the shared test fixture: the default Jacobi
// workload's structure and its pyramid.
func jacobiPyramid(t *testing.T) *Pyramid {
	t.Helper()
	s, err := core.Extract(jacobi.MustTrace(jacobi.DefaultConfig()), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return Build(s, nil)
}

func TestParseResolution(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Resolution
		ok   bool
	}{
		{"", Native, true},
		{"native", Native, true},
		{"64", 64, true},
		{"1", 1, true},
		{"0", 0, false},
		{"-3", 0, false},
		{"lots", 0, false},
	} {
		got, err := ParseResolution(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseResolution(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseResolution(%q) = %d, want %d", tc.in, got, tc.want)
		}
		if !tc.ok {
			var le *Error
			if !errors.As(err, &le) || le.Field != "resolution" {
				t.Errorf("ParseResolution(%q): error %v does not name field resolution", tc.in, err)
			}
		}
	}
}

func TestResolutionJSONRoundTrip(t *testing.T) {
	for _, r := range []Resolution{Native, 1, 64} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var got Resolution
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Errorf("round trip %d -> %s -> %d", r, b, got)
		}
	}
	if b, _ := json.Marshal(Native); string(b) != `"native"` {
		t.Errorf("Native marshals to %s, want \"native\"", b)
	}
}

func TestSpecValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  Spec
		field string
	}{
		{"negative resolution", Spec{Resolution: -1}, "resolution"},
		{"negative from", Spec{Steps: &query.StepRange{From: -1, To: 3}}, "steps.from"},
		{"inverted window", Spec{Steps: &query.StepRange{From: 5, To: 2}}, "steps.to"},
		{"negative max_rows", Spec{MaxRows: -1}, "max_rows"},
		{"negative max_edges", Spec{MaxEdges: -2}, "max_edges"},
		{"render at coarse resolution", Spec{Resolution: 8, Render: true}, "render"},
	} {
		err := tc.spec.Validate()
		var le *Error
		if !errors.As(err, &le) || le.Field != tc.field {
			t.Errorf("%s: err = %v, want *Error on field %q", tc.name, err, tc.field)
		}
	}
	ok := Spec{Resolution: 64, Steps: &query.StepRange{From: 0, To: 10}, MaxRows: 4, MaxEdges: 9}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestSpecFromParams(t *testing.T) {
	v := url.Values{}
	v.Set("resolution", "32")
	v.Set("steps", "4..90")
	v.Set("max_rows", "5")
	v.Set("edges", "false")
	v.Set("preset", "mp") // foreign parameter: owned by the serving layer
	sp, err := SpecFromParams(v)
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Resolution: 32, Steps: &query.StepRange{From: 4, To: 90}, MaxRows: 5, NoEdges: true}
	if sp.Steps == nil || *sp.Steps != *want.Steps || sp.Resolution != want.Resolution ||
		sp.MaxRows != want.MaxRows || !sp.NoEdges {
		t.Errorf("SpecFromParams = %+v, want %+v", sp, want)
	}
	// Out-of-int32 bounds must be rejected, not wrapped to a valid window.
	for _, bad := range []string{"x..y", "4294967296..4294967297", "4294967296"} {
		var le *Error
		if _, err := SpecFromParams(url.Values{"steps": {bad}}); !errors.As(err, &le) || le.Field != "steps" {
			t.Errorf("steps=%s: err = %v, want *Error on field \"steps\"", bad, err)
		}
	}
	if _, err := SpecFromParams(url.Values{"render": {"maybe"}}); err == nil {
		t.Error("bad render parameter accepted")
	}
}

func TestParseSpecUnknownField(t *testing.T) {
	if _, err := ParseSpec(strings.NewReader(`{"resolutoin": 64}`)); err == nil {
		t.Error("misspelled spec field accepted")
	}
	sp, err := ParseSpec(strings.NewReader(`{"resolution": "native", "max_rows": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Resolution != Native || sp.MaxRows != 3 {
		t.Errorf("ParseSpec = %+v", sp)
	}
}

func TestResponseNeverExceedsResolution(t *testing.T) {
	p := jacobiPyramid(t)
	for _, res := range []Resolution{1, 2, 7, 16, 64} {
		out, err := p.Query(Spec{Resolution: res}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.NumBuckets > int32(res) {
			t.Errorf("resolution=%d: %d buckets", res, out.NumBuckets)
		}
		if len(out.Buckets.Bucket) > int(out.NumBuckets) {
			t.Errorf("resolution=%d: %d displayed buckets exceed the window's %d",
				res, len(out.Buckets.Bucket), out.NumBuckets)
		}
		for ri, cells := range out.Cells {
			if len(cells) != len(out.Buckets.Bucket) {
				t.Errorf("resolution=%d: row %d has %d heatmap columns, want %d",
					res, ri, len(cells), len(out.Buckets.Bucket))
			}
		}
	}
	// Native pins level 0, bucket width 1.
	out, err := p.Query(Spec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level != 0 || out.BucketWidth != 1 {
		t.Errorf("native served level %d width %d", out.Level, out.BucketWidth)
	}
}

func TestRowCapping(t *testing.T) {
	p := jacobiPyramid(t)
	full, err := p.Query(Spec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var totalMembers int32
	for _, m := range full.Rows.Members {
		totalMembers += m
	}

	capped, err := p.Query(Spec{MaxRows: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Rows.Label) != 3 {
		t.Fatalf("max_rows=3 returned %d rows", len(capped.Rows.Label))
	}
	if capped.TotalRows != len(full.Rows.Label) {
		t.Errorf("TotalRows = %d, want pre-cap %d", capped.TotalRows, len(full.Rows.Label))
	}
	var got int32
	for _, m := range capped.Rows.Members {
		got += m
	}
	if got != totalMembers {
		t.Errorf("capped rows cover %d members, want %d (clusters must merge, not drop)", got, totalMembers)
	}
	last := len(capped.Rows.Label) - 1
	if capped.Rows.Clusters[last] < 2 || !strings.Contains(capped.Rows.Label[last], "other") {
		t.Errorf("overflow row: clusters=%d label=%q", capped.Rows.Clusters[last], capped.Rows.Label[last])
	}
	// Event totals are conserved through the row merge.
	sum := func(events []int64) (n int64) {
		for _, e := range events {
			n += e
		}
		return
	}
	if sum(capped.Rows.Events) != sum(full.Rows.Events) {
		t.Errorf("events: capped %d != full %d", sum(capped.Rows.Events), sum(full.Rows.Events))
	}

	one, err := p.Query(Spec{MaxRows: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Rows.Label) != 1 || one.Rows.Members[0] != totalMembers {
		t.Errorf("max_rows=1: %+v", one.Rows)
	}
}

// TestMarginalsConsistent pins the heatmap against both marginals: row sums
// of Cells equal the per-row event aggregates, column sums equal the
// per-bucket marginals, and both agree on the grand total.
func TestMarginalsConsistent(t *testing.T) {
	p := jacobiPyramid(t)
	for _, sp := range []Spec{{}, {Resolution: 8}, {Resolution: 4, MaxRows: 3}} {
		out, err := p.Query(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]int64, len(out.Buckets.Bucket))
		for ri, cells := range out.Cells {
			var rowSum int64
			for k, e := range cells {
				rowSum += e
				cols[k] += e
			}
			if rowSum != out.Rows.Events[ri] {
				t.Errorf("%+v: row %d cells sum to %d, aggregate says %d", sp, ri, rowSum, out.Rows.Events[ri])
			}
		}
		for k, c := range cols {
			if c != out.Buckets.Events[k] {
				t.Errorf("%+v: bucket %d column sums to %d, marginal says %d", sp, out.Buckets.Bucket[k], c, out.Buckets.Events[k])
			}
		}
		for m := 0; m < NumMetrics; m++ {
			var rows, buckets int64
			for _, v := range out.Rows.MetricSum[m] {
				rows += v
			}
			for _, v := range out.Buckets.MetricSum[m] {
				buckets += v
			}
			if rows != buckets {
				t.Errorf("%+v: metric %s mass differs across marginals: rows %d, buckets %d",
					sp, out.Metrics[m], rows, buckets)
			}
		}
	}
}

func TestEdgeCapping(t *testing.T) {
	p := jacobiPyramid(t)
	full, err := p.Query(Spec{Resolution: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.ClusterEdges == nil || full.BucketEdges == nil {
		t.Fatal("uncapped query returned no edge sets")
	}
	if full.ClusterEdges.Total == 0 || full.ClusterEdges.Total != len(full.ClusterEdges.Src) {
		t.Fatalf("uncapped: %d cluster edges, total %d", len(full.ClusterEdges.Src), full.ClusterEdges.Total)
	}
	// Both granularities carry the same total message weight.
	sumW := func(s *EdgeSet) (n int64) {
		for _, w := range s.Weight {
			n += w
		}
		return
	}
	if sumW(full.ClusterEdges) != sumW(full.BucketEdges) {
		t.Fatalf("edge weight differs across granularities: clusters %d, buckets %d",
			sumW(full.ClusterEdges), sumW(full.BucketEdges))
	}

	n := len(full.ClusterEdges.Src) / 2
	capped, err := p.Query(Spec{Resolution: 16, MaxEdges: n}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.ClusterEdges.Src) != n {
		t.Fatalf("max_edges=%d returned %d cluster edges", n, len(capped.ClusterEdges.Src))
	}
	if capped.ClusterEdges.Total != full.ClusterEdges.Total {
		t.Errorf("Total = %d, want pre-cap %d", capped.ClusterEdges.Total, full.ClusterEdges.Total)
	}
	// The kept edges are the heaviest: no dropped edge outweighs a kept one.
	minKept := capped.ClusterEdges.Weight[0]
	kept := make(map[[2]int32]bool, n)
	for i := range capped.ClusterEdges.Src {
		if w := capped.ClusterEdges.Weight[i]; w < minKept {
			minKept = w
		}
		kept[[2]int32{capped.ClusterEdges.Src[i], capped.ClusterEdges.Dst[i]}] = true
	}
	for i := range full.ClusterEdges.Src {
		k := [2]int32{full.ClusterEdges.Src[i], full.ClusterEdges.Dst[i]}
		if !kept[k] && full.ClusterEdges.Weight[i] > minKept {
			t.Errorf("dropped edge %v (weight %d) outweighs kept minimum %d", k, full.ClusterEdges.Weight[i], minKept)
		}
	}
	none, err := p.Query(Spec{Resolution: 16, NoEdges: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if none.ClusterEdges != nil || none.BucketEdges != nil {
		t.Error("edges=false returned edge sets")
	}
}

func TestWindowSnapping(t *testing.T) {
	p := jacobiPyramid(t)
	out, err := p.Query(Spec{Resolution: 4, Steps: &query.StepRange{From: 5, To: 9}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := out.BucketWidth
	if out.Window.From%w != 0 {
		t.Errorf("window.from %d not on a bucket boundary (width %d)", out.Window.From, w)
	}
	if out.Window.From > 5 || (out.Window.To < 9 && out.Window.To != p.S.MaxStep()) {
		t.Errorf("window %+v does not cover the request 5..9", out.Window)
	}
	for _, b := range out.Buckets.Bucket {
		if b < 5/w || b > 9/w {
			t.Errorf("bucket %d outside the snapped window", b)
		}
	}
	// A window past MaxStep clamps instead of erroring.
	if _, err := p.Query(Spec{Steps: &query.StepRange{From: 1 << 20, To: 1 << 21}}, nil); err != nil {
		t.Errorf("out-of-range window: %v", err)
	}
}

func TestQueryDeterminism(t *testing.T) {
	build := func() []byte {
		s, err := core.Extract(jacobi.MustTrace(jacobi.DefaultConfig()), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		out, err := Build(s, nil).Query(Spec{Resolution: 8, MaxRows: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := build(), build(); string(a) != string(b) {
		t.Error("two identical builds rendered different bytes")
	}
}

func TestDiffOverlay(t *testing.T) {
	opt := core.DefaultOptions()
	sa, err := core.Extract(jacobi.MustTrace(jacobi.DefaultConfig()), opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := jacobi.DefaultConfig()
	cfg.SlowChare = 3 // perturbs one chare's timing, not the chare population
	cfg.Iterations++  // and diverges every timeline's length
	sb, err := core.Extract(jacobi.MustTrace(cfg), opt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := structdiff.Compare(sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("expected a non-empty diff between different iteration counts")
	}
	p := Build(sa, nil)
	out, err := p.Query(Spec{Resolution: 16}, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Diff == nil || out.Diff.Equivalent {
		t.Fatalf("diff overlay missing: %+v", out.Diff)
	}
	if out.Diff.Diverged != len(d.Chares) {
		t.Errorf("diverged_chares = %d, want %d", out.Diff.Diverged, len(d.Chares))
	}
	var located int64
	for _, row := range out.Diff.Rows {
		for _, b := range row.Buckets {
			if b.Bucket < 0 || b.Bucket >= out.NumBuckets {
				t.Errorf("diff bucket %d outside response", b.Bucket)
			}
			located += b.Diverged
		}
	}
	if located == 0 || located > int64(len(d.Chares)) {
		t.Errorf("located %d diverged chares, want in 1..%d", located, len(d.Chares))
	}
	// No overlay requested: no diff in the response.
	plain, err := p.Query(Spec{Resolution: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Diff != nil {
		t.Error("diff present without a diff request")
	}
}

func TestBuildEmptyStructure(t *testing.T) {
	// A trace whose structure has no steps must build a pyramid that
	// serves (empty) queries instead of panicking.
	s, err := core.Extract(trace.NewBuilder(1).MustFinish(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := Build(s, nil)
	out, err := p.Query(Spec{Resolution: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows.Label) != 0 || out.MaxStep != -1 {
		t.Errorf("empty structure: %+v", out)
	}
}
