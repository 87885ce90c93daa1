package query

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/core"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
)

func jacobiIndex(t *testing.T) *Index {
	t.Helper()
	tr := jacobi.MustTrace(jacobi.DefaultConfig())
	s, err := core.Extract(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return BuildIndex(s)
}

func mustRun(t *testing.T, idx *Index, spec Spec) *Result {
	t.Helper()
	res, err := Run(context.Background(), idx, spec)
	if err != nil {
		t.Fatalf("Run(%+v): %v", spec, err)
	}
	return res
}

func rowsJSON(t *testing.T, rows []map[string]any) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestIndexInvariants(t *testing.T) {
	idx := jacobiIndex(t)
	s := idx.S
	if len(idx.EventRows) != len(s.Trace.Events) {
		t.Fatalf("EventRows %d != events %d", len(idx.EventRows), len(s.Trace.Events))
	}
	for i := 1; i < len(idx.EventRows); i++ {
		a, b := idx.EventRows[i-1], idx.EventRows[i]
		if s.Step[a] > s.Step[b] {
			t.Fatalf("EventRows not sorted by step at %d", i)
		}
		if s.Step[a] == s.Step[b] && s.Trace.Events[a].Chare > s.Trace.Events[b].Chare {
			t.Fatalf("EventRows tie not broken by chare at %d", i)
		}
		if s.Step[a] == s.Step[b] && s.Trace.Events[a].Chare == s.Trace.Events[b].Chare && a >= b {
			t.Fatalf("EventRows (step, chare) tie not broken by event ID at %d", i)
		}
	}
	// ChareEvents partition the event table.
	n := 0
	for c, evs := range idx.ChareEvents {
		n += len(evs)
		for i, e := range evs {
			if s.Trace.Events[e].Chare != trace.ChareID(c) {
				t.Fatalf("chare %d list holds event of chare %d", c, s.Trace.Events[e].Chare)
			}
			if i > 0 && (s.Step[evs[i-1]] > s.Step[e] || s.Step[evs[i-1]] == s.Step[e] && evs[i-1] >= e) {
				t.Fatalf("chare %d list not in EventRows order at %d", c, i)
			}
		}
	}
	if n != len(s.Trace.Events) {
		t.Fatalf("ChareEvents cover %d events, want %d", n, len(s.Trace.Events))
	}
	// Rollup totals equal a direct sum.
	var want, got int64
	for e := range s.Trace.Events {
		want += int64(idx.Report.IdleExperienced[e])
	}
	for _, r := range idx.ChareRollup {
		got += r.Sum[mIdle]
	}
	if got != want {
		t.Fatalf("chare rollup idle sum %d, want %d", got, want)
	}
	if idx.Bytes() <= 0 {
		t.Fatal("index reports no memory")
	}
}

func TestStructureRowsOrderedAndFiltered(t *testing.T) {
	idx := jacobiIndex(t)
	full := mustRun(t, idx, Spec{Select: SelectStructure})
	if full.TotalRows != idx.S.NumPhases() {
		t.Fatalf("total %d, want %d phases", full.TotalRows, idx.S.NumPhases())
	}
	prev := int32(-1)
	for _, row := range full.Rows.Maps() {
		off := int32(row["offset"].(int64))
		if off < prev {
			t.Fatal("structure rows not ordered by offset")
		}
		prev = off
	}
	// A step window keeps exactly the phases intersecting it.
	r := StepRange{From: 3, To: 9}
	win := mustRun(t, idx, Spec{Select: SelectStructure, Filter: Filter{Steps: &r}})
	want := 0
	for i := range idx.S.Phases {
		lo, hi := idx.S.Phases[i].GlobalSpan()
		if hi >= r.From && lo <= r.To {
			want++
		}
	}
	if win.TotalRows != want {
		t.Fatalf("windowed phases %d, want %d", win.TotalRows, want)
	}
	// A chare filter keeps phases the chare participates in.
	one := mustRun(t, idx, Spec{Select: SelectStructure, Filter: Filter{Chares: []int32{0}}})
	for _, row := range one.Rows.Maps() {
		id := int32(row["id"].(int64))
		found := false
		for _, c := range idx.S.Phases[id].Chares {
			if c == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("phase %d does not contain chare 0", id)
		}
	}
}

func TestStepsFilterMatchesNaive(t *testing.T) {
	idx := jacobiIndex(t)
	s := idx.S
	r := StepRange{From: 9, To: 30}
	filter := Filter{Chares: []int32{1, 3, 5}, Steps: &r}
	got := mustRun(t, idx, Spec{Select: SelectSteps, Filter: filter})

	// Naive scan over the full table with the same ordering.
	full := mustRun(t, idx, Spec{Select: SelectSteps})
	want := []map[string]any{}
	keep := map[int32]bool{1: true, 3: true, 5: true}
	for _, row := range full.Rows.Maps() {
		if keep[int32(row["chare"].(int64))] && int32(row["step"].(int64)) >= r.From && int32(row["step"].(int64)) <= r.To {
			want = append(want, row)
		}
	}
	if len(want) == 0 {
		t.Fatal("test window selects nothing; widen it")
	}
	if rowsJSON(t, got.Rows.Maps()) != rowsJSON(t, want) {
		t.Fatal("filtered steps differ from the naive slice of the full result")
	}
	if got.TotalRows != len(want) {
		t.Fatalf("TotalRows %d, want %d", got.TotalRows, len(want))
	}
	_ = s
}

func TestGroupedRollupMatchesScan(t *testing.T) {
	idx := jacobiIndex(t)
	for _, groupBy := range []string{GroupByPhase, GroupByChare} {
		// The unfiltered path reads precomputed rollups; an all-pass step
		// filter forces the scan path. Both must agree byte-for-byte.
		rollup := mustRun(t, idx, Spec{Select: SelectMetrics, GroupBy: groupBy})
		r := StepRange{From: 0, To: idx.S.MaxStep()}
		scan := mustRun(t, idx, Spec{Select: SelectMetrics, GroupBy: groupBy, Filter: Filter{Steps: &r}})
		if rowsJSON(t, rollup.Rows.Maps()) != rowsJSON(t, scan.Rows.Maps()) {
			t.Fatalf("group_by=%s: rollup path and scan path disagree", groupBy)
		}
	}
	// count equals the per-phase event count.
	res := mustRun(t, idx, Spec{Select: SelectMetrics, GroupBy: GroupByPhase, Aggregates: []string{"count"}})
	for _, row := range res.Rows.Maps() {
		p := int32(row[GroupByPhase].(int64))
		if int64(len(idx.S.Phases[p].Events)) != row["count"].(int64) {
			t.Fatalf("phase %d count %v, want %d", p, row["count"], len(idx.S.Phases[p].Events))
		}
		if _, ok := row["idle_experienced_sum"]; ok {
			t.Fatal("aggregates=[count] leaked a sum column")
		}
	}
}

func TestMeanAggregate(t *testing.T) {
	idx := jacobiIndex(t)
	res := mustRun(t, idx, Spec{Select: SelectMetrics, GroupBy: GroupByChare, Aggregates: []string{"sum", "mean", "count"}})
	for _, row := range res.Rows.Maps() {
		sum := row["sub_dur_sum"].(int64)
		count := row["count"].(int64)
		if mean := row["sub_dur_mean"].(float64); mean != float64(sum)/float64(count) {
			t.Fatalf("mean %v != %d/%d", mean, sum, count)
		}
	}
}

func TestPaginationConcatenatesExactly(t *testing.T) {
	idx := jacobiIndex(t)
	base := Spec{Select: SelectSteps, Limit: 7}
	full := mustRun(t, idx, Spec{Select: SelectSteps})

	var pages []map[string]any
	spec := base
	for page := 0; ; page++ {
		res := mustRun(t, idx, spec)
		if res.TotalRows != full.TotalRows {
			t.Fatalf("page %d TotalRows %d, want %d", page, res.TotalRows, full.TotalRows)
		}
		if res.Rows.Len() > base.Limit {
			t.Fatalf("page %d has %d rows > limit %d", page, res.Rows.Len(), base.Limit)
		}
		pages = append(pages, res.Rows.Maps()...)
		if res.NextCursor == "" {
			break
		}
		spec.Cursor = res.NextCursor
	}
	if rowsJSON(t, pages) != rowsJSON(t, full.Rows.Maps()) {
		t.Fatal("concatenated pages differ from the unpaged result")
	}
}

func TestCursorBoundToSpec(t *testing.T) {
	idx := jacobiIndex(t)
	res := mustRun(t, idx, Spec{Select: SelectSteps, Limit: 5})
	if res.NextCursor == "" {
		t.Fatal("expected a next cursor")
	}
	// Same cursor, different filter: rejected with a field-level error.
	_, err := Run(context.Background(), idx, Spec{
		Select: SelectSteps, Limit: 5, Cursor: res.NextCursor,
		Filter: Filter{Chares: []int32{0}},
	})
	var qe *Error
	if !errors.As(err, &qe) || qe.Field != "cursor" {
		t.Fatalf("cursor reuse error = %v, want *Error{Field: cursor}", err)
	}
	// Garbage cursors are client errors too.
	if _, err := Run(context.Background(), idx, Spec{Select: SelectSteps, Cursor: "!!!"}); err == nil {
		t.Fatal("garbage cursor accepted")
	}
}

func TestProjection(t *testing.T) {
	idx := jacobiIndex(t)
	res := mustRun(t, idx, Spec{Select: SelectSteps, Fields: []string{"step", "chare"}, Limit: 3})
	for _, row := range res.Rows.Maps() {
		if len(row) != 2 {
			t.Fatalf("projected row has %d fields: %v", len(row), row)
		}
	}
	// Unknown field: a validation error naming the field.
	_, err := Run(context.Background(), idx, Spec{Select: SelectSteps, Fields: []string{"nope"}})
	var qe *Error
	if !errors.As(err, &qe) || qe.Field != "fields" {
		t.Fatalf("unknown field error = %v", err)
	}
	if !strings.Contains(qe.Msg, "chare_name") {
		t.Fatalf("error does not list valid fields: %s", qe.Msg)
	}
}

func TestValidationFieldErrors(t *testing.T) {
	cases := []struct {
		spec  Spec
		field string
	}{
		{Spec{}, "select"},
		{Spec{Select: "nope"}, "select"},
		{Spec{Select: SelectSteps, GroupBy: GroupByPhase}, "group_by"},
		{Spec{Select: SelectMetrics, GroupBy: "pe"}, "group_by"},
		{Spec{Select: SelectMetrics, Aggregates: []string{"sum"}}, "aggregates"},
		{Spec{Select: SelectMetrics, GroupBy: GroupByPhase, Aggregates: []string{"median"}}, "aggregates"},
		{Spec{Select: SelectSteps, Limit: -1}, "limit"},
		{Spec{Select: SelectSteps, Filter: Filter{Steps: &StepRange{From: 9, To: 2}}}, "filter.steps"},
		{Spec{Select: SelectSteps, Filter: Filter{Steps: &StepRange{From: -1, To: 2}}}, "filter.steps.from"},
		{Spec{Select: SelectSteps, Filter: Filter{Phases: []int32{-3}}}, "filter.phases"},
		{Spec{Select: SelectSteps, Filter: Filter{Chares: []int32{-1}}}, "filter.chares"},
		{Spec{Select: SelectViz, Fields: []string{"step"}}, "fields"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		var qe *Error
		if !errors.As(err, &qe) {
			t.Errorf("Validate(%+v) = %v, want *Error", tc.spec, err)
			continue
		}
		if qe.Field != tc.field {
			t.Errorf("Validate(%+v) blamed %q, want %q", tc.spec, qe.Field, tc.field)
		}
	}
}

func TestExecBoundsErrors(t *testing.T) {
	idx := jacobiIndex(t)
	_, err := Run(context.Background(), idx, Spec{Select: SelectSteps, Filter: Filter{Phases: []int32{9999}}})
	var qe *Error
	if !errors.As(err, &qe) || qe.Field != "filter.phases" {
		t.Fatalf("out-of-range phase error = %v", err)
	}
	_, err = Run(context.Background(), idx, Spec{Select: SelectSteps, Filter: Filter{Chares: []int32{9999}}})
	if !errors.As(err, &qe) || qe.Field != "filter.chares" {
		t.Fatalf("out-of-range chare error = %v", err)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec(strings.NewReader(`{"select":"steps","filters":{}}`))
	var qe *Error
	if !errors.As(err, &qe) {
		t.Fatalf("unknown field accepted: %v", err)
	}
	spec, err := ParseSpec(strings.NewReader(`{"select":"steps","filter":{"steps":{"from":1,"to":4}},"limit":10}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Filter.Steps == nil || spec.Filter.Steps.To != 4 {
		t.Fatalf("parsed spec lost the filter: %+v", spec)
	}
}

func TestVizClustersWindow(t *testing.T) {
	idx := jacobiIndex(t)
	r := StepRange{From: 0, To: 5}
	res := mustRun(t, idx, Spec{Select: SelectViz, Filter: Filter{Steps: &r}})
	if res.Window == nil || res.Window.From != 0 || res.Window.To != 5 {
		t.Fatalf("window = %+v", res.Window)
	}
	members := 0
	sawRuntime := false
	for _, row := range res.Rows.Maps() {
		members += int(row["members"].(int64))
		tl := row["timeline"].(string)
		if len(tl) != 6 {
			t.Fatalf("timeline %q length %d, want 6", tl, len(tl))
		}
		if row["runtime"].(bool) {
			sawRuntime = true
		} else if sawRuntime {
			t.Fatal("application cluster below a runtime cluster")
		}
	}
	if members != len(idx.S.Trace.Chares) {
		t.Fatalf("cluster members sum %d, want %d chares", members, len(idx.S.Trace.Chares))
	}
	// Identical interior chares must have collapsed.
	if res.Rows.Len() >= len(idx.S.Trace.Chares) {
		t.Fatalf("no clustering: %d rows for %d chares", res.Rows.Len(), len(idx.S.Trace.Chares))
	}
}

func TestCancelledContext(t *testing.T) {
	idx := jacobiIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, idx, Spec{Select: SelectSteps}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
}

func TestEngineTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewEngine(reg)
	tr := jacobi.MustTrace(jacobi.DefaultConfig())
	s, err := core.Extract(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	idx := e.Index(s)
	res, err := e.Run(context.Background(), idx, Spec{Select: SelectStructure})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["query.index_builds"] != 1 {
		t.Errorf("index_builds = %d", snap.Counters["query.index_builds"])
	}
	if snap.Counters["query.queries"] != 1 {
		t.Errorf("queries = %d", snap.Counters["query.queries"])
	}
	if snap.Counters["query.rows_returned"] != int64(res.Rows.Len()) {
		t.Errorf("rows_returned = %d, want %d", snap.Counters["query.rows_returned"], res.Rows.Len())
	}
}

func TestAggsSelectedNormalizesOrder(t *testing.T) {
	s := Spec{Aggregates: []string{"max", "count"}}
	got := s.aggsSelected()
	if !sort.StringsAreSorted([]string{"count", "max"}) || len(got) != 2 || got[0] != "count" || got[1] != "max" {
		t.Fatalf("aggsSelected = %v", got)
	}
}
