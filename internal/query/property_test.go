package query

import (
	"context"
	"errors"
	"strings"
	"testing"

	"charmtrace/internal/cli"
	"charmtrace/internal/core"
)

// TestPagingConsistencyAcrossWorkloadsAndParallelism is the acceptance
// property: for every proxy-app trace, at extraction parallelism 1, 2 and
// 4, (a) a filtered query equals the corresponding slice of the full
// result, (b) concatenating all pages of that filtered query reproduces it
// byte-for-byte, and (c) the result bytes are identical at every
// parallelism (the PR1 determinism guarantee carried through the query
// layer).
func TestPagingConsistencyAcrossWorkloadsAndParallelism(t *testing.T) {
	for _, name := range cli.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr, opt, err := cli.Generate(name, cli.Params{})
			if err != nil {
				t.Fatal(err)
			}
			var perPar [][]byte
			for _, par := range []int{1, 2, 4} {
				o := opt
				o.Parallelism = par
				s, err := core.Extract(tr, o)
				if err != nil {
					t.Fatal(err)
				}
				idx := BuildIndex(s)
				perPar = append(perPar, checkWorkload(t, idx, par))
			}
			for i := 1; i < len(perPar); i++ {
				if string(perPar[i]) != string(perPar[0]) {
					t.Fatalf("query results differ between parallelism 1 and %d", []int{1, 2, 4}[i])
				}
			}
		})
	}
}

// checkWorkload runs the filtered/paged consistency checks against one
// index and returns a digest of every full result for the cross-
// parallelism comparison.
func checkWorkload(t *testing.T, idx *Index, par int) []byte {
	t.Helper()
	s := idx.S
	maxStep := s.MaxStep()
	nChares := len(s.Trace.Chares)
	nPhases := s.NumPhases()

	// A mid-trace window plus a scattering of chares and phases; every
	// workload has maxStep >= 0 and at least one chare and phase.
	window := &StepRange{From: maxStep / 4, To: maxStep / 2}
	if window.To < window.From {
		window.To = window.From
	}
	chares := []int32{0, int32(nChares / 2), int32(nChares - 1)}
	phases := []int32{0, int32(nPhases / 2)}

	var all []byte
	for _, tc := range []struct {
		name   string
		spec   Spec
		limits []int
	}{
		{"structure-window", Spec{Select: SelectStructure, Filter: Filter{Steps: window}}, []int{1, 3}},
		{"steps-chares", Spec{Select: SelectSteps, Filter: Filter{Chares: chares, Steps: window}}, []int{5}},
		{"steps-phases", Spec{Select: SelectSteps, Filter: Filter{Phases: phases}}, []int{7}},
		{"metrics-window", Spec{Select: SelectMetrics, Filter: Filter{Steps: window}}, []int{4}},
		{"metrics-grouped", Spec{Select: SelectMetrics, GroupBy: GroupByChare, Filter: Filter{Steps: window}}, []int{3}},
		{"viz-window", Spec{Select: SelectViz, Filter: Filter{Steps: window}}, []int{2}},
	} {
		full := mustRun(t, idx, tc.spec)
		fullJSON := rowsJSON(t, full.Rows.Maps())
		all = append(all, fullJSON...)

		// (a) Filtered results are the matching slice of the unfiltered
		// row list (row identity, not just counts).
		if tc.spec.Select == SelectSteps || tc.spec.Select == SelectMetrics && tc.spec.GroupBy == "" {
			unfiltered := mustRun(t, idx, Spec{Select: tc.spec.Select})
			if got, want := fullJSON, rowsJSON(t, naiveFilter(unfiltered.Rows.Maps(), tc.spec.Filter)); got != want {
				t.Errorf("par=%d %s: filtered result is not the naive slice of the full table", par, tc.name)
			}
		}

		// (b) Page concatenation reproduces the unpaged result exactly.
		for _, limit := range tc.limits {
			spec := tc.spec
			spec.Limit = limit
			pages := []map[string]any{}
			for {
				res := mustRun(t, idx, spec)
				if res.TotalRows != full.TotalRows {
					t.Fatalf("par=%d %s limit=%d: TotalRows drifted between pages", par, tc.name, limit)
				}
				pages = append(pages, res.Rows.Maps()...)
				if res.NextCursor == "" {
					break
				}
				spec.Cursor = res.NextCursor
			}
			if rowsJSON(t, pages) != fullJSON {
				t.Errorf("par=%d %s limit=%d: concatenated pages != unpaged result", par, tc.name, limit)
			}
		}
	}
	return all
}

// naiveFilter reimplements the filter semantics row-by-row over
// materialized rows, independently of the index structures.
func naiveFilter(rows []map[string]any, f Filter) []map[string]any {
	phases := toSet(f.Phases)
	chares := toSet(f.Chares)
	out := []map[string]any{}
	for _, row := range rows {
		if phases != nil && !phases[int32(row["phase"].(int64))] {
			continue
		}
		if chares != nil && !chares[int32(row["chare"].(int64))] {
			continue
		}
		if f.Steps != nil {
			st := int32(row["step"].(int64))
			if st < f.Steps.From || st > f.Steps.To {
				continue
			}
		}
		out = append(out, row)
	}
	return out
}

// TestMalformedSpecsNeverPanic fuzzes the validation surface with a pile
// of hostile specs: every one must come back as a *Error (client error),
// never a panic and never success-with-garbage.
func TestMalformedSpecsNeverPanic(t *testing.T) {
	idx := jacobiIndex(t)
	bad := []string{
		`{}`,
		`{"select":"everything"}`,
		`{"select":"steps","limit":-4}`,
		`{"select":"steps","filter":{"steps":{"from":10,"to":3}}}`,
		`{"select":"steps","filter":{"phases":[1e9]}}`,
		`{"select":"metrics","group_by":"pe"}`,
		`{"select":"metrics","group_by":"phase","aggregates":["p99"]}`,
		`{"select":"viz","fields":["imbalance"]}`,
		`{"select":"steps","cursor":"bm90IGEgY3Vyc29y"}`,
		`{"select":"steps","unknown_knob":true}`,
		`[1,2,3]`,
		`"steps"`,
	}
	for _, body := range bad {
		spec, err := ParseSpec(strings.NewReader(body))
		if err == nil {
			if _, err = Run(context.Background(), idx, spec); err == nil {
				t.Errorf("hostile spec %s was accepted end-to-end", body)
				continue
			}
		}
		var qe *Error
		if !errors.As(err, &qe) {
			t.Errorf("hostile spec %s produced %T (%v), want *query.Error", body, err, err)
		}
	}
}
