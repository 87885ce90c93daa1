package query

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
	"charmtrace/internal/viz"
)

// Maps unpacks a page into one map per row, integers as int64 — what the
// naive oracles in this package's tests filter and compare.
func (r Rows) Maps() []map[string]any {
	out := make([]map[string]any, r.n)
	for i := range out {
		row := make(map[string]any, len(r.cols))
		for _, c := range r.cols {
			switch vals := c.vals.(type) {
			case []int64:
				row[c.name] = vals[i]
			case []float64:
				row[c.name] = vals[i]
			case []string:
				row[c.name] = vals[i]
			case []bool:
				row[c.name] = vals[i]
			}
		}
		out[i] = row
	}
	return out
}

// refResult and refRun are the executor as it stood while rows were maps:
// every matching row materialised as a map[string]any, then paginated, then
// projected, and rendered by encoding/json's reflection (which sorts the
// keys). It shares spec validation, bounds checks, cursors and the filter
// helpers with run — the row construction and its rendering are what the
// columnar pages replaced, and what this holds them to.
type refResult struct {
	Select     string           `json:"select"`
	TotalRows  int              `json:"total_rows"`
	Window     *StepRange       `json:"window,omitempty"`
	Rows       []map[string]any `json:"rows"`
	NextCursor string           `json:"next_cursor,omitempty"`
}

func refRun(ctx context.Context, idx *Index, spec Spec) (*refResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := checkBounds(idx, &spec.Filter); err != nil {
		return nil, err
	}
	offset := 0
	if spec.Cursor != "" {
		var err error
		if offset, err = decodeCursor(spec.Cursor, spec); err != nil {
			return nil, err
		}
	}
	res := &refResult{Select: spec.Select}
	var err error
	switch spec.Select {
	case SelectStructure:
		refStructure(idx, spec, res)
	case SelectSteps, SelectMetrics:
		err = refEvents(ctx, idx, spec, res)
	case SelectViz:
		refViz(idx, spec, res)
	}
	if err != nil {
		return nil, err
	}
	res.TotalRows = len(res.Rows)
	if offset > len(res.Rows) {
		offset = len(res.Rows)
	}
	rows := res.Rows[offset:]
	if spec.Limit > 0 && len(rows) > spec.Limit {
		rows = rows[:spec.Limit]
		res.NextCursor = encodeCursor(offset+spec.Limit, spec)
	}
	res.Rows = rows
	if len(spec.Fields) > 0 {
		for i, row := range res.Rows {
			out := make(map[string]any, len(spec.Fields))
			for _, f := range spec.Fields {
				if v, ok := row[f]; ok {
					out[f] = v
				}
			}
			res.Rows[i] = out
		}
	}
	if res.Rows == nil {
		res.Rows = []map[string]any{}
	}
	return res, nil
}

func refStructure(idx *Index, spec Spec, res *refResult) {
	s := idx.S
	phases := toSet(spec.Filter.Phases)
	chares := toSet(spec.Filter.Chares)
	for _, pi := range idx.PhaseOrder {
		p := &s.Phases[pi]
		if phases != nil && !phases[pi] {
			continue
		}
		lo, hi := p.GlobalSpan()
		if r := spec.Filter.Steps; r != nil && (hi < r.From || lo > r.To) {
			continue
		}
		if chares != nil && !phaseHasAnyChare(p.Chares, chares) {
			continue
		}
		res.Rows = append(res.Rows, map[string]any{
			"id":             p.ID,
			"runtime":        p.Runtime,
			"leap":           p.Leap,
			"offset":         p.Offset,
			"max_local_step": p.MaxLocalStep,
			"first_step":     lo,
			"last_step":      hi,
			"chares":         len(p.Chares),
			"events":         len(p.Events),
		})
	}
}

func refEvents(ctx context.Context, idx *Index, spec Spec, res *refResult) error {
	events, err := filteredEvents(ctx, idx, spec.Filter)
	if err != nil {
		return err
	}
	if spec.Select == SelectMetrics && spec.GroupBy != "" {
		refGrouped(idx, spec, events, res)
		return nil
	}
	tab := idx.Tab
	for _, e := range events {
		chare := tab.Chare[e]
		if spec.Select == SelectSteps {
			res.Rows = append(res.Rows, map[string]any{
				"event":      int32(e),
				"chare":      int32(chare),
				"chare_name": tab.Name[chare],
				"kind":       tab.Kind[e].String(),
				"phase":      idx.S.PhaseOf[e],
				"local_step": idx.S.LocalStep[e],
				"step":       idx.S.Step[e],
				"pe":         int32(tab.PE[e]),
				"time":       int64(tab.Time[e]),
			})
			continue
		}
		vals := idx.metricsOf(e)
		row := map[string]any{
			"event": int32(e),
			"chare": int32(chare),
			"phase": idx.S.PhaseOf[e],
			"step":  idx.S.Step[e],
		}
		for m, name := range metricNames {
			row[name] = int64(vals[m])
		}
		res.Rows = append(res.Rows, row)
	}
	return nil
}

// refGrouped always folds the filtered events (the reference has no use
// for the precomputed rollups, which makes it an oracle for them too).
func refGrouped(idx *Index, spec Spec, events []trace.EventID, res *refResult) {
	n := len(idx.S.Phases)
	if spec.GroupBy == GroupByChare {
		n = idx.Tab.NumChares()
	}
	rollups := make([]Rollup, n)
	for _, e := range events {
		key := idx.S.PhaseOf[e]
		if spec.GroupBy == GroupByChare {
			key = int32(idx.Tab.Chare[e])
		}
		if key >= 0 {
			rollups[key].observe(idx.metricsOf(e))
		}
	}
	for key, r := range rollups {
		if r.Events == 0 {
			continue
		}
		row := map[string]any{spec.GroupBy: int32(key)}
		if spec.GroupBy == GroupByChare {
			row["chare_name"] = idx.Tab.Name[key]
		}
		for _, agg := range spec.aggsSelected() {
			if agg == "count" {
				row["count"] = r.Events
				continue
			}
			for m, name := range metricNames {
				switch agg {
				case "sum":
					row[name+"_sum"] = r.Sum[m]
				case "mean":
					row[name+"_mean"] = float64(r.Sum[m]) / float64(r.Events)
				case "max":
					row[name+"_max"] = r.Max[m]
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
}

func refViz(idx *Index, spec Spec, res *refResult) {
	s := idx.S
	from, to := int32(0), s.MaxStep()
	if r := spec.Filter.Steps; r != nil {
		from = r.From
		if r.To < to {
			to = r.To
		}
	}
	if to < from {
		to = from - 1
	}
	res.Window = &StepRange{From: from, To: to}
	phases := toSet(spec.Filter.Phases)
	type group struct {
		rep      trace.ChareID
		members  int
		runtime  bool
		timeline string
	}
	var order []string
	groups := make(map[string]*group)
	for _, c := range filteredChares(idx, spec.Filter) {
		row := bytes.Repeat([]byte{'.'}, int(to-from)+1)
		lo, hi := idx.chareStepWindow(c, from, to)
		for _, e := range idx.ChareEvents[c][lo:hi] {
			if phases != nil && !phases[s.PhaseOf[e]] {
				continue
			}
			row[s.Step[e]-from] = viz.Symbol(s.PhaseOf[e])
		}
		rt := idx.Tab.Runtime[c]
		key := fmt.Sprintf("%t %s", rt, row)
		g, ok := groups[key]
		if !ok {
			g = &group{rep: c, runtime: rt, timeline: string(row)}
			groups[key] = g
			order = append(order, key)
		}
		g.members++
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := groups[order[i]], groups[order[j]]
		if a.runtime != b.runtime {
			return !a.runtime
		}
		return a.rep < b.rep
	})
	for _, key := range order {
		g := groups[key]
		label := idx.Tab.Name[g.rep]
		if g.members > 1 {
			label = fmt.Sprintf("%s x%d", label, g.members)
		}
		res.Rows = append(res.Rows, map[string]any{
			"label":          label,
			"representative": int32(g.rep),
			"members":        g.members,
			"runtime":        g.runtime,
			"timeline":       g.timeline,
		})
	}
}

// refSpecs is the grid the differential walks for one index: every select,
// filtered and not, grouped by both keys with every aggregate subset shape,
// projected, paged (each page followed to the last cursor), past the end.
func refSpecs(idx *Index) []Spec {
	maxStep := idx.S.MaxStep()
	win := &StepRange{From: maxStep / 4, To: maxStep/2 + 1}
	past := &StepRange{From: maxStep + 10, To: maxStep + 20}
	last := int32(idx.Tab.NumChares() - 1)
	some := Filter{Chares: []int32{last, 0, last}, Steps: win}
	return []Spec{
		{Select: SelectStructure},
		{Select: SelectStructure, Filter: Filter{Steps: win}, Limit: 2},
		{Select: SelectStructure, Filter: Filter{Chares: []int32{0}}, Fields: []string{"id", "runtime", "last_step"}},
		{Select: SelectSteps},
		{Select: SelectSteps, Filter: some, Limit: 5},
		{Select: SelectSteps, Filter: Filter{Phases: []int32{0}}, Fields: []string{"time", "chare_name", "event", "time"}, Limit: 11},
		{Select: SelectSteps, Filter: Filter{Steps: past}},
		{Select: SelectMetrics, Filter: Filter{Steps: win}, Limit: 9},
		{Select: SelectMetrics, Fields: []string{"imbalance", "event"}, Limit: 1000},
		{Select: SelectMetrics, GroupBy: GroupByPhase},
		{Select: SelectMetrics, GroupBy: GroupByChare, Limit: 3},
		{Select: SelectMetrics, GroupBy: GroupByChare, Filter: some, Aggregates: []string{"max", "count"}},
		{Select: SelectMetrics, GroupBy: GroupByPhase, Aggregates: []string{"mean"}, Fields: []string{"phase", "sub_dur_mean", "imbalance_mean"}},
		{Select: SelectMetrics, GroupBy: GroupByChare, Filter: Filter{Steps: past}},
		{Select: SelectViz},
		{Select: SelectViz, Filter: some, Limit: 1},
		{Select: SelectViz, Filter: Filter{Steps: win, Phases: []int32{0}}, Fields: []string{"timeline", "members"}},
		{Select: SelectViz, Filter: Filter{Steps: past}},
	}
}

// TestColumnarPagesMatchMapRows holds every page of every refSpecs query,
// on every workload, to the map-row executor: the whole Result under
// json.MarshalIndent — the call bench/ and library callers make — byte for
// byte, cursors included; and the page's Maps() to the reference's maps.
func TestColumnarPagesMatchMapRows(t *testing.T) {
	for _, name := range cli.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tr, opt, err := cli.Generate(name, cli.Params{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.Extract(tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			idx := BuildIndex(s)
			for _, spec := range refSpecs(idx) {
				for page := 0; ; page++ {
					got := mustRun(t, idx, spec)
					want, err := refRun(context.Background(), idx, spec)
					if err != nil {
						t.Fatalf("reference: %+v: %v", spec, err)
					}
					g, err := json.MarshalIndent(got, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					w, _ := json.MarshalIndent(want, "", "  ")
					if !bytes.Equal(g, w) {
						t.Fatalf("%+v page %d: columnar result differs from map rows\n got %.400s\nwant %.400s", spec, page, g, w)
					}
					if rowsJSON(t, got.Rows.Maps()) != rowsJSON(t, want.Rows) {
						t.Fatalf("%+v page %d: Maps() differs from the reference rows", spec, page)
					}
					if got.Rows.Len() != len(want.Rows) {
						t.Fatalf("%+v page %d: Len %d, want %d", spec, page, got.Rows.Len(), len(want.Rows))
					}
					if got.NextCursor == "" {
						break
					}
					spec.Cursor = got.NextCursor
				}
			}
		})
	}
}
