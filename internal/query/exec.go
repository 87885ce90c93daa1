package query

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"charmtrace/internal/core"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
	"charmtrace/internal/viz"
)

// Result is one executed query page. It renders — through encoding/json or
// RenderFields — with each row's columns in name order, projected or not,
// which keeps responses deterministic: the property the paging tests pin
// byte-for-byte.
type Result struct {
	Select string `json:"select"`
	// TotalRows counts every row matching the filter, across all pages.
	TotalRows int `json:"total_rows"`
	// Window is the effective step window (set for select=viz, where the
	// timelines are meaningless without it).
	Window *StepRange `json:"window,omitempty"`
	// Rows is this page's slice of the filtered row list.
	Rows Rows `json:"rows"`
	// NextCursor resumes after the last row of this page; empty on the
	// final page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// Engine executes specs against indexes, recording telemetry when built
// over a registry. The zero-value-free constructor keeps nil-safety out of
// the hot path; Engine is safe for concurrent use.
type Engine struct {
	queries    *telemetry.Counter
	rows       *telemetry.Counter
	indexBuild *telemetry.Counter
	execMS     *telemetry.Histogram
	buildMS    *telemetry.Histogram
}

// NewEngine builds an engine; reg nil uses a private registry.
func NewEngine(reg *telemetry.Registry) *Engine {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Engine{
		queries:    reg.Counter("query.queries"),
		rows:       reg.Counter("query.rows_returned"),
		indexBuild: reg.Counter("query.index_builds"),
		execMS:     reg.Histogram("query.exec_ms"),
		buildMS:    reg.Histogram("query.index_build_ms"),
	}
}

// ctxCheckEvery bounds cancellation latency: the executor polls the
// context every this many rows during scans.
const ctxCheckEvery = 8192

// Run validates spec bounds against the index's structure, compiles the
// plan and executes one page. Errors are either *Error (invalid spec or
// cursor, HTTP 400) or the context's error (cancellation/timeout).
func (e *Engine) Run(ctx context.Context, idx *Index, spec Spec) (*Result, error) {
	start := time.Now()
	res, err := run(ctx, idx, spec)
	if err != nil {
		return nil, err
	}
	e.queries.Add(1)
	e.rows.Add(int64(res.Rows.Len()))
	e.execMS.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	return res, nil
}

// Index builds an index through the engine, recording build count and
// latency (the cold half of the cold-vs-indexed benchmark).
func (e *Engine) Index(s *core.Structure) *Index {
	start := time.Now()
	idx := BuildIndex(s)
	e.indexBuild.Add(1)
	e.buildMS.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	return idx
}

// Run executes a spec against an index without telemetry.
func Run(ctx context.Context, idx *Index, spec Spec) (*Result, error) {
	return run(ctx, idx, spec)
}

func run(ctx context.Context, idx *Index, spec Spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
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

	res := &Result{Select: spec.Select}
	var err error
	switch spec.Select {
	case SelectStructure:
		err = runStructure(ctx, idx, spec, offset, res)
	case SelectSteps, SelectMetrics:
		err = runEvents(ctx, idx, spec, offset, res)
	case SelectViz:
		err = runViz(ctx, idx, spec, offset, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// checkBounds validates filter references against the concrete structure,
// so out-of-range ids are client errors, never panics.
func checkBounds(idx *Index, f *Filter) error {
	for _, p := range f.Phases {
		if int(p) >= len(idx.S.Phases) {
			return specErrf("filter.phases", "phase %d out of range (structure has %d phases)", p, len(idx.S.Phases))
		}
	}
	for _, c := range f.Chares {
		if int(c) >= idx.Tab.NumChares() {
			return specErrf("filter.chares", "chare %d out of range (trace has %d chares)", c, idx.Tab.NumChares())
		}
	}
	return nil
}

// paginate records how many rows the filter matched, slices their ordered
// id list to the page [offset, offset+limit), mints the next cursor, and
// returns the page's ids with the builder that fills res.Rows for them.
func paginate[T any](res *Result, spec Spec, offset int, ids []T) ([]T, *page) {
	res.TotalRows = len(ids)
	ids = ids[min(offset, len(ids)):]
	if spec.Limit > 0 && len(ids) > spec.Limit {
		ids = ids[:spec.Limit]
		res.NextCursor = encodeCursor(offset+spec.Limit, spec)
	}
	res.Rows.n = len(ids)
	return ids, &page{&res.Rows, spec.Fields}
}

// ---- cursors ----------------------------------------------------------

// cursorVersion tags the cursor wire format.
const cursorVersion = "cq1"

// specHash binds a cursor to everything but the cursor itself, so a
// cursor replayed under a different select/filter/limit is rejected
// instead of slicing the wrong row list.
func specHash(spec Spec) string {
	sum := sha256.Sum256([]byte(spec.canonical()))
	return hex.EncodeToString(sum[:8])
}

func encodeCursor(offset int, spec Spec) string {
	raw := fmt.Sprintf("%s %s %d", cursorVersion, specHash(spec), offset)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

func decodeCursor(cursor string, spec Spec) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil {
		return 0, specErrf("cursor", "not a valid cursor")
	}
	parts := strings.Split(string(raw), " ")
	if len(parts) != 3 || parts[0] != cursorVersion {
		return 0, specErrf("cursor", "not a valid cursor")
	}
	if parts[1] != specHash(spec) {
		return 0, specErrf("cursor", "cursor belongs to a different query spec")
	}
	// Only the one spelling encodeCursor mints is a cursor: no sign, no
	// leading zeros, no padding or stray bits in the base64.
	offset, err := strconv.Atoi(parts[2])
	if err != nil || offset < 0 || encodeCursor(offset, spec) != cursor {
		return 0, specErrf("cursor", "not a valid cursor")
	}
	return offset, nil
}

// ---- filtering helpers ------------------------------------------------

type idSet map[int32]bool

func toSet(ids []int32) idSet {
	if len(ids) == 0 {
		return nil
	}
	s := make(idSet, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// filteredEvents resolves the filter to the ordered event-row list —
// the shared row source of select=steps and select=metrics. With a chare
// filter it touches only the selected chares' (step-sliced) lists; with
// only a step filter it binary-searches the global table; rows come back
// in the canonical (step, chare, event) order either way.
func filteredEvents(ctx context.Context, idx *Index, f Filter) ([]trace.EventID, error) {
	from, to := int32(0), int32(1)<<30
	if f.Steps != nil {
		from, to = f.Steps.From, f.Steps.To
	}
	phases := toSet(f.Phases)
	keep := func(e trace.EventID) bool {
		return phases == nil || phases[idx.S.PhaseOf[e]]
	}

	var out []trace.EventID
	n := 0
	if len(f.Chares) > 0 {
		chares := append([]int32(nil), f.Chares...)
		sort.Slice(chares, func(i, j int) bool { return chares[i] < chares[j] })
		for i, c := range chares {
			if i > 0 && chares[i-1] == c {
				continue // duplicate chare in the filter
			}
			lo, hi := idx.chareStepWindow(trace.ChareID(c), from, to)
			for _, e := range idx.ChareEvents[c][lo:hi] {
				if n++; n%ctxCheckEvery == 0 && ctx.Err() != nil {
					return nil, ctx.Err()
				}
				if keep(e) {
					out = append(out, e)
				}
			}
		}
		// Per-chare lists are each ordered; restore the global
		// (step, chare, event) order across them.
		s, chare := idx.S, idx.Tab.Chare
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if s.Step[a] != s.Step[b] {
				return s.Step[a] < s.Step[b]
			}
			if chare[a] != chare[b] {
				return chare[a] < chare[b]
			}
			return a < b
		})
		return out, nil
	}

	lo, hi := 0, len(idx.EventRows)
	if f.Steps != nil {
		lo, hi = idx.stepWindow(from, to)
	}
	if phases == nil {
		return idx.EventRows[lo:hi], nil
	}
	for _, e := range idx.EventRows[lo:hi] {
		if n++; n%ctxCheckEvery == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if keep(e) {
			out = append(out, e)
		}
	}
	return out, nil
}

// filteredChares returns the chare IDs the filter admits, ascending.
func filteredChares(idx *Index, f Filter) []trace.ChareID {
	var out []trace.ChareID
	if len(f.Chares) > 0 {
		ids := append([]int32(nil), f.Chares...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for i, c := range ids {
			if i > 0 && ids[i-1] == c {
				continue
			}
			out = append(out, trace.ChareID(c))
		}
		return out
	}
	for c := range idx.Tab.Name {
		out = append(out, trace.ChareID(c))
	}
	return out
}

// ---- select=structure -------------------------------------------------

func runStructure(ctx context.Context, idx *Index, spec Spec, offset int, res *Result) error {
	s := idx.S
	phases := toSet(spec.Filter.Phases)
	chares := toSet(spec.Filter.Chares)
	var matched []int32
	for _, pi := range idx.PhaseOrder {
		if ctx.Err() != nil {
			return ctx.Err()
		}
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
		matched = append(matched, pi)
	}
	ids, pg := paginate(res, spec, offset, matched)
	phase := func(i int) *core.Phase { return &s.Phases[ids[i]] }
	add(pg, "id", func(i int) int64 { return int64(phase(i).ID) })
	add(pg, "runtime", func(i int) bool { return phase(i).Runtime })
	add(pg, "leap", func(i int) int64 { return int64(phase(i).Leap) })
	add(pg, "offset", func(i int) int64 { return int64(phase(i).Offset) })
	add(pg, "max_local_step", func(i int) int64 { return int64(phase(i).MaxLocalStep) })
	add(pg, "first_step", func(i int) int64 { lo, _ := phase(i).GlobalSpan(); return int64(lo) })
	add(pg, "last_step", func(i int) int64 { _, hi := phase(i).GlobalSpan(); return int64(hi) })
	add(pg, "chares", func(i int) int64 { return int64(len(phase(i).Chares)) })
	add(pg, "events", func(i int) int64 { return int64(len(phase(i).Events)) })
	return nil
}

// phaseHasAnyChare reports whether the sorted phase chare list intersects
// the filter set.
func phaseHasAnyChare(sorted []trace.ChareID, want idSet) bool {
	if len(sorted) < len(want) {
		for _, c := range sorted {
			if want[int32(c)] {
				return true
			}
		}
		return false
	}
	for c := range want {
		i := sort.Search(len(sorted), func(i int) bool { return int32(sorted[i]) >= c })
		if i < len(sorted) && int32(sorted[i]) == c {
			return true
		}
	}
	return false
}

// ---- select=steps / select=metrics ------------------------------------

func runEvents(ctx context.Context, idx *Index, spec Spec, offset int, res *Result) error {
	if spec.Select == SelectMetrics && spec.GroupBy != "" {
		return runGrouped(ctx, idx, spec, offset, res)
	}
	matched, err := filteredEvents(ctx, idx, spec.Filter)
	if err != nil {
		return err
	}
	ev, pg := paginate(res, spec, offset, matched)
	tab, s := idx.Tab, idx.S
	add(pg, "event", func(i int) int64 { return int64(ev[i]) })
	add(pg, "chare", func(i int) int64 { return int64(tab.Chare[ev[i]]) })
	add(pg, "phase", func(i int) int64 { return int64(s.PhaseOf[ev[i]]) })
	add(pg, "step", func(i int) int64 { return int64(s.Step[ev[i]]) })
	if spec.Select == SelectSteps {
		add(pg, "chare_name", func(i int) string { return tab.Name[tab.Chare[ev[i]]] })
		add(pg, "kind", func(i int) string { return tab.Kind[ev[i]].String() })
		add(pg, "local_step", func(i int) int64 { return int64(s.LocalStep[ev[i]]) })
		add(pg, "pe", func(i int) int64 { return int64(tab.PE[ev[i]]) })
		add(pg, "time", func(i int) int64 { return int64(tab.Time[ev[i]]) })
	} else {
		for m, name := range metricNames {
			add(pg, name, func(i int) int64 { return int64(idx.metricsOf(ev[i])[m]) })
		}
	}
	return nil
}

// runGrouped executes group-by metrics queries. The unfiltered path reads
// the precomputed rollups in O(groups); a filter falls back to rolling up
// the filtered event list. Group rows are ordered by group key; groups
// with no matching events are omitted (so both paths agree).
func runGrouped(ctx context.Context, idx *Index, spec Spec, offset int, res *Result) error {
	var rollups []Rollup
	if spec.Filter.IsZero() {
		if spec.GroupBy == GroupByPhase {
			rollups = idx.PhaseRollup
		} else {
			rollups = idx.ChareRollup
		}
	} else {
		events, err := filteredEvents(ctx, idx, spec.Filter)
		if err != nil {
			return err
		}
		n := len(idx.S.Phases)
		if spec.GroupBy == GroupByChare {
			n = idx.Tab.NumChares()
		}
		rollups = make([]Rollup, n)
		for i, e := range events {
			if i%ctxCheckEvery == ctxCheckEvery-1 && ctx.Err() != nil {
				return ctx.Err()
			}
			key := idx.S.PhaseOf[e]
			if spec.GroupBy == GroupByChare {
				key = int32(idx.Tab.Chare[e])
			}
			if key >= 0 {
				rollups[key].observe(idx.metricsOf(e))
			}
		}
	}

	var occupied []int32
	for key := range rollups {
		if rollups[key].Events > 0 {
			occupied = append(occupied, int32(key))
		}
	}
	keys, pg := paginate(res, spec, offset, occupied)
	group := func(i int) *Rollup { return &rollups[keys[i]] }
	add(pg, spec.GroupBy, func(i int) int64 { return int64(keys[i]) })
	if spec.GroupBy == GroupByChare {
		add(pg, "chare_name", func(i int) string { return idx.Tab.Name[keys[i]] })
	}
	for _, agg := range spec.aggsSelected() {
		if agg == "count" {
			add(pg, "count", func(i int) int64 { return group(i).Events })
			continue
		}
		for m, name := range metricNames {
			switch agg {
			case "sum":
				add(pg, name+"_sum", func(i int) int64 { return group(i).Sum[m] })
			case "mean":
				add(pg, name+"_mean", func(i int) float64 { return float64(group(i).Sum[m]) / float64(group(i).Events) })
			case "max":
				add(pg, name+"_max", func(i int) int64 { return group(i).Max[m] })
			}
		}
	}
	return nil
}

// ---- select=viz -------------------------------------------------------

// runViz renders the filtered window as clustered timeline rows: chares
// whose windowed timelines are indistinguishable collapse into one row
// (application clusters first, then runtime, ordered by representative) —
// the scalable rendering the paper's conclusion asks for, server-side.
func runViz(ctx context.Context, idx *Index, spec Spec, offset int, res *Result) error {
	s := idx.S
	from, to := int32(0), s.MaxStep()
	if r := spec.Filter.Steps; r != nil {
		from = r.From
		if r.To < to {
			to = r.To
		}
	}
	if to < from { // empty structure or window past the end
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
		if ctx.Err() != nil {
			return ctx.Err()
		}
		row := make([]byte, int(to-from)+1)
		for i := range row {
			row[i] = '.'
		}
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
	// Application clusters above runtime ones, then by representative —
	// the same presentation order as viz.chareRows.
	sort.SliceStable(order, func(i, j int) bool {
		a, b := groups[order[i]], groups[order[j]]
		if a.runtime != b.runtime {
			return !a.runtime
		}
		return a.rep < b.rep
	})
	clusters, pg := paginate(res, spec, offset, order)
	cluster := func(i int) *group { return groups[clusters[i]] }
	add(pg, "label", func(i int) string {
		g := cluster(i)
		if g.members > 1 {
			return fmt.Sprintf("%s x%d", idx.Tab.Name[g.rep], g.members)
		}
		return idx.Tab.Name[g.rep]
	})
	add(pg, "representative", func(i int) int64 { return int64(cluster(i).rep) })
	add(pg, "members", func(i int) int64 { return int64(cluster(i).members) })
	add(pg, "runtime", func(i int) bool { return cluster(i).runtime })
	add(pg, "timeline", func(i int) string { return cluster(i).timeline })
	return nil
}
