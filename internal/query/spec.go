// Package query is the structure query engine: indexed slicing,
// aggregation and paging over a recovered logical structure.
//
// The paper's thesis is that logical structure (phases → steps → chares,
// §3) makes large traces navigable; this package makes it *servable*. A
// one-time Index over a core.Structure precomputes phase step-spans,
// per-chare occupied steps, a step-ordered event table and per-phase /
// per-chare §4 metric rollups, so that any slicing query — "chares 3..7 of
// phase 12, steps 40..80" — touches only the rows it returns instead of
// rescanning the trace. On top of the index, a small validated Spec
// (select structure | steps | metrics | viz, filters by phase/chare/step
// range, group-by with count/sum/mean/max aggregates, field projection,
// cursor pagination) compiles into a plan and executes under a context,
// returning deterministically ordered rows: concatenating all pages of any
// filtered query is byte-for-byte the corresponding slice of the full
// result, at every extraction parallelism.
//
// The engine is shared by charmd (POST /v1/traces/{digest}/query plus the
// query parameters retrofitted onto the structure/steps/metrics GET
// endpoints) and the chquery CLI, and its index is cached in resultcache
// alongside the decoded structure so repeat queries never rebuild it.
package query

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// Spec is one validated query. The zero value is invalid; clients submit
// it as JSON (the POST /query body and the chquery -spec file) or have it
// derived from URL parameters (SpecFromParams).
type Spec struct {
	// Select picks the row source: "structure" (one row per phase),
	// "steps" (one row per dependency event, in logical order), "metrics"
	// (per-event §4 metrics, or group-by rollups), "viz" (clustered
	// timeline rows over the filtered window).
	Select string `json:"select"`
	// Filter restricts rows; a zero filter selects everything.
	Filter Filter `json:"filter,omitzero"`
	// GroupBy aggregates metrics rows by "phase" or "chare" ("" = no
	// grouping). Only valid with Select == "metrics".
	GroupBy string `json:"group_by,omitempty"`
	// Aggregates picks which aggregate columns grouped rows carry, from
	// count, sum, mean, max. Empty selects all four. Only valid with
	// GroupBy set.
	Aggregates []string `json:"aggregates,omitempty"`
	// Fields projects each row to this subset of its columns (projected
	// rows render with keys in lexicographic order). Empty keeps every
	// column.
	Fields []string `json:"fields,omitempty"`
	// Limit is the page size; 0 returns everything in one page.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes a paged query where the previous page's NextCursor
	// left off. It is opaque and bound to the rest of the spec: reusing it
	// with different select/filter/group settings is a validation error.
	Cursor string `json:"cursor,omitempty"`
}

// Filter restricts the rows a query touches. All three dimensions compose
// (logical AND); within one dimension, listed values union.
type Filter struct {
	// Phases keeps rows belonging to these phase IDs.
	Phases []int32 `json:"phases,omitempty"`
	// Chares keeps rows belonging to these chare IDs.
	Chares []int32 `json:"chares,omitempty"`
	// Steps keeps rows whose global step lies in the inclusive range.
	Steps *StepRange `json:"steps,omitempty"`
}

// StepRange is an inclusive global-step window — the one window type, shared
// by query filters and LOD specs.
type StepRange struct {
	From int32 `json:"from"`
	To   int32 `json:"to"`
}

// IsZero reports an all-pass filter (used by json omitzero).
func (f Filter) IsZero() bool {
	return len(f.Phases) == 0 && len(f.Chares) == 0 && f.Steps == nil
}

// Error is a spec validation failure, attributed to the field that caused
// it so HTTP surfaces can return field-level 400s (never 500s).
type Error struct {
	Field string // JSON path of the offending field, e.g. "filter.steps"
	Msg   string
}

func (e *Error) Error() string { return fmt.Sprintf("query spec: %s: %s", e.Field, e.Msg) }

func specErrf(field, format string, args ...any) *Error {
	return &Error{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Selects and group-by values the engine accepts.
const (
	SelectStructure = "structure"
	SelectSteps     = "steps"
	SelectMetrics   = "metrics"
	SelectViz       = "viz"

	GroupByPhase = "phase"
	GroupByChare = "chare"
)

// aggNames is the canonical aggregate order (the order grouped columns
// render in when all are selected).
var aggNames = []string{"count", "sum", "mean", "max"}

// ParseSpec decodes and validates a JSON spec, rejecting unknown fields so
// a typo like "filters" fails loudly instead of silently selecting
// everything.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, specErrf("(body)", "invalid JSON: %v", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks every field, returning a *Error naming the first
// offending one. Filter bounds against a concrete structure (phase and
// chare existence) are checked at execution time, also as *Error.
func (s *Spec) Validate() error {
	switch s.Select {
	case SelectStructure, SelectSteps, SelectMetrics, SelectViz:
	case "":
		return specErrf("select", "required: one of structure, steps, metrics, viz")
	default:
		return specErrf("select", "unknown value %q (want structure, steps, metrics or viz)", s.Select)
	}
	switch s.GroupBy {
	case "":
	case GroupByPhase, GroupByChare:
		if s.Select != SelectMetrics {
			return specErrf("group_by", "only valid with select=metrics (got select=%s)", s.Select)
		}
	default:
		return specErrf("group_by", "unknown value %q (want phase or chare)", s.GroupBy)
	}
	if len(s.Aggregates) > 0 && s.GroupBy == "" {
		return specErrf("aggregates", "require group_by")
	}
	for _, a := range s.Aggregates {
		ok := false
		for _, known := range aggNames {
			if a == known {
				ok = true
			}
		}
		if !ok {
			return specErrf("aggregates", "unknown aggregate %q (want count, sum, mean or max)", a)
		}
	}
	if s.Limit < 0 {
		return specErrf("limit", "must be >= 0, got %d", s.Limit)
	}
	if r := s.Filter.Steps; r != nil {
		if r.From < 0 {
			return specErrf("filter.steps.from", "must be >= 0, got %d", r.From)
		}
		if r.To < r.From {
			return specErrf("filter.steps", "empty range: to=%d < from=%d", r.To, r.From)
		}
	}
	for _, p := range s.Filter.Phases {
		if p < 0 {
			return specErrf("filter.phases", "negative phase id %d", p)
		}
	}
	for _, c := range s.Filter.Chares {
		if c < 0 {
			return specErrf("filter.chares", "negative chare id %d", c)
		}
	}
	if len(s.Fields) > 0 {
		cols := columnsFor(s)
		for _, f := range s.Fields {
			if !slices.Contains(cols, f) {
				return specErrf("fields", "unknown field %q for select=%s%s (have %s)",
					f, s.Select, groupSuffix(s.GroupBy), strings.Join(cols, ", "))
			}
		}
	}
	return nil
}

func groupSuffix(g string) string {
	if g == "" {
		return ""
	}
	return " group_by=" + g
}

// noRows is an index over nothing: a spec run against it yields an empty
// page that still has every column the spec's rows carry.
var noRows = &Index{S: &core.Structure{}, Tab: &trace.Table{}}

// columnsFor returns, in name order, the columns rows of this spec carry —
// read off the runners that fill them, the one place they are listed — to
// validate Fields projections with a helpful message. The spec's select,
// group_by and aggregates are already known valid.
func columnsFor(s *Spec) []string {
	res, err := run(context.Background(), noRows, Spec{Select: s.Select, GroupBy: s.GroupBy, Aggregates: s.Aggregates})
	if err != nil {
		panic(err) // no projection, filter or cursor left to refuse
	}
	names := make([]string, len(res.Rows.cols))
	for i, c := range res.Rows.cols {
		names[i] = c.name
	}
	return names
}

// canonical renders the pagination-invariant part of the spec: everything
// except Cursor (Limit included — changing the page size invalidates
// cursors, keeping offset arithmetic unambiguous). Cursors and ETags both
// key on it.
func (s Spec) canonical() string {
	c := s
	c.Cursor = ""
	b, _ := json.Marshal(c) // struct-typed: cannot fail, field order fixed
	return string(b)
}

// aggsSelected normalizes Spec.Aggregates into the canonical order with an
// empty list meaning all.
func (s *Spec) aggsSelected() []string {
	if len(s.Aggregates) == 0 {
		return aggNames
	}
	out := make([]string, 0, len(s.Aggregates))
	for _, known := range aggNames {
		for _, a := range s.Aggregates {
			if a == known {
				out = append(out, known)
				break
			}
		}
	}
	return out
}
