package lod

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"

	"charmtrace/internal/query"
)

// Error reports an invalid LOD request with the offending field named —
// the serving layer maps it to 400 exactly like a query spec error.
type Error struct {
	Field string
	Msg   string
}

func (e *Error) Error() string { return fmt.Sprintf("lod spec: %s: %s", e.Field, e.Msg) }

func errf(field, format string, args ...any) *Error {
	return &Error{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Native is the Resolution meaning "no coarsening": serve from the
// one-step-per-bucket base level.
const Native Resolution = 0

// Resolution is the client's bucket budget: the response uses the coarsest
// pyramid level whose bucket count over the requested window fits within
// it. The zero value is Native. On the wire it is either a positive JSON
// number or the string "native".
type Resolution int

// MarshalJSON renders Native as "native" and anything else as a number.
func (r Resolution) MarshalJSON() ([]byte, error) {
	if r == Native {
		return []byte(`"native"`), nil
	}
	return []byte(strconv.Itoa(int(r))), nil
}

// UnmarshalJSON accepts a positive integer or the string "native".
func (r *Resolution) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if s == `"native"` {
		*r = Native
		return nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("resolution must be a positive integer or \"native\", got %s", s)
	}
	*r = Resolution(n)
	return nil
}

// ParseResolution parses the resolution URL parameter.
func ParseResolution(s string) (Resolution, error) {
	if s == "" || s == "native" {
		return Native, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return Native, errf("resolution", "want a positive integer or \"native\", got %q", s)
	}
	return Resolution(n), nil
}

// Spec is one LOD request. The zero value asks for the full structure at
// native resolution with every cluster row and every edge.
type Spec struct {
	// Resolution is the bucket budget ("native" = base level).
	Resolution Resolution `json:"resolution,omitempty"`
	// Steps restricts the response to an inclusive global-step window; the
	// window is snapped outward to bucket boundaries of the chosen level.
	Steps *query.StepRange `json:"steps,omitempty"`
	// MaxRows caps the cluster rows: past it, the smallest clusters merge
	// into one overflow row so the response never exceeds MaxRows rows.
	// 0 = one row per behavioural cluster.
	MaxRows int `json:"max_rows,omitempty"`
	// MaxEdges caps the aggregated communication edges, keeping the
	// heaviest (ties broken by key order). 0 = all edges.
	MaxEdges int `json:"max_edges,omitempty"`
	// NoEdges drops the edge list entirely.
	NoEdges bool `json:"no_edges,omitempty"`
	// Render includes a clustered text render of the window (native
	// resolution only) — the viz.LogicalClusteredWindow grid over the
	// response's rows.
	Render bool `json:"render,omitempty"`
	// Diff names a second trace digest: the response gains a
	// structdiff-backed divergence overlay (bucketed counts of chares
	// whose timelines diverge in each bucket). The serving layer resolves
	// the digest; the engine receives the computed diff.
	Diff string `json:"diff,omitempty"`
}

// maxSpecBytes bounds a POST body; a spec is a few hundred bytes.
const maxSpecBytes = 1 << 20

// ParseSpec decodes and validates a JSON spec. Unknown fields are errors —
// a misspelled option must not silently return the default aggregation.
func ParseSpec(r io.Reader) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sp, errf("", "invalid JSON: %v", err)
	}
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	return sp, nil
}

// SpecFromParams derives a Spec from URL parameters (the GET form).
// Parameters outside the LOD set (extraction options, etc.) are ignored;
// they are owned by the serving layer.
func SpecFromParams(q url.Values) (Spec, error) {
	var sp Spec
	var err error
	if sp.Resolution, err = ParseResolution(q.Get("resolution")); err != nil {
		return sp, err
	}
	if v := q.Get("steps"); v != "" {
		if sp.Steps, err = query.ParseStepRange(v); err != nil {
			return sp, errf("steps", "want from..to or a single step, got %q", v)
		}
	}
	if sp.MaxRows, err = intParam(q, "max_rows"); err != nil {
		return sp, err
	}
	if sp.MaxEdges, err = intParam(q, "max_edges"); err != nil {
		return sp, err
	}
	switch v := q.Get("edges"); v {
	case "", "true", "1":
	case "false", "0":
		sp.NoEdges = true
	default:
		return sp, errf("edges", "want a boolean, got %q", v)
	}
	switch v := q.Get("render"); v {
	case "", "false", "0":
	case "true", "1":
		sp.Render = true
	default:
		return sp, errf("render", "want a boolean, got %q", v)
	}
	sp.Diff = q.Get("diff")
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	return sp, nil
}

func intParam(q url.Values, name string) (int, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, errf(name, "want an integer, got %q", v)
	}
	return n, nil
}

// Validate checks the spec's invariants, naming the offending field.
func (sp *Spec) Validate() error {
	if sp.Resolution < 0 {
		return errf("resolution", "must be positive or \"native\"")
	}
	if sp.Steps != nil {
		if sp.Steps.From < 0 {
			return errf("steps.from", "must be >= 0")
		}
		if sp.Steps.To < sp.Steps.From {
			return errf("steps.to", "window is inverted (%d..%d)", sp.Steps.From, sp.Steps.To)
		}
	}
	if sp.MaxRows < 0 {
		return errf("max_rows", "must be >= 0")
	}
	if sp.MaxEdges < 0 {
		return errf("max_edges", "must be >= 0")
	}
	if sp.Render && sp.Resolution != Native {
		return errf("render", "text render is only available at resolution=native")
	}
	return nil
}
