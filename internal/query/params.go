package query

import (
	"net/url"
	"strconv"
	"strings"
)

// paramNames are the URL query parameters the GET retrofit recognizes on
// charmd's structure/steps/metrics endpoints. Each maps onto one Spec
// field; validation errors name the parameter.
var paramNames = []string{"phase", "chares", "steps", "group_by", "aggs", "fields", "limit", "page"}

// SpecFromParams derives a Spec for the given select kind from URL
// parameters (?phase=1,2&chares=0,3&steps=10..40&limit=50&page=<cursor>).
// The second result reports whether any engine parameter was present at
// all — absent, GET endpoints keep their legacy full responses.
func SpecFromParams(sel string, q url.Values) (Spec, bool, error) {
	spec := Spec{Select: sel}
	used := false
	for _, name := range paramNames {
		if q.Get(name) != "" {
			used = true
		}
	}
	if !used {
		return spec, false, nil
	}

	var err error
	if spec.Filter.Phases, err = parseIDList("phase", q.Get("phase")); err != nil {
		return spec, true, err
	}
	if spec.Filter.Chares, err = parseIDList("chares", q.Get("chares")); err != nil {
		return spec, true, err
	}
	if v := q.Get("steps"); v != "" {
		r, err := ParseStepRange(v)
		if err != nil {
			return spec, true, err
		}
		spec.Filter.Steps = r
	}
	spec.GroupBy = q.Get("group_by")
	if v := q.Get("aggs"); v != "" {
		spec.Aggregates = splitList(v)
	}
	if v := q.Get("fields"); v != "" {
		spec.Fields = splitList(v)
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return spec, true, specErrf("limit", "not an integer: %q", v)
		}
		spec.Limit = n
	}
	spec.Cursor = q.Get("page")
	if err := spec.Validate(); err != nil {
		return spec, true, err
	}
	return spec, true, nil
}

func splitList(v string) []string {
	parts := strings.Split(v, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseIDList(param, v string) ([]int32, error) {
	if v == "" {
		return nil, nil
	}
	var out []int32
	for _, p := range splitList(v) {
		n, err := strconv.ParseInt(p, 10, 32)
		if err != nil {
			return nil, specErrf(param, "not an id list: %q", v)
		}
		out = append(out, int32(n))
	}
	return out, nil
}

// ParseStepRange parses the steps URL parameter — "from..to", "from-to" or
// a single step "n" — rejecting anything outside int32 with a *Error on
// "steps". It is the one window parser: the LOD endpoint uses it too.
func ParseStepRange(v string) (*StepRange, error) {
	sep := ".."
	i := strings.Index(v, sep)
	if i < 0 {
		sep = "-"
		i = strings.Index(v, sep)
	}
	if i < 0 {
		n, err := strconv.ParseInt(v, 10, 32)
		if err != nil {
			return nil, specErrf("steps", "want from..to or a single step, got %q", v)
		}
		return &StepRange{From: int32(n), To: int32(n)}, nil
	}
	from, err1 := strconv.ParseInt(v[:i], 10, 32)
	to, err2 := strconv.ParseInt(v[i+len(sep):], 10, 32)
	if err1 != nil || err2 != nil {
		return nil, specErrf("steps", "want from..to, got %q", v)
	}
	return &StepRange{From: int32(from), To: int32(to)}, nil
}
