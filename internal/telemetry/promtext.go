package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Registry in the Prometheus text exposition format
// (version 0.0.4) with no dependency beyond the standard library, and
// provides the strict parser the exposition tests (and any scrape-side
// tooling) validate it with. The mapping:
//
//   - Counter  -> a counter family named PromName(name) + "_total"
//   - Gauge    -> a gauge family named PromName(name)
//   - Histogram-> a histogram family: cumulative `_bucket{le="..."}` series
//     over the registry's base-2 buckets, a final le="+Inf" bucket equal to
//     `_count`, plus `_sum` and `_count`
//
// Dotted registry names ("cache.mem_hits") sanitize to the Prometheus
// charset [a-zA-Z0-9_:] ("cache_mem_hits"); the original name is preserved
// in the HELP line so dashboards can be traced back to registry metrics.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName sanitizes a registry metric name to the Prometheus metric-name
// charset: every rune outside [a-zA-Z0-9_:] becomes '_', and a leading
// digit is prefixed with '_'.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9')
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promFloat formats a sample value. Prometheus accepts Go's shortest
// round-trippable float representation; +Inf/-Inf/NaN use their spelled
// forms.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promFamily writes one family header pair. HELP text is escaped per the
// format (backslash and newline).
func promFamily(w io.Writer, name, typ, help string) {
	help = strings.ReplaceAll(help, `\`, `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promLabelValue escapes a label value per the exposition format.
func promLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// labelSet renders a constant label set ({k="v",...}) in sorted key order,
// with extra appended last (histograms pass their le pair). Empty input and
// empty extra render "".
func labelSet(labels map[string]string, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, PromName(k), promLabelValue(labels[k]))
	}
	if extra != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// PromGauge writes one self-contained gauge family (header plus a single
// sample), for process-level values that do not live in a Registry.
func PromGauge(w io.Writer, name, help string, v float64) {
	promFamily(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %s\n", name, promFloat(v))
}

// PromCounter writes one self-contained counter family.
func PromCounter(w io.Writer, name, help string, v float64) {
	promFamily(w, name, "counter", help)
	fmt.Fprintf(w, "%s %s\n", name, promFloat(v))
}

// WritePrometheusLabels renders a point-in-time snapshot of the registry in
// the text exposition format, with a constant label set (nil for none)
// stamped on every sample — charmd nodes expose node="<name>" so one scrape
// config over a cluster keeps per-node series apart. Histogram buckets merge
// the constant labels with their le pair. Families are emitted in sorted
// sanitized-name order, so successive scrapes of an unchanged registry are
// byte-identical (modulo values). Two registry names that sanitize to the
// same family keep only the lexically first — the registry's dotted naming
// convention never collides in practice, and a duplicate family would be a
// format violation.
func WritePrometheusLabels(w io.Writer, reg *Registry, labels map[string]string) error {
	snap := reg.Snapshot()
	ls := labelSet(labels, "")
	bw := bufio.NewWriter(w)
	seen := make(map[string]bool)
	claim := func(name string) bool {
		if seen[name] {
			return false
		}
		seen[name] = true
		return true
	}

	type counterRow struct {
		name, raw string
		v         int64
	}
	counters := make([]counterRow, 0, len(snap.Counters))
	for raw, v := range snap.Counters {
		name := PromName(raw)
		if !strings.HasSuffix(name, "_total") {
			name += "_total"
		}
		counters = append(counters, counterRow{name, raw, v})
	}
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	for _, c := range counters {
		if !claim(c.name) {
			continue
		}
		promFamily(bw, c.name, "counter", "charmtrace counter "+strconv.Quote(c.raw))
		fmt.Fprintf(bw, "%s%s %d\n", c.name, ls, c.v)
	}

	type gaugeRow struct {
		name, raw string
		v         float64
	}
	gauges := make([]gaugeRow, 0, len(snap.Gauges))
	for raw, v := range snap.Gauges {
		gauges = append(gauges, gaugeRow{PromName(raw), raw, v})
	}
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	for _, g := range gauges {
		if !claim(g.name) {
			continue
		}
		promFamily(bw, g.name, "gauge", "charmtrace gauge "+strconv.Quote(g.raw))
		fmt.Fprintf(bw, "%s%s %s\n", g.name, ls, promFloat(g.v))
	}

	type histRow struct {
		name, raw string
		h         HistogramSnapshot
	}
	hists := make([]histRow, 0, len(snap.Histograms))
	for raw, h := range snap.Histograms {
		hists = append(hists, histRow{PromName(raw), raw, h})
	}
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	for _, hr := range hists {
		if !claim(hr.name) || !claim(hr.name+"_bucket") ||
			!claim(hr.name+"_sum") || !claim(hr.name+"_count") {
			continue
		}
		promFamily(bw, hr.name, "histogram", "charmtrace histogram "+strconv.Quote(hr.raw))
		// Registry buckets are per-bucket occupancy in increasing upper
		// bound; Prometheus buckets are cumulative.
		cum := int64(0)
		for _, b := range hr.h.Buckets {
			cum += b.Count
			fmt.Fprintf(bw, "%s_bucket%s %d\n", hr.name, labelSet(labels, fmt.Sprintf("le=%q", promFloat(b.UpperBound))), cum)
		}
		fmt.Fprintf(bw, "%s_bucket%s %d\n", hr.name, labelSet(labels, `le="+Inf"`), hr.h.Count)
		fmt.Fprintf(bw, "%s_sum%s %s\n", hr.name, ls, promFloat(hr.h.Sum))
		fmt.Fprintf(bw, "%s_count%s %d\n", hr.name, ls, hr.h.Count)
	}
	return bw.Flush()
}

// WriteGoRuntimeMetrics appends the process-level Go runtime families every
// operational dashboard needs: goroutine count, heap occupancy, allocation
// totals and GC pause accounting. runtime.ReadMemStats stops the world
// briefly, which is acceptable at scrape frequency (seconds), not in a hot
// path.
func WriteGoRuntimeMetrics(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bw := bufio.NewWriter(w)
	PromGauge(bw, "go_goroutines", "number of goroutines", float64(runtime.NumGoroutine()))
	PromGauge(bw, "go_memstats_heap_alloc_bytes", "bytes of allocated heap objects", float64(ms.HeapAlloc))
	PromGauge(bw, "go_memstats_heap_sys_bytes", "bytes of heap obtained from the OS", float64(ms.HeapSys))
	PromGauge(bw, "go_memstats_heap_objects", "number of allocated heap objects", float64(ms.HeapObjects))
	PromGauge(bw, "go_memstats_next_gc_bytes", "heap size at which the next GC cycle starts", float64(ms.NextGC))
	PromCounter(bw, "go_memstats_alloc_bytes_total", "cumulative bytes allocated for heap objects", float64(ms.TotalAlloc))
	PromCounter(bw, "go_memstats_mallocs_total", "cumulative count of heap objects allocated", float64(ms.Mallocs))
	PromCounter(bw, "go_gc_cycles_total", "completed GC cycles", float64(ms.NumGC))
	PromCounter(bw, "go_gc_pause_seconds_total", "cumulative stop-the-world GC pause time", float64(ms.PauseTotalNs)/1e9)
	if ms.NumGC > 0 {
		PromGauge(bw, "go_gc_last_pause_seconds", "duration of the most recent GC pause",
			float64(ms.PauseNs[(ms.NumGC+255)%256])/1e9)
	}
	return bw.Flush()
}

// ---- strict exposition parser ------------------------------------------
//
// ParsePromText is the validation half of the exporter: a deliberately
// strict reader of the subset of the text format WritePrometheusLabels emits
// (samples with an optional constant label set — e.g. the cluster's
// node="..." — plus histogram `le` labels). The exposition tests round-trip
// every registry metric through it, and it rejects everything a lenient
// scraper would forgive: samples before their # TYPE line, duplicate
// families, names outside the charset, malformed or inconsistent label
// sets, non-cumulative histogram buckets, and a histogram whose +Inf
// bucket disagrees with its _count.

// PromSample is one parsed sample line.
type PromSample struct {
	// Le is the histogram bucket bound label, NaN for plain samples.
	Le    float64
	Value float64
}

// PromFamily is one parsed metric family.
type PromFamily struct {
	Name string
	Type string // counter, gauge, histogram
	Help string
	// Samples holds plain samples for counters/gauges; for histograms the
	// `_bucket` series in declaration order.
	Samples []PromSample
	// Sum/Count are the histogram's _sum/_count samples.
	Sum   float64
	Count int64
	// Labels is the family's constant (non-le) label set. The strict
	// contract: every sample of one family carries the same constant
	// labels — which is exactly what WritePrometheusLabels emits, and
	// what keeps the histogram cumulativity check meaningful.
	Labels map[string]string

	labelKey         string
	sawLabels        bool
	sawSum, sawCount bool
}

// parseLabelSet parses a `{k="v",...}` label block (braces included) into a
// map, unescaping \\, \" and \n in values. Strict: names must be valid,
// unique, values quoted, no trailing comma.
func parseLabelSet(s string) (map[string]string, error) {
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return nil, fmt.Errorf("malformed label block")
	}
	body := s[1 : len(s)-1]
	out := make(map[string]string)
	i := 0
	for i < len(body) {
		j := strings.IndexByte(body[i:], '=')
		if j < 0 {
			return nil, fmt.Errorf("label without '='")
		}
		name := body[i : i+j]
		if !validPromName(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("duplicate label %q", name)
		}
		i += j + 1
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("label %q value not quoted", name)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(body) {
			c := body[i]
			if c == '\\' {
				if i+1 >= len(body) {
					return nil, fmt.Errorf("dangling escape in label %q", name)
				}
				switch body[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("bad escape in label %q", name)
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("unterminated value for label %q", name)
		}
		out[name] = val.String()
		if i < len(body) {
			if body[i] != ',' {
				return nil, fmt.Errorf("expected ',' between labels")
			}
			i++
			if i == len(body) {
				return nil, fmt.Errorf("trailing comma in label block")
			}
		}
	}
	return out, nil
}

// canonicalLabels serializes a label map in sorted key order for equality
// comparison across one family's samples.
func canonicalLabels(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q;", k, m[k])
	}
	return b.String()
}

// promNameRe-equivalent check without regexp: [a-zA-Z_:][a-zA-Z0-9_:]*
func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		letter := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if letter || (i > 0 && r >= '0' && r <= '9') {
			continue
		}
		return false
	}
	return true
}

// ParsePromText parses and validates an exposition document, returning the
// families keyed by name.
func ParsePromText(r io.Reader) (map[string]*PromFamily, error) {
	families := make(map[string]*PromFamily)
	// base maps a sample name to its owning family (histogram samples carry
	// _bucket/_sum/_count suffixes).
	owner := func(sample string) *PromFamily {
		if f, ok := families[sample]; ok {
			return f
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(sample, suf); ok {
				if f, ok := families[base]; ok && f.Type == "histogram" {
					return f
				}
			}
		}
		return nil
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		fail := func(format string, args ...any) (map[string]*PromFamily, error) {
			return nil, fmt.Errorf("prom parse: line %d: %s: %q", lineNo, fmt.Sprintf(format, args...), line)
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !validPromName(name) {
				return fail("malformed HELP")
			}
			if _, dup := families[name]; dup {
				return fail("duplicate family %s", name)
			}
			families[name] = &PromFamily{Name: name, Help: help}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !validPromName(name) {
				return fail("malformed TYPE")
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				return fail("unknown type %s", typ)
			}
			f, ok := families[name]
			if !ok {
				return fail("TYPE without preceding HELP")
			}
			if f.Type != "" {
				return fail("duplicate TYPE for %s", name)
			}
			if len(f.Samples) > 0 || f.sawSum || f.sawCount {
				return fail("TYPE after samples for %s", name)
			}
			f.Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fail("unexpected comment")
		}

		// Sample line: name[{le="bound"}] value
		nameAndLabels, valueStr, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(valueStr, " ") {
			return fail("malformed sample")
		}
		value, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			return fail("bad value: %v", err)
		}
		name := nameAndLabels
		le := math.NaN()
		var constLabels map[string]string
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			name = nameAndLabels[:i]
			labels, lerr := parseLabelSet(nameAndLabels[i:])
			if lerr != nil {
				return fail("bad labels: %v", lerr)
			}
			if leStr, ok := labels["le"]; ok {
				le, err = strconv.ParseFloat(leStr, 64)
				if err != nil {
					return fail("bad le bound: %v", err)
				}
				if !strings.HasSuffix(name, "_bucket") {
					return fail("le label on a non-bucket sample")
				}
				delete(labels, "le")
			}
			if len(labels) > 0 {
				constLabels = labels
			}
		}
		if !validPromName(name) {
			return fail("invalid sample name")
		}
		f := owner(name)
		if f == nil || f.Type == "" {
			return fail("sample before its # TYPE family")
		}
		// Constant (non-le) labels must agree across one family's samples.
		if key := canonicalLabels(constLabels); !f.sawLabels {
			f.sawLabels, f.labelKey, f.Labels = true, key, constLabels
		} else if key != f.labelKey {
			return fail("inconsistent label sets in family %s", f.Name)
		}
		switch {
		case f.Type == "histogram" && strings.HasSuffix(name, "_bucket"):
			if math.IsNaN(le) {
				return fail("histogram bucket without le label")
			}
			if n := len(f.Samples); n > 0 {
				prev := f.Samples[n-1]
				if !(le > prev.Le) {
					return fail("bucket bounds not increasing")
				}
				if value < prev.Value {
					return fail("bucket counts not cumulative")
				}
			}
			f.Samples = append(f.Samples, PromSample{Le: le, Value: value})
		case f.Type == "histogram" && strings.HasSuffix(name, "_sum"):
			if f.sawSum {
				return fail("duplicate _sum")
			}
			f.sawSum, f.Sum = true, value
		case f.Type == "histogram" && strings.HasSuffix(name, "_count"):
			if f.sawCount {
				return fail("duplicate _count")
			}
			f.sawCount, f.Count = true, int64(value)
		case f.Type == "histogram":
			return fail("bare sample in histogram family")
		default:
			if len(f.Samples) > 0 {
				return fail("duplicate sample for %s", name)
			}
			if !math.IsNaN(le) {
				return fail("le label on a %s", f.Type)
			}
			f.Samples = append(f.Samples, PromSample{Le: le, Value: value})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prom parse: %w", err)
	}
	// Family-level invariants.
	for name, f := range families {
		if f.Type == "" {
			return nil, fmt.Errorf("prom parse: family %s has HELP but no TYPE", name)
		}
		switch f.Type {
		case "histogram":
			if !f.sawSum || !f.sawCount {
				return nil, fmt.Errorf("prom parse: histogram %s missing _sum or _count", name)
			}
			if len(f.Samples) == 0 {
				return nil, fmt.Errorf("prom parse: histogram %s has no buckets", name)
			}
			last := f.Samples[len(f.Samples)-1]
			if !math.IsInf(last.Le, 1) {
				return nil, fmt.Errorf("prom parse: histogram %s missing +Inf bucket", name)
			}
			if int64(last.Value) != f.Count {
				return nil, fmt.Errorf("prom parse: histogram %s +Inf bucket %v != count %d", name, last.Value, f.Count)
			}
		default:
			if len(f.Samples) != 1 {
				return nil, fmt.Errorf("prom parse: %s %s has %d samples, want 1", f.Type, name, len(f.Samples))
			}
		}
	}
	return families, nil
}
