package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"server.requests":        "server_requests",
		"cache.mem_hits":         "cache_mem_hits",
		"server.latency_ms.prom": "server_latency_ms_prom",
		"already_fine":           "already_fine",
		"with:colon":             "with:colon",
		"weird-Name.9":           "weird_Name_9",
		"9leading":               "_9leading",
		"ünïcode":                "_n_code", // one underscore per rune
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
		if !validPromName(PromName(in)) {
			t.Errorf("PromName(%q) = %q is not a valid prom name", in, PromName(in))
		}
	}
}

// TestWritePrometheusRoundTrip is the exporter's contract: every metric in
// a populated registry must survive the strict parser with its value
// intact, correct family type, and (for histograms) cumulative buckets that
// reconcile with _count.
func TestWritePrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server.requests").Add(42)
	reg.Counter("cache.mem_hits").Add(7)
	reg.Counter("weird.name-total").Add(1) // sanitizes and gains _total
	reg.Gauge("server.inflight").Set(3)
	reg.Gauge("cache.index_bytes").Set(1.5e6)
	h := reg.Histogram("server.latency_ms.structure")
	for _, v := range []float64{0.1, 0.5, 1, 2, 4, 8, 1024, 0.25} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WritePrometheusLabels(&buf, reg, nil); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePromText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exporter output rejected by strict parser: %v\n%s", err, buf.String())
	}

	counter := func(name string, want float64) {
		t.Helper()
		f := fams[name]
		if f == nil || f.Type != "counter" {
			t.Fatalf("missing counter %s (families: %v)", name, famNames(fams))
		}
		if f.Samples[0].Value != want {
			t.Fatalf("%s = %v, want %v", name, f.Samples[0].Value, want)
		}
	}
	counter("server_requests_total", 42)
	counter("cache_mem_hits_total", 7)
	counter("weird_name_total", 1)

	g := fams["server_inflight"]
	if g == nil || g.Type != "gauge" || g.Samples[0].Value != 3 {
		t.Fatalf("gauge server_inflight wrong: %+v", g)
	}
	if fams["cache_index_bytes"].Samples[0].Value != 1.5e6 {
		t.Fatal("gauge cache_index_bytes wrong")
	}

	hist := fams["server_latency_ms_structure"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatal("missing histogram family")
	}
	if hist.Count != 8 {
		t.Fatalf("histogram count %d, want 8", hist.Count)
	}
	wantSum := 0.1 + 0.5 + 1 + 2 + 4 + 8 + 1024 + 0.25
	if math.Abs(hist.Sum-wantSum) > 1e-9 {
		t.Fatalf("histogram sum %v, want %v", hist.Sum, wantSum)
	}
	last := hist.Samples[len(hist.Samples)-1]
	if !math.IsInf(last.Le, 1) || int64(last.Value) != hist.Count {
		t.Fatalf("+Inf bucket %v != count %d", last.Value, hist.Count)
	}
}

func famNames(fams map[string]*PromFamily) []string {
	out := make([]string, 0, len(fams))
	for n := range fams {
		out = append(out, n)
	}
	return out
}

func TestWriteGoRuntimeMetricsParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGoRuntimeMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePromText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("runtime metrics rejected: %v\n%s", err, buf.String())
	}
	for _, name := range []string{
		"go_goroutines", "go_memstats_heap_alloc_bytes",
		"go_memstats_alloc_bytes_total", "go_gc_cycles_total",
		"go_gc_pause_seconds_total",
	} {
		if fams[name] == nil {
			t.Errorf("missing runtime family %s", name)
		}
	}
	if fams["go_goroutines"].Samples[0].Value < 1 {
		t.Error("go_goroutines must be at least 1")
	}
}

// TestWritePrometheusLabelsRoundTrip pins the cluster contract: every
// sample of a node-labeled exposition survives the strict parser with the
// node label attached to its family, including histogram buckets whose le
// pair rides alongside the constant label.
func TestWritePrometheusLabelsRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("gateway.route").Add(11)
	reg.Gauge("server.inflight").Set(2)
	h := reg.Histogram("gateway.proxy_ms")
	for _, v := range []float64{1, 2, 4, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WritePrometheusLabels(&buf, reg, map[string]string{"node": "n-1"}); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePromText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("labeled exposition rejected by strict parser: %v\n%s", err, buf.String())
	}
	for _, name := range []string{"gateway_route_total", "server_inflight", "gateway_proxy_ms"} {
		f := fams[name]
		if f == nil {
			t.Fatalf("missing family %s", name)
		}
		if f.Labels["node"] != "n-1" {
			t.Fatalf("family %s labels = %v, want node=n-1", name, f.Labels)
		}
	}
	if fams["gateway_route_total"].Samples[0].Value != 11 {
		t.Fatal("labeled counter value lost")
	}
	if fams["gateway_proxy_ms"].Count != 4 {
		t.Fatalf("labeled histogram count %d, want 4", fams["gateway_proxy_ms"].Count)
	}
}

// TestParseLabelEscapes pins value unescaping and the strict label grammar.
func TestParseLabelEscapes(t *testing.T) {
	doc := "# HELP g a\n# TYPE g gauge\ng{node=\"a\\\\b\\\"c\\nd\"} 1\n"
	fams, err := ParsePromText(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got := fams["g"].Labels["node"]; got != "a\\b\"c\nd" {
		t.Fatalf("unescaped label = %q", got)
	}
}

func TestParsePromTextRejections(t *testing.T) {
	cases := map[string]string{
		"bad label name":         "# HELP g a\n# TYPE g gauge\ng{no-de=\"x\"} 1\n",
		"unterminated value":     "# HELP g a\n# TYPE g gauge\ng{node=\"x} 1\n",
		"unquoted value":         "# HELP g a\n# TYPE g gauge\ng{node=x} 1\n",
		"duplicate label":        "# HELP g a\n# TYPE g gauge\ng{node=\"x\",node=\"y\"} 1\n",
		"trailing comma":         "# HELP g a\n# TYPE g gauge\ng{node=\"x\",} 1\n",
		"bad escape":             "# HELP g a\n# TYPE g gauge\ng{node=\"\\t\"} 1\n",
		"inconsistent label set": "# HELP h a\n# TYPE h histogram\nh_bucket{node=\"x\",le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"sample before TYPE":     "foo 1\n",
		"TYPE without HELP":      "# TYPE foo counter\nfoo 1\n",
		"duplicate family":       "# HELP foo a\n# TYPE foo counter\nfoo 1\n# HELP foo b\n",
		"unknown type":           "# HELP foo a\n# TYPE foo summary\nfoo 1\n",
		"bad name":               "# HELP fo-o a\n# TYPE fo-o counter\nfo-o 1\n",
		"duplicate sample":       "# HELP foo a\n# TYPE foo gauge\nfoo 1\nfoo 2\n",
		"le on a gauge":          "# HELP foo a\n# TYPE foo gauge\nfoo{le=\"1\"} 2\n",
		"non-monotonic bounds":   "# HELP h a\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n",
		"non-cumulative counts":  "# HELP h a\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 3\nh_count 5\n",
		"missing +Inf":           "# HELP h a\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"+Inf != count":          "# HELP h a\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 5\n",
		"missing sum":            "# HELP h a\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"HELP without TYPE":      "# HELP foo a\n",
	}
	for name, doc := range cases {
		if _, err := ParsePromText(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parser accepted invalid document:\n%s", name, doc)
		}
	}
}

func TestParsePromTextAcceptsValid(t *testing.T) {
	doc := "# HELP h latency\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n" +
		"h_sum 7.5\nh_count 5\n" +
		"# HELP c requests\n# TYPE c counter\nc 9\n"
	fams, err := ParsePromText(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if fams["h"].Count != 5 || fams["c"].Samples[0].Value != 9 {
		t.Fatalf("parsed values wrong: %+v", fams)
	}
}

func TestRequestIDContext(t *testing.T) {
	if RequestID(nil) != "" {
		t.Fatal("nil context must yield empty id")
	}
	ctx := WithRequestID(t.Context(), "req-123")
	if got := RequestID(ctx); got != "req-123" {
		t.Fatalf("got %q", got)
	}
	if WithRequestID(t.Context(), "") != t.Context() {
		// Empty ids are not stored; the same context comes back.
		t.Fatal("empty id should not allocate a context")
	}
}
