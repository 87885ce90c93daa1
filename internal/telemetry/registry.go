// Package telemetry is the metrics side of the pipeline and the serving
// stack: what they count about their own execution, and how that is
// exported.
//
//   - Registry is the lightweight metrics store (counters, gauges,
//     histograms). core.Extract always records into one — it is what backs
//     core.Stats — and registries merge, so a CLI can aggregate many
//     extractions into a single machine-readable report, and charmd keeps
//     one for the life of the process.
//   - The exporters: StatsExport is the versioned JSON schema behind the
//     -stats-json flag and /debug/stats (diffable across runs), and
//     WritePrometheusLabels renders a registry in the Prometheus text
//     format for /metrics.
//   - The request-ID contract every hop of a served request shares.
//
// Recording never influences the analysis: a registry only observes, so the
// recovered Structure is byte-identical with or without one attached (the
// determinism suite checks exactly that). Spans are not recorded in the
// program: the repository benchmark (bench/) lays them out from outside, and
// stage attribution comes from core.Stats.StageTime.
package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Registry is a lightweight, concurrency-safe metrics store. Handles are
// cheap to hold: Counter/Gauge/Histogram return stable pointers, so hot
// paths look a metric up once and update it lock-free (counters, gauges) or
// under a per-histogram lock.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{min: math.Inf(1), max: math.Inf(-1)}
		r.hists[name] = h
	}
	return h
}

// StatusClasses are an HTTP front end's response counters <prefix>.1xx …
// <prefix>.5xx, resolved once so that counting a response formats no name
// and takes no lock.
type StatusClasses [5]*Counter

// StatusClasses returns (creating if needed) the prefix's class counters.
func (r *Registry) StatusClasses(prefix string) (s StatusClasses) {
	for i := range s {
		s[i] = r.Counter(fmt.Sprintf("%s.%dxx", prefix, i+1))
	}
	return s
}

// Count adds one response with this status code (outside 100–599: nowhere).
func (s StatusClasses) Count(code int) {
	if i := code/100 - 1; i >= 0 && i < len(s) {
		s[i].Add(1)
	}
}

// Counter is a monotonically accumulated integer metric.
type Counter struct{ v atomic.Int64 }

// Add accumulates delta into the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the accumulated total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value set (zero before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of exponential (base-2) histogram buckets:
// bucket i counts observations v with 2^(i-1) < v <= 2^i (bucket 0 takes
// v <= 1). 64 buckets cover any int64-scale observation.
const histBuckets = 64

// Histogram summarizes a stream of non-negative observations: count, sum,
// min, max, and base-2 exponential buckets (enough resolution to see
// whether enforce-orderability round latencies are uniform or skewed).
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]int64
}

// bucketOf maps an observation to its exponential bucket index.
func bucketOf(v float64) int {
	if v <= 1 {
		return 0
	}
	b := int(math.Ceil(math.Log2(v)))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
	h.mu.Unlock()
}

// HistogramSnapshot is the exportable summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Buckets lists only the occupied buckets, in increasing upper bound.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one occupied exponential bucket: Count observations
// with value <= UpperBound (and above the previous bucket's bound).
type HistogramBucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// snapshot copies the histogram under its lock.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	for i, n := range h.buckets {
		if n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: math.Pow(2, float64(i)), Count: n})
		}
	}
	return s
}

// Snapshot is a point-in-time copy of a registry's contents.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric. Safe to call while writers are active;
// each metric is read atomically (counters, gauges) or under its lock.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}

// MergeInto accumulates this registry into dst: counters add, gauges take
// the source's value, histogram summaries and buckets combine. Used to roll
// per-extraction registries up into a CLI-wide one; safe under concurrent
// merges from a batch of extractions.
func (r *Registry) MergeInto(dst *Registry) {
	s := r.Snapshot()
	for k, v := range s.Counters {
		dst.Counter(k).Add(v)
	}
	for k, v := range s.Gauges {
		dst.Gauge(k).Set(v)
	}
	for k, hs := range s.Histograms {
		if hs.Count == 0 {
			dst.Histogram(k) // materialize the empty histogram
			continue
		}
		h := dst.Histogram(k)
		h.mu.Lock()
		h.count += hs.Count
		h.sum += hs.Sum
		if hs.Min < h.min {
			h.min = hs.Min
		}
		if hs.Max > h.max {
			h.max = hs.Max
		}
		for _, b := range hs.Buckets {
			h.buckets[bucketOf(b.UpperBound)] += b.Count
		}
		h.mu.Unlock()
	}
}
