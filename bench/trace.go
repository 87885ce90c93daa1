package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The span recorder of the traced run. Spans are recorded from the
// benchmark's own files, around each call into a layer's public functions;
// nothing inside the program is instrumented. They live in memory until the
// run ends and are then written as Chrome trace-event JSON (open at
// ui.perfetto.dev or chrome://tracing).

// span is one timed call. Parent is the index of the span that caused it
// (-1 for an operation's root); every span of one replayed operation
// shares Op.
type span struct {
	Name       string
	Start, End time.Duration // since the trace began
	Parent     int
	Op         int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// traceRun is one traced run: its spans, the named samples taken beside
// them (allocation counts, sizes), and the metrics computed at the end.
type traceRun struct {
	mu      sync.Mutex // resultcache runs its Extract hook on a goroutine of its own
	t0      time.Time
	spans   []span
	ops     int
	metrics map[string]metric
	// sums accumulates numerators and denominators of the pooled per-event
	// metrics (Σ ns ÷ Σ events), so that stage times add up to their parent.
	sums map[string]float64
}

func newTraceRun() *traceRun {
	return &traceRun{t0: time.Now(), metrics: make(map[string]metric), sums: make(map[string]float64)}
}

// newOp opens the root span of one replayed operation.
func (t *traceRun) newOp(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: -1, Op: t.ops, Start: time.Since(t.t0)})
	t.ops++
	return len(t.spans) - 1
}

// begin opens a child span of parent, in the parent's operation.
func (t *traceRun) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.spans[parent].Op, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *traceRun) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.t0)
	return t.spans[id].dur()
}

// in records fn as a child span of parent and returns its duration.
func (t *traceRun) in(name string, parent int, fn func(id int)) time.Duration {
	id := t.begin(name, parent)
	fn(id)
	return t.end(id)
}

// lay adds a span with given bounds — used for the extraction stages, whose
// durations come from the program's public Stats rather than from a call
// the benchmark can bracket.
func (t *traceRun) lay(name string, parent int, start, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.spans[parent].Op, Start: start, End: start + d})
}

func (t *traceRun) pool(name string, v float64) { t.sums[name] += v }

// pooled sets metric name to Σnum ÷ Σden.
func (t *traceRun) pooled(name, num, den string) {
	t.metrics[name] = metric{Value: ratio(t.sums[num], t.sums[den])}
}

// self is a span's duration minus the part of it its children cover.
func (t *traceRun) self(id int, children map[int][]int) time.Duration {
	s := t.spans[id]
	kids := children[id]
	sort.Slice(kids, func(i, j int) bool { return t.spans[kids[i]].Start < t.spans[kids[j]].Start })
	covered, upTo := time.Duration(0), s.Start
	for _, k := range kids {
		c := t.spans[k]
		lo, hi := max(c.Start, upTo), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			upTo = hi
		}
	}
	return s.dur() - covered
}

func (t *traceRun) childIndex() map[int][]int {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	return children
}

// usOf lists the durations (self times when selfOnly) of every span with
// the given name, in microseconds.
func (t *traceRun) usOf(name string, selfOnly bool) []float64 {
	var children map[int][]int
	if selfOnly {
		children = t.childIndex()
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if selfOnly {
			d = t.self(i, children)
		}
		out = append(out, float64(d)/1e3)
	}
	return out
}

// medianUS sets metric name to the median duration of the named spans.
func (t *traceRun) medianUS(metricName, spanName string, selfOnly bool) {
	t.metrics[metricName] = metric{Value: median(t.usOf(spanName, selfOnly))}
}

// writeChrome writes the spans as complete ("X") trace events. Spans of one
// goroutine nest by time, so a single track shows each operation's tree.
func (t *traceRun) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, PID: 1, TID: 1,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
