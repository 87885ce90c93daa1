// Package telemetry instruments the extraction pipeline itself: the tool
// that recovers logical structure from traces can record — and export — a
// trace of its own execution.
//
// Three pieces compose:
//
//   - Recorder is the pluggable span sink. The pipeline opens a span per
//     stage, per enforce-orderability round, per block of partitions the
//     worker pool scans, and per ordered phase, so fan-out imbalance is
//     visible in a timeline viewer. Disabled is the no-op recorder: span calls are
//     empty-bodied and instrumentation sites gate their extra work on
//     Enabled(), so a disabled pipeline pays only a branch.
//   - Registry is the lightweight metrics store (counters, gauges,
//     histograms). core.Extract always records into one — it is what backs
//     core.Stats — and registries merge, so a CLI can aggregate many
//     extractions into a single machine-readable report.
//   - The exporters: StatsExport is the versioned JSON schema behind the
//     -stats-json flag (diffable across runs), and WriteChromeTrace emits
//     the Collector's spans as Chrome trace-event JSON for Perfetto
//     (-self-trace).
//
// Recording never influences the analysis: recorders only observe, so the
// recovered Structure is byte-identical with telemetry on or off (the
// determinism suite checks exactly that).
package telemetry

// SpanID identifies a span within one Recorder. NoSpan is the absent parent
// (a root span) and the return of the no-op recorder.
type SpanID int32

// NoSpan is the nil span: the parent of root spans, and what disabled
// recorders return.
const NoSpan SpanID = -1

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	isInt bool
}

// String builds a string-valued span attribute.
func String(k, v string) Attr { return Attr{Key: k, Str: v} }

// Int builds an integer-valued span attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Int: v, isInt: true} }

// laneKey is the reserved attribute key carrying a span's worker lane.
const laneKey = "lane"

// Lane places a span on worker lane n of its run: the Collector maps lanes
// to distinct Chrome-trace thread ids under the span's root, which is how
// per-worker spans of a parallel stage land on separate timeline rows.
func Lane(n int) Attr { return Int(laneKey, int64(n)) }

// Recorder is the pluggable span sink threaded through the pipeline.
// Implementations must be safe for concurrent use: parallel stages start
// and end spans from many goroutines.
type Recorder interface {
	// Enabled reports whether spans are recorded. Instrumentation sites use
	// it to skip attribute construction and per-span bookkeeping entirely
	// when recording is off.
	Enabled() bool
	// StartSpan opens a span under parent (NoSpan for a root) and returns
	// its id. Attrs annotate the span; Lane assigns a worker lane.
	StartSpan(name string, parent SpanID, attrs ...Attr) SpanID
	// EndSpan closes a span. Ending NoSpan is a no-op.
	EndSpan(id SpanID)
}

// nop is the disabled recorder.
type nop struct{}

func (nop) Enabled() bool                            { return false }
func (nop) StartSpan(string, SpanID, ...Attr) SpanID { return NoSpan }
func (nop) EndSpan(SpanID)                           {}

// Disabled is the no-op Recorder: zero allocation, zero bookkeeping. It is
// what core.Extract substitutes for a nil Options.Telemetry.
var Disabled Recorder = nop{}
