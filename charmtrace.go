// Package charmtrace recovers logical structure from event traces of
// asynchronous task-based (Charm++-style) and message-passing programs,
// implementing Isaacs et al., "Recovering Logical Structure from Charm++
// Event Traces" (SC '15).
//
// The typical workflow:
//
//	tr, err := charmtrace.ReadTraceFile("run.trace") // or build one with a simulator
//	s, err := charmtrace.Extract(tr, charmtrace.DefaultOptions())
//	fmt.Print(charmtrace.RenderLogical(s))
//	report := charmtrace.ComputeMetrics(s)
//
// Traces come from the bundled deterministic runtime simulators (the
// Charm++-style runtime in internal/sim and the MPI-style one in
// internal/mpisim, exposed here through the proxy-application generators
// such as JacobiTrace), from trace files, or from any code that fills a
// TraceBuilder.
package charmtrace

import (
	"io"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lassen"
	"charmtrace/internal/apps/lulesh"
	"charmtrace/internal/apps/mergetree"
	"charmtrace/internal/apps/nasbt"
	"charmtrace/internal/apps/pdes"
	"charmtrace/internal/charegroup"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/profile"
	"charmtrace/internal/skew"
	"charmtrace/internal/structdiff"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
	"charmtrace/internal/viz"
)

// Core data model.
type (
	// Trace is a recorded execution: chares, entry methods, serial blocks,
	// dependency events and idle spans.
	Trace = trace.Trace
	// TraceBuilder assembles traces incrementally.
	TraceBuilder = trace.Builder
	// Time is virtual nanoseconds.
	Time = trace.Time
	// ChareID identifies a chare.
	ChareID = trace.ChareID
	// EventID indexes Trace.Events.
	EventID = trace.EventID
	// Options configures structure extraction.
	Options = core.Options
	// Structure is the recovered logical structure: the phase DAG plus a
	// (phase, local step, global step) position for every event.
	Structure = core.Structure
	// Phase is one recovered phase.
	Phase = core.Phase
	// MetricsReport holds the Section 4 metrics.
	MetricsReport = metrics.Report
)

// NewTraceBuilder returns a builder for a machine with numPE processors.
func NewTraceBuilder(numPE int) *TraceBuilder { return trace.NewBuilder(numPE) }

// DefaultOptions is the task-based configuration used for Charm++ traces:
// reordering, dependency inference and the neighbour-serial merge enabled.
func DefaultOptions() Options { return core.DefaultOptions() }

// MessagePassingOptions is the configuration for process-centric traces:
// per-process order supplies control dependencies and the Figure 9
// send-pinning reorder rule applies.
func MessagePassingOptions() Options { return core.MessagePassingOptions() }

// Extract recovers the logical structure of a trace (the paper's Section 3
// algorithm: phase-finding followed by step assignment). The pipeline's
// parallel stages use Options.Parallelism workers (0 = all cores); the
// result is byte-identical for every worker count.
func Extract(tr *Trace, opt Options) (*Structure, error) { return core.Extract(tr, opt) }

// ExtractBatch analyzes many traces concurrently over a worker pool of
// Options.Parallelism goroutines, returning one structure per trace in
// input order. Each result is identical to a lone Extract of that trace; if
// any trace fails, the error of the lowest-indexed failure is returned,
// annotated with its position.
func ExtractBatch(traces []*Trace, opt Options) ([]*Structure, error) {
	return core.ExtractBatch(traces, opt)
}

// ComputeMetrics derives idle experienced, differential duration and
// imbalance (Section 4) over a structure.
func ComputeMetrics(s *Structure) *MetricsReport { return metrics.Compute(s) }

// Lateness computes the traditional per-step lateness metric of Isaacs et
// al. [13], suited to bulk-synchronous message-passing traces.
func Lateness(s *Structure) []Time { return metrics.Lateness(s) }

// ReadTrace parses a trace from either the text or the compact binary
// format (detected by magic).
func ReadTrace(r io.Reader) (*Trace, error) { return tracefile.ReadAuto(r) }

// ReadTraceFile parses a trace file.
func ReadTraceFile(path string) (*Trace, error) { return tracefile.ReadFile(path) }

// WriteTrace serializes a trace.
func WriteTrace(w io.Writer, tr *Trace) error { return tracefile.Write(w, tr) }

// WriteTraceFile serializes a trace to a file.
func WriteTraceFile(path string, tr *Trace) error { return tracefile.WriteFile(path, tr) }

// WriteTraceBinary serializes a trace in the compact binary format.
func WriteTraceBinary(w io.Writer, tr *Trace) error { return tracefile.WriteBinary(w, tr) }

// RenderLogical renders the chare x logical-step grid, one phase symbol per
// event.
func RenderLogical(s *Structure) string { return viz.Logical(s) }

// RenderLogicalMetric renders the logical grid shaded by a per-event metric.
func RenderLogicalMetric(s *Structure, metric []Time) string {
	return viz.LogicalMetric(s, metric)
}

// RenderPhysical renders the trace against bucketed virtual time; pass a
// structure to colour blocks by phase, or nil.
func RenderPhysical(tr *Trace, s *Structure, buckets int) string {
	return viz.Physical(tr, s, buckets)
}

// RenderSVG renders the logical structure as an SVG document.
func RenderSVG(s *Structure) string { return viz.LogicalSVG(s) }

// PhaseSummary prints one line per phase in global-step order.
func PhaseSummary(s *Structure) string { return viz.PhaseSummary(s) }

// ChareCluster groups behaviourally equivalent chares for scalable renders.
type ChareCluster = charegroup.Cluster

// ClusterExact groups chares whose logical timelines are identical (same
// steps, kinds and phase-relative positions).
func ClusterExact(s *Structure) []ChareCluster { return charegroup.Exact(s) }

// ClusterByPhaseShape groups chares by the coarser per-phase shape of their
// timelines, merging symmetric concurrent phases.
func ClusterByPhaseShape(s *Structure) []ChareCluster { return charegroup.ByPhaseShape(s) }

// RenderLogicalClustered renders one row per cluster — the scalable view
// the paper's conclusion calls for at large chare counts.
func RenderLogicalClustered(s *Structure, clusters []ChareCluster) string {
	rows := make([]viz.ClusterRow, len(clusters))
	for i := range clusters {
		rows[i] = viz.ClusterRow{
			Representative: clusters[i].Representative,
			Label:          clusters[i].Label(s.Table()),
		}
	}
	return viz.LogicalClustered(s, rows)
}

// StructureDiff is the comparison of two recovered structures.
type StructureDiff = structdiff.Diff

// CompareStructures diffs two structures of the same workload (different
// seeds, options or code versions): an empty diff certifies logical
// equivalence; a non-empty one localizes which phases or chares moved.
func CompareStructures(a, b *Structure) (*StructureDiff, error) {
	return structdiff.Compare(a, b)
}

// WindowTrace extracts the sub-trace of serial blocks lying entirely
// within [from, to) — the standard way to analyze a few iterations of a
// long run. Receives whose sends fall outside the window are dropped.
func WindowTrace(tr *Trace, from, to Time) (*Trace, error) {
	return trace.Window(tr, from, to)
}

// ProfileReport is a Projections-style aggregate profile.
type ProfileReport = profile.Report

// BuildProfile aggregates a trace into per-entry, per-processor and
// message-volume statistics. Counting cross-processor messages needs the
// trace's index (ReadTrace, TraceBuilder.Finish and Extract build it): on a
// trace never indexed, CrossPE is 0.
func BuildProfile(tr *Trace) *ProfileReport { return profile.Build(tr) }

// InjectSkew returns a copy of a trace with every record on processor p
// shifted by offsets[p], modelling unsynchronized per-processor clocks.
func InjectSkew(tr *Trace, offsets []Time) (*Trace, error) { return skew.Inject(tr, offsets) }

// SkewViolations counts cross-processor receives recorded less than minGap
// after their matching sends — the causal inconsistencies clock skew
// introduces (skew cannot break a same-processor message). The trace must be
// indexed (ReadTrace, TraceBuilder.Finish and Extract index it): on a trace
// never indexed no receive matches its send, and the count is 0.
func SkewViolations(tr *Trace, minGap Time) int { return skew.Violations(tr, minGap) }

// CorrectSkew recovers per-processor clock offsets restoring the causal
// send-before-receive order (the post-processing Section 4 refers to) and
// returns the corrected trace plus the offsets applied. The trace must be
// indexed; an unindexed one is an error.
func CorrectSkew(tr *Trace, minGap Time) (*Trace, []Time, error) {
	return skew.Correct(tr, minGap)
}

// Proxy-application configurations and trace generators. Each runs the
// corresponding workload on the bundled deterministic runtime simulators
// and returns its event trace.
type (
	// JacobiConfig parameterizes the Jacobi 2D running example.
	JacobiConfig = jacobi.Config
	// LuleshConfig parameterizes the LULESH proxy (Charm++ and MPI).
	LuleshConfig = lulesh.Config
	// LassenConfig parameterizes the LASSEN wavefront proxy.
	LassenConfig = lassen.Config
	// MergeTreeConfig parameterizes the 1,024-process MPI merge tree.
	MergeTreeConfig = mergetree.Config
	// PDESConfig parameterizes the Section 7.1 PDES mini-app.
	PDESConfig = pdes.Config
	// NASBTConfig parameterizes the Figure 1 BT-style benchmark.
	NASBTConfig = nasbt.Config
)

// JacobiTrace runs the Jacobi 2D proxy (Figures 8, 12, 14, 15).
func JacobiTrace(cfg JacobiConfig) (*Trace, error) { return jacobi.Trace(cfg) }

// DefaultJacobiConfig is the paper's 16-chare run on 8 processors.
func DefaultJacobiConfig() JacobiConfig { return jacobi.DefaultConfig() }

// LuleshCharmTrace runs the Charm++ LULESH proxy (Figure 16b).
func LuleshCharmTrace(cfg LuleshConfig) (*Trace, error) { return lulesh.CharmTrace(cfg) }

// LuleshMPITrace runs the MPI LULESH proxy (Figure 16a).
func LuleshMPITrace(cfg LuleshConfig) (*Trace, error) { return lulesh.MPITrace(cfg) }

// DefaultLuleshConfig is the paper's 8-chare run on 2 processors.
func DefaultLuleshConfig() LuleshConfig { return lulesh.DefaultConfig() }

// LassenCharmTrace runs the Charm++ LASSEN proxy (Figures 20b/d, 21-23).
func LassenCharmTrace(cfg LassenConfig) (*Trace, error) { return lassen.CharmTrace(cfg) }

// LassenMPITrace runs the MPI LASSEN proxy (Figures 20a/c).
func LassenMPITrace(cfg LassenConfig) (*Trace, error) { return lassen.MPITrace(cfg) }

// DefaultLassenConfig is the 8-chare (4x2) decomposition on 8 processors;
// FineLassenConfig the 64-chare (8x8) one.
func DefaultLassenConfig() LassenConfig { return lassen.DefaultConfig() }

// FineLassenConfig is the 64-chare LASSEN decomposition.
func FineLassenConfig() LassenConfig { return lassen.FineConfig() }

// MergeTreeTrace runs the MPI merge tree (Figure 10).
func MergeTreeTrace(cfg MergeTreeConfig) (*Trace, error) { return mergetree.Trace(cfg) }

// DefaultMergeTreeConfig is the paper's 1,024-process configuration.
func DefaultMergeTreeConfig() MergeTreeConfig { return mergetree.DefaultConfig() }

// PDESTrace runs the PDES mini-app (Figure 24).
func PDESTrace(cfg PDESConfig) (*Trace, error) { return pdes.Trace(cfg) }

// DefaultPDESConfig is the paper's 16-chare, 4-process configuration.
func DefaultPDESConfig() PDESConfig { return pdes.DefaultConfig() }

// NASBTTrace runs the BT-style benchmark (Figure 1).
func NASBTTrace(cfg NASBTConfig) (*Trace, error) { return nasbt.Trace(cfg) }

// DefaultNASBTConfig is the 9-process configuration of Figure 1.
func DefaultNASBTConfig() NASBTConfig { return nasbt.DefaultConfig() }
