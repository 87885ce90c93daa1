package core

import (
	"fmt"
	"strings"
	"time"

	"charmtrace/internal/graph"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
)

// Phase is one recovered phase: a set of dependency events that the
// phase-finding stage grouped together, with its position in the phase DAG.
type Phase struct {
	ID int32
	// Runtime marks runtime phases: partitions with dependencies between
	// application and runtime chares or purely between runtime chares.
	Runtime bool
	// Chares participating in the phase, sorted.
	Chares []trace.ChareID
	// Events of the phase, ordered by (local step, chare).
	Events []trace.EventID
	// MaxLocalStep is the largest local step assigned inside the phase.
	MaxLocalStep int32
	// Offset is the phase's global step offset: the maximum over phase-DAG
	// predecessors of (their offset + their max local step + 1).
	Offset int32
	// Leap is the phase's maximum distance from the phase DAG's sources.
	Leap int32
}

// GlobalSpan returns the phase's first and last global steps.
func (p *Phase) GlobalSpan() (int32, int32) {
	return p.Offset, p.Offset + p.MaxLocalStep
}

// Structure is the recovered logical structure of a trace: the phase DAG
// plus an exact logical position (phase, local step, global step) for every
// dependency event.
type Structure struct {
	// Trace is the trace the structure was extracted from or decoded against.
	// It is nil for a structure decoded against a table alone
	// (DecodeStructureTable) or detached from its trace (WithoutTrace): every
	// view of the structure reads Table(), and only what genuinely needs
	// serial blocks (Validate, package viz) requires Trace and says so.
	Trace  *trace.Trace
	Opts   Options
	Phases []Phase
	// DAG is the phase DAG; node i corresponds to Phases[i].
	DAG *graph.Graph
	// PhaseOf maps every event to its phase index.
	PhaseOf []int32
	// LocalStep maps every event to its step within its phase.
	LocalStep []int32
	// Step maps every event to its global logical step.
	Step []int32
	// Stats records pipeline instrumentation.
	Stats Stats

	// chareEvents lists every chare's events in logical order.
	chareEvents [][]trace.EventID

	// tab is the table the structure was decoded against or detached with;
	// nil (an extracted structure) means Trace.Table().
	tab *trace.Table

	// decodedFP is the options fingerprint read back by DecodeStructure.
	// Opts cannot always be reconstructed from a fingerprint (ChareRank
	// participates only through a digest), so re-encoding a decoded
	// structure uses this instead of Opts.Fingerprint() — keeping
	// encode(decode(bytes)) byte-identical to the original entry, which is
	// what lets cluster peers relay entries without re-extraction.
	decodedFP string
}

// Table returns the read-side event table of the structure's trace — what
// metrics, query, lod, charegroup, structdiff and charmd's renderers read
// in place of the trace: the one the structure was decoded against, else
// its trace's.
func (s *Structure) Table() *trace.Table {
	if s.tab != nil {
		return s.tab
	}
	return s.Trace.Table()
}

// WithoutTrace returns a copy of s that holds its table and no trace, so
// that keeping the structure does not keep the decoded trace alive.
func (s *Structure) WithoutTrace() *Structure {
	c := *s
	c.tab, c.Trace = s.Table(), nil
	return &c
}

// EncodedFingerprint is the options fingerprint an EncodeStructure of s
// would embed: the fingerprint decoded from the wire for structures that
// came through DecodeStructure, Opts.Fingerprint() otherwise.
func (s *Structure) EncodedFingerprint() string {
	if s.decodedFP != "" {
		return s.decodedFP
	}
	return s.Opts.Fingerprint()
}

// Stats instruments the extraction pipeline for the scaling experiments
// (Figures 18 and 19, which attribute the extra cost at high chare counts to
// the §3.1.4 merge). It is a view over the pipeline's telemetry registry:
// the stage loop records every measurement into Telemetry (the single
// bookkeeping path), and the named fields are materialized from it when
// extraction finishes.
type Stats struct {
	InitialPartitions int
	// MergedBy counts partitions eliminated per pipeline stage.
	MergedBy map[string]int
	// StageTime records wall time per pipeline stage.
	StageTime map[string]time.Duration
	// EnforceRounds is the number of iterations the orderability loop took.
	EnforceRounds int
	// Parallelism is the effective worker count the extraction ran with
	// (Options.Workers() at Extract time).
	Parallelism int
	// Telemetry is the pipeline's metrics registry: everything above plus
	// the enforce-round latency histogram and events-scanned counters.
	// Export renders it as the versioned -stats-json schema.
	Telemetry *telemetry.Registry
}

// statsFromRegistry materializes the Stats view from the registry the
// pipeline recorded into.
func statsFromRegistry(reg *telemetry.Registry, workers int) Stats {
	snap := reg.Snapshot()
	st := Stats{
		MergedBy:          make(map[string]int),
		StageTime:         make(map[string]time.Duration),
		InitialPartitions: int(snap.Gauges["pipeline.initial_partitions"]),
		EnforceRounds:     int(snap.Gauges["pipeline.enforce_rounds"]),
		Parallelism:       workers,
		Telemetry:         reg,
	}
	for k, v := range snap.Counters {
		if name, ok := strings.CutPrefix(k, telemetry.StageMergedPrefix); ok {
			st.MergedBy[name] = int(v)
		}
		if name, ok := strings.CutPrefix(k, telemetry.StageNSPrefix); ok {
			st.StageTime[name] = time.Duration(v)
		}
	}
	return st
}

// Export renders the pipeline telemetry as the versioned machine-readable
// stats schema (the -stats-json payload for a single extraction).
func (st *Stats) Export(tool string) *telemetry.StatsExport {
	e := telemetry.ExportRegistry(st.Telemetry, tool, StageOrder)
	e.Parallelism = st.Parallelism
	return e
}

// StageOrder lists the pipeline stages in execution order, for reporting.
// Repeated cycle merges are accumulated under the single "cycle-merge" key.
var StageOrder = []string{
	"initial",
	"dependency-merge",
	"cycle-merge",
	"repair-merge",
	"infer-dependencies",
	"leap-merge",
	"enforce-orderability",
	"enforce-chare-paths",
	"step-assignment",
}

// TimingReport formats the per-stage wall times (and merge counts) in
// pipeline order — the observable behind cmd/structure's -timing flag.
// Stages that did not run are omitted; stages that ran but were not timed
// (partial maps, e.g. Stats assembled outside Extract) are listed but
// excluded from the total, with an explicit note so the total is never
// silently short. The enforce-orderability line reports its round count
// alongside the merge count.
func (st *Stats) TimingReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage timings (parallelism %d):\n", st.Parallelism)
	var total time.Duration
	untimed := 0
	for _, name := range StageOrder {
		d, timed := st.StageTime[name]
		merged, didMerge := st.MergedBy[name]
		if !timed && !didMerge {
			continue
		}
		if timed {
			total += d
		} else {
			untimed++
		}
		fmt.Fprintf(&b, "  %-22s %12v", name, d)
		if merged > 0 {
			fmt.Fprintf(&b, "   merged %d", merged)
		}
		if name == "enforce-orderability" && st.EnforceRounds > 0 {
			fmt.Fprintf(&b, "   rounds %d", st.EnforceRounds)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  %-22s %12v", "total", total)
	if untimed > 0 {
		fmt.Fprintf(&b, "   (%d untimed stage(s) omitted)", untimed)
	}
	b.WriteByte('\n')
	return b.String()
}

// NumPhases returns the number of phases.
func (s *Structure) NumPhases() int { return len(s.Phases) }

// AppPhases returns the indices of application (non-runtime) phases.
func (s *Structure) AppPhases() []int32 {
	var out []int32
	for i := range s.Phases {
		if !s.Phases[i].Runtime {
			out = append(out, int32(i))
		}
	}
	return out
}

// MaxStep returns the largest global step in the structure, or -1 for an
// empty structure.
func (s *Structure) MaxStep() int32 {
	max := int32(-1)
	for _, p := range s.Phases {
		if _, hi := p.GlobalSpan(); hi > max && len(p.Events) > 0 {
			max = hi
		}
	}
	return max
}

// EventsOfChare returns the chare's events in logical order (phase offset,
// then position within the phase's per-chare order). The returned slice
// must not be modified.
func (s *Structure) EventsOfChare(c trace.ChareID) []trace.EventID {
	return s.chareEvents[c]
}

// PhaseOfEvent returns the phase containing an event.
func (s *Structure) PhaseOfEvent(e trace.EventID) *Phase {
	return &s.Phases[s.PhaseOf[e]]
}

// StepOf returns the global step of an event.
func (s *Structure) StepOf(e trace.EventID) int32 { return s.Step[e] }

// PhasesAtLeap groups phase indices by leap.
func (s *Structure) PhasesAtLeap() [][]int32 {
	var maxLeap int32 = -1
	for i := range s.Phases {
		if s.Phases[i].Leap > maxLeap {
			maxLeap = s.Phases[i].Leap
		}
	}
	out := make([][]int32, maxLeap+1)
	for i := range s.Phases {
		out[s.Phases[i].Leap] = append(out[s.Phases[i].Leap], int32(i))
	}
	return out
}

// ConcurrentPhases returns pairs of phases that overlap in global steps and
// are unordered in the phase DAG (used by the PDES missing-dependency case
// study, Figure 24: phases our algorithm could not sequence cover the same
// global steps).
func (s *Structure) ConcurrentPhases() [][2]int32 {
	reach := s.reachability()
	var out [][2]int32
	for i := 0; i < len(s.Phases); i++ {
		li, hi := s.Phases[i].GlobalSpan()
		for j := i + 1; j < len(s.Phases); j++ {
			lj, hj := s.Phases[j].GlobalSpan()
			if hi < lj || hj < li {
				continue // disjoint steps
			}
			if reach[i][int32(j)] || reach[j][int32(i)] {
				continue // ordered
			}
			out = append(out, [2]int32{int32(i), int32(j)})
		}
	}
	return out
}

// reachability computes per-phase reachable sets. Phase DAGs are small
// relative to traces, so a simple BFS per node suffices.
func (s *Structure) reachability() []map[int32]bool {
	n := len(s.Phases)
	reach := make([]map[int32]bool, n)
	for v := 0; v < n; v++ {
		seen := map[int32]bool{}
		stack := append([]int32(nil), s.DAG.Adj[v]...)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[u] {
				continue
			}
			seen[u] = true
			stack = append(stack, s.DAG.Adj[u]...)
		}
		reach[v] = seen
	}
	return reach
}
