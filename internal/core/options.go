// Package core implements the paper's primary contribution: recovering
// logical structure from Charm++ (and message-passing) event traces.
//
// Extract runs the two-stage algorithm of Section 3:
//
//  1. Phase-finding (§3.1): dependency events are grouped into initial
//     partitions (serial blocks split at application/runtime boundaries),
//     which are merged by matching message endpoints (Alg. 1), repaired
//     across the application/runtime split (Alg. 2), completed with inferred
//     happened-before dependencies (Alg. 3), merged per leap when chares
//     overlap (Alg. 4), and finally given the two DAG properties that
//     guarantee a single phase path per chare (Alg. 5). Every heuristic that
//     can create cycles is followed by a cycle merge that contracts strongly
//     connected components.
//  2. Step assignment (§3.2): within each phase, serial blocks are reordered
//     per chare by an idealized-replay clock w, events receive local logical
//     steps (a receive at least one step after its matching send), and local
//     steps are offset by phase-DAG predecessors into global steps.
//
// The pipeline is deterministic and, where an item owns its output,
// parallel: buildPartInfo's per-partition scan (and, in ExtractBatch, whole
// traces) are items of one worker pool sized by Options.Parallelism. Every
// item writes only its own rows, every union-find write happens on the
// calling goroutine, and the ordering stage runs all phases in one
// sequential phase-major pass, so the recovered Structure is byte-identical
// for every worker count (Parallelism 1 runs everything inline on the
// caller).
package core

import (
	"context"
	"runtime"

	"charmtrace/internal/telemetry"
)

// Options configures Extract.
type Options struct {
	// Reorder enables the §3.2.1 idealized replay: serial blocks are ordered
	// per chare by the w clock instead of physical time. Disabling it steps
	// events in recorded order (the Figure 8(a)/10(a) baselines).
	Reorder bool

	// InferDependencies enables the §3.1.4 heuristics that compensate for
	// missing control dependencies: inferring happened-before relationships
	// from the physical-time order of partition-starting sources (Alg. 3)
	// and merging concurrent overlapping partitions per leap (Alg. 4).
	// Disabling it reproduces Figure 17: the DAG properties are still
	// enforced, but by sequencing overlapping partitions instead of merging
	// them, so phases split.
	InferDependencies bool

	// NeighborSerialMerge enables the §3.1.3 refinement that merges the
	// partitions of SDAG serial n+1 blocks when their chares participated in
	// serial n within a single phase.
	NeighborSerialMerge bool

	// MessagePassing selects the message-passing w rule of §3.2.1/Figure 9:
	// sends are pinned after every receive that physically preceded them
	// (w_send = 1 + max w_recv) and only receives are reordered. Use for
	// traces of process-centric programs where each serial block holds a
	// single communication event.
	MessagePassing bool

	// ProcessOrderDeps adds happened-before edges between consecutive
	// serial blocks of each chare. Message-passing models assume per-process
	// physical-time order implies control flow (§3.4); task-based traces
	// must not assume this because runtime scheduling order is
	// non-deterministic.
	ProcessOrderDeps bool

	// Parallelism is the worker count of the pool behind buildPartInfo's
	// per-partition scan and behind ExtractBatch's per-trace fan-out. Zero
	// or negative selects runtime.GOMAXPROCS(0); 1 runs the fully
	// sequential pipeline. The recovered Structure is byte-identical for
	// every value: a pool item (a block of partitions, a trace) writes only
	// its own rows, and the merge heuristics and the ordering stage run on
	// the calling goroutine whatever the count.
	Parallelism int

	// Metrics, when non-nil, additionally accumulates the extraction's
	// metric registry into this shared registry when the pipeline finishes.
	// CLIs use it to aggregate every extraction of a run into one
	// -stats-json report; batch extractions merge concurrently and safely.
	Metrics *telemetry.Registry

	// ChareRank, when non-nil, supplies a display rank per chare used for
	// the Figure 7 tie-break instead of the raw chare ID — the paper's
	// suggestion that orderings aware of the data topology (e.g. neighbours
	// in 3D space) are more intuitive than tie-breaking by chare ID.
	ChareRank []int32

	// Progress, when non-nil, receives live position updates: the running
	// stage and per-stage loop counters, updated lock-free once per fixed
	// block of the loop (events, leaps, partitions; one phase), the same at
	// every worker count. The result cache attaches one per extraction
	// flight and charmd serves it at /debug/flights. Like the Metrics
	// sink this is an execution-only knob: it is excluded from Fingerprint
	// and never changes the recovered Structure, and a nil Progress costs
	// one pointer check per block.
	Progress *Progress

	// Context, when non-nil, cancels the extraction cooperatively: the
	// pipeline polls it at every stage boundary, every fixed block of
	// events in the Alg. 1 sweep and in the ordering stage's two sweeps, of
	// leaps in the overlap scan and of partitions in the per-partition
	// scan, and at every enforce-orderability round, and Extract returns an
	// error wrapping ctx.Err() (context.Canceled or
	// context.DeadlineExceeded) instead of a Structure. Cancellation latency
	// is therefore bounded by one such block at any worker count, not by the
	// whole stage. Like
	// Parallelism, Context is an execution-only knob: it is excluded from
	// Fingerprint, and an extraction that completes is byte-identical with
	// or without a context attached. nil never cancels.
	Context context.Context
}

// ctxErr returns the cancellation state of the attached context: nil when
// no context is attached or it is still live.
func (o Options) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

// Workers returns the effective worker count: Parallelism when positive,
// otherwise runtime.GOMAXPROCS(0).
func (o Options) Workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultOptions returns the configuration used for Charm++ traces in the
// paper's case studies: reordering and dependency inference on, neighbour
// serial merge on, task-based stepping.
func DefaultOptions() Options {
	return Options{
		Reorder:             true,
		InferDependencies:   true,
		NeighborSerialMerge: true,
	}
}

// MessagePassingOptions returns the configuration for process-centric
// message-passing traces: per-process order supplies control dependencies,
// and the Figure 9 send-pinning rule applies. This is the algorithm used for
// the MPI sides of the case studies (with Reorder=false it degenerates to
// the Isaacs et al. [13] stepping baseline).
func MessagePassingOptions() Options {
	return Options{
		Reorder:          true,
		MessagePassing:   true,
		ProcessOrderDeps: true,
	}
}
