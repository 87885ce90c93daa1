package core

import (
	"fmt"

	"charmtrace/internal/trace"
)

// ExtractBatch recovers the logical structure of many traces concurrently.
// Results are returned in input order and each is byte-identical to what a
// lone Extract(traces[i], opt) returns, so multi-run comparison workflows
// (seed-invariance studies, MPI-vs-Charm++ correspondence) can batch their
// analyses without changing their output.
//
// Unindexed traces are indexed sequentially up front, so a batch may safely
// contain the same *Trace more than once; after indexing, extraction only
// reads the trace. If any trace fails, ExtractBatch returns nil and the
// error of the lowest-indexed failure, annotated with its position.
//
// The worker budget opt.Workers() is split between the two levels instead
// of applied at both: the traces are items of the package's one pool
// (forEach) on min(workers, len(traces)) lanes, and each lane runs its
// extractions' inner pools at its share of the budget (splitBudget), so the
// shares always sum to the full budget — with workers=4 over 3 traces the
// lanes run at 2/1/1 inner workers; a uniform workers/lanes = 1 would idle
// a core for the whole batch, and the full budget at both levels would
// oversubscribe the CPU workers-fold. One lane (workers == 1, or a single
// trace) runs inline on the calling goroutine with the full budget handed
// to the inner stages, reproducing plain sequential Extract calls exactly.
// The inner split never changes output: extraction is byte-identical at
// every worker count.
//
// A context attached via opt.Context cancels the batch cooperatively: each
// trace polls it before starting, so a skipped trace still reports its
// cancellation error, and the in-progress extractions abort within one poll
// block (see Options.Context). The batch then fails with the lowest-indexed
// cancellation error.
func ExtractBatch(traces []*trace.Trace, opt Options) ([]*Structure, error) {
	out := make([]*Structure, len(traces))
	if len(traces) == 0 {
		return out, nil
	}
	for i, tr := range traces {
		if tr == nil {
			return nil, fmt.Errorf("core: trace %d: nil trace", i)
		}
		if !tr.Indexed() {
			if err := tr.Index(); err != nil {
				return nil, fmt.Errorf("core: trace %d: %w", i, err)
			}
		}
	}

	workers := opt.Workers()
	lanes := min(workers, len(traces))
	budgets := splitBudget(workers, lanes)

	errs := make([]error, len(traces))
	forEach(len(traces), lanes, func(i, lane int) {
		if err := opt.ctxErr(); err != nil {
			errs[i] = fmt.Errorf("extract cancelled: %w", err)
			return
		}
		inner := opt
		inner.Parallelism = budgets[lane]
		out[i], errs[i] = Extract(traces[i], inner)
		if out[i] != nil {
			// The inner worker split is an execution detail; record the
			// caller's options, exactly as a lone Extract would.
			out[i].Opts = opt
		}
	})

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: trace %d: %w", i, err)
		}
	}
	return out, nil
}

// splitBudget distributes a worker budget over pool slots: every slot gets
// at least budget/pool workers and the remainder goes to the first
// budget%pool slots one worker each, so the shares always sum to
// max(budget, pool) and no core idles behind an integer division. pool
// must be positive.
func splitBudget(budget, pool int) []int {
	if budget < pool {
		budget = pool // one worker per slot is the floor
	}
	shares := make([]int, pool)
	base, extra := budget/pool, budget%pool
	for i := range shares {
		shares[i] = base
		if i < extra {
			shares[i]++
		}
	}
	return shares
}
