package core

import (
	"charmtrace/internal/partition"
	"charmtrace/internal/trace"
)

// atoms holds the initial-partition decomposition of a trace, in flat
// index-based tables: every lookup the pipeline's hot sweeps perform is a
// slice index, never a map probe. It also owns the pipeline's arena — the
// reusable scratch buffers threaded through every later stage.
type atoms struct {
	set *partition.Set
	// of maps every dependency event to its atom.
	of []partition.ID
	// minEvent maps every atom to its earliest event by (time, ID): an
	// atom's events share one chare, so these are all the §3.1.4 heuristics
	// need of them.
	minEvent []trace.EventID
	// firstOf/lastOf map every block to its first/last atom (-1: the block
	// has no dependency events). Indexed by BlockID.
	firstOf []partition.ID
	lastOf  []partition.ID
	// absorb maps an entry-method block to the when-triggered serial block
	// that absorbed it (§2.1), -1 otherwise: the ordering stage treats the
	// pair as one serial block. Indexed by BlockID.
	absorb []trace.BlockID

	// arena is the per-extraction scratch allocator for the pipeline and
	// ordering stages.
	arena *extractArena
}

// canonicalBlock resolves a block through the absorb chain: the serial
// block that stands for it in the ordering stage.
func (a *atoms) canonicalBlock(b trace.BlockID) trace.BlockID {
	for a.absorb[b] >= 0 {
		b = a.absorb[b]
	}
	return b
}

// buildAtoms constructs the initial partitions (§3.1.1): maximal runs of
// dependency events within a serial block that stay on one side of the
// application/runtime boundary (Figure 2), plus the three kinds of initial
// edges: remote invocations, happened-before between the fragments of a
// split serial block, and SDAG-inferred happened-before (§2.1).
func buildAtoms(tr *trace.Trace, opt Options) *atoms {
	a := &atoms{
		of:      make([]partition.ID, len(tr.Events)),
		firstOf: make([]partition.ID, len(tr.Blocks)),
		lastOf:  make([]partition.ID, len(tr.Blocks)),
		absorb:  make([]trace.BlockID, len(tr.Blocks)),
	}
	for i := range a.of {
		a.of[i] = -1
	}
	for i := range a.firstOf {
		a.firstOf[i] = -1
		a.lastOf[i] = -1
		a.absorb[i] = -1
	}

	// First pass: flag the events that touch the runtime and count what the
	// set will hold — the atoms (runs of equal flags) and their events — and
	// bound its edges: one per matched receive, plus fewer than one per atom
	// for the links between a block's runs (one per run after a block's
	// first) and along each chare's blocks (one per block after a chare's
	// first that has events). The slack holds the later stages' edges.
	rt := make([]bool, len(tr.Events))
	nAtoms, nEvents := 0, 0
	for bi := range tr.Blocks {
		evs := tr.Blocks[bi].Events
		for i, e := range evs {
			rt[e] = touchesRuntime(tr, e)
			if i == 0 || rt[e] != rt[evs[i-1]] {
				nAtoms++
			}
		}
		nEvents += len(evs)
	}
	nEdges := nAtoms
	for e := range tr.Events {
		nEdges += len(tr.MatchingRecvs(trace.EventID(e)))
	}
	a.set = partition.NewSet(nAtoms, nEvents, nEdges)
	a.minEvent = make([]trace.EventID, 0, nAtoms)

	// Cut every serial block into its runs. AddAtom copies the run into the
	// set's flat event table.
	for bi := range tr.Blocks {
		blk := &tr.Blocks[bi]
		evs := blk.Events
		prev := partition.ID(-1)
		for lo := 0; lo < len(evs); {
			hi := lo + 1
			for hi < len(evs) && rt[evs[hi]] == rt[evs[lo]] {
				hi++
			}
			run := evs[lo:hi]
			id := a.set.AddAtom(partition.Atom{Chare: blk.Chare, Runtime: rt[run[0]], Events: run})
			if prev >= 0 {
				// Happened-before between fragments of the split block.
				a.set.AddEdge(prev, id)
			} else {
				a.firstOf[blk.ID] = id
			}
			a.lastOf[blk.ID] = id
			first := run[0]
			for _, e := range run {
				a.of[e] = id
				if less(tr, e, first) {
					first = e
				}
			}
			a.minEvent = append(a.minEvent, first)
			prev, lo = id, hi
		}
	}

	// Remote invocation edges: send atom -> each receive atom.
	for e := range tr.Events {
		for _, r := range tr.MatchingRecvs(trace.EventID(e)) {
			a.set.AddEdge(a.of[e], a.of[r])
		}
	}

	// Per-chare block-order edges: SDAG-inferred happened-before (adjacent
	// serial numbers, when-absorption) and, for message-passing traces,
	// full process-order dependencies.
	for c := range tr.Chares {
		blocks := tr.BlocksOfChare(trace.ChareID(c))
		for i := 0; i+1 < len(blocks); i++ {
			cur, next := blocks[i], blocks[i+1]
			la, fb := a.lastOf[cur], a.firstOf[next]
			if la < 0 || fb < 0 {
				continue
			}
			ce, ne := &tr.Entries[tr.Blocks[cur].Entry], &tr.Entries[tr.Blocks[next].Entry]
			switch {
			case opt.ProcessOrderDeps:
				a.set.AddEdge(la, fb)
			case ce.SDAGSerial >= 0 && ne.SDAGSerial == ce.SDAGSerial+1:
				// Serial n observed right before serial n+1 on this chare:
				// infer the first happened-before the second (§2.1).
				a.set.AddEdge(la, fb)
			case ne.AfterWhen && ce.SDAGSerial < 0:
				// An entry method right before a when-triggered serial is
				// absorbed into that serial's entry method (§2.1): merge
				// their partitions and let the ordering stage treat the
				// pair as one serial block.
				if a.set.AtomRuntime(la) == a.set.AtomRuntime(fb) {
					a.set.Union(la, fb)
				} else {
					a.set.AddEdge(la, fb)
				}
				a.absorb[cur] = next
			}
		}
	}
	a.arena = newExtractArena(tr)
	return a
}

// touchesRuntime reports whether a dependency event crosses into the
// runtime: its own chare is a runtime chare, or the far endpoint of its
// message is on a runtime chare.
func touchesRuntime(tr *trace.Trace, eid trace.EventID) bool {
	if tr.IsRuntimeChare(tr.Events[eid].Chare) {
		return true
	}
	if s := tr.MatchingSend(eid); s != trace.NoEvent {
		return tr.IsRuntimeChare(tr.Events[s].Chare)
	}
	for _, r := range tr.MatchingRecvs(eid) {
		if tr.IsRuntimeChare(tr.Events[r].Chare) {
			return true
		}
	}
	return false
}
