// Package conformance is the differential harness that cross-checks the §3
// extraction pipeline against independent oracles on every bundled
// workload. The core oracle is a replay clock (after the replay-clocks
// tracing model, PAPERS.md): a vector clock computed directly from the
// generator's ground truth — the recorded event order inside each serial
// block and the send→receive matching — with no input from the phase or
// step algorithms. Any happened-before relationship the replay clock proves
// must be respected by the recovered global steps, and matched sends and
// receives must land in the same phase.
//
// The clock deliberately does NOT chain a chare's consecutive serial blocks:
// the paper's §3.2 step assignment reorders a chare's independent blocks in
// logical time on purpose (that is how a laggard's work is realigned with
// the iteration it belongs to, Figures 14/15), so physical block order on a
// chare is not an invariant of the recovered structure. Only the orders the
// algorithm promises to preserve — the developer-written order within a
// serial block, and every remote invocation — are causal ground truth here.
package conformance

import (
	"fmt"
	"math/rand"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// Oracle holds the replay clocks of one trace.
type Oracle struct {
	tr *trace.Trace
	// clock[e] is event e's replay clock: one component per serial block
	// (events of a block form a chain, so blocks are the "processes" of the
	// clock). Each event increments its own block's component, so e
	// happened-before f exactly when clock[e][block(e)] <= clock[f][block(e)]
	// and e != f.
	clock [][]int32
	// succs are the ground-truth causal edges the clocks were derived from.
	succs [][]trace.EventID
}

// NewOracle computes replay clocks from the trace's ground truth. The trace
// must be indexed.
func NewOracle(tr *trace.Trace) (*Oracle, error) {
	n := len(tr.Events)
	o := &Oracle{tr: tr, succs: make([][]trace.EventID, n)}
	indeg := make([]int, n)
	addEdge := func(u, v trace.EventID) {
		o.succs[u] = append(o.succs[u], v)
		indeg[v]++
	}
	// Intra-block order: the developer-determined sequence inside each
	// serial block, which reordering never changes.
	for bi := range tr.Blocks {
		evs := tr.Blocks[bi].Events
		for i := 0; i+1 < len(evs); i++ {
			addEdge(evs[i], evs[i+1])
		}
	}
	// Message matching: a receive happens after its send. The oracle (here
	// and in Verify) matches through SendOf, the message table, on purpose:
	// MatchingSend and MatchingRecvs read the dense rows the extraction itself
	// uses, and the oracle must stay independent of what it checks.
	for _, ev := range tr.Events {
		if ev.Kind != trace.Recv || ev.Msg == trace.NoMsg {
			continue
		}
		if s := tr.SendOf(ev.Msg); s != trace.NoEvent {
			addEdge(s, ev.ID)
		}
	}
	// Propagate clocks in topological order.
	o.clock = make([][]int32, n)
	queue := make([]trace.EventID, 0, n)
	for e := 0; e < n; e++ {
		if indeg[e] == 0 {
			queue = append(queue, trace.EventID(e))
		}
	}
	processed := 0
	nb := len(tr.Blocks)
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		processed++
		vc := make([]int32, nb)
		copy(vc, o.clock[e]) // accumulated predecessor maxima
		vc[tr.Events[e].Block]++
		o.clock[e] = vc
		for _, s := range o.succs[e] {
			if o.clock[s] == nil {
				o.clock[s] = make([]int32, nb)
			}
			for b, v := range vc {
				if v > o.clock[s][b] {
					o.clock[s][b] = v
				}
			}
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if processed != n {
		return nil, fmt.Errorf("conformance: ground-truth causal order has a cycle (%d of %d events ordered)", processed, n)
	}
	return o, nil
}

// HappenedBefore reports whether the replay clocks prove e happened before f.
func (o *Oracle) HappenedBefore(e, f trace.EventID) bool {
	if e == f {
		return false
	}
	b := o.tr.Events[e].Block
	return o.clock[e][b] <= o.clock[f][b]
}

// Verify cross-checks a recovered structure against the replay clocks:
//
//  1. every matched send and receive share a phase (phases only ever merge
//     across dependencies, never split them);
//  2. every ground-truth causal edge maps to strictly increasing global
//     steps — dependent events never share a logical time step and are
//     never inverted, no matter how fragments were reordered;
//  3. sampled transitive happened-before pairs (proved by the clocks, not
//     listed as edges) also map to increasing global steps;
//  4. every event's global step decomposes as its phase's offset plus its
//     local step, and stays within the phase's span and [0, MaxStep].
func (o *Oracle) Verify(s *core.Structure, samples int, seed int64) error {
	tr := o.tr
	for _, ev := range tr.Events {
		if ev.Kind != trace.Recv || ev.Msg == trace.NoMsg {
			continue
		}
		snd := tr.SendOf(ev.Msg)
		if snd == trace.NoEvent {
			continue
		}
		if s.PhaseOf[snd] != s.PhaseOf[ev.ID] {
			return fmt.Errorf("msg %d: send %d in phase %d but recv %d in phase %d",
				ev.Msg, snd, s.PhaseOf[snd], ev.ID, s.PhaseOf[ev.ID])
		}
	}
	for u := range o.succs {
		for _, v := range o.succs[u] {
			if s.Step[u] >= s.Step[v] {
				return fmt.Errorf("causal edge %d->%d violated: steps %d >= %d",
					u, v, s.Step[u], s.Step[v])
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(tr.Events)
	for i := 0; i < samples && n > 1; i++ {
		e := trace.EventID(rng.Intn(n))
		f := trace.EventID(rng.Intn(n))
		if o.HappenedBefore(e, f) && s.Step[e] >= s.Step[f] {
			return fmt.Errorf("replay clocks prove %d happened before %d but steps are %d >= %d",
				e, f, s.Step[e], s.Step[f])
		}
	}
	max := s.MaxStep()
	for e := range tr.Events {
		p := &s.Phases[s.PhaseOf[e]]
		if s.Step[e] != p.Offset+s.LocalStep[e] {
			return fmt.Errorf("event %d: step %d is not phase offset %d + local step %d",
				e, s.Step[e], p.Offset, s.LocalStep[e])
		}
		if lo, hi := p.GlobalSpan(); s.Step[e] < lo || s.Step[e] > hi {
			return fmt.Errorf("event %d step %d outside its phase span [%d, %d]", e, s.Step[e], lo, hi)
		}
		if s.Step[e] < 0 || s.Step[e] > max {
			return fmt.Errorf("event %d step %d outside [0, %d]", e, s.Step[e], max)
		}
	}
	return nil
}
