package core

import (
	"fmt"

	"charmtrace/internal/trace"
)

// Validate checks the structural invariants of a recovered logical
// structure (Section 3 and DESIGN.md §6):
//
//   - every dependency event is assigned to exactly one phase and has
//     non-negative local and global steps;
//   - the phase DAG is acyclic and global offsets respect it;
//   - a receive's global step is at least one over its matching send's;
//   - no two events of one chare share a global step;
//   - steps strictly increase along each chare's logical timeline;
//   - events of one serial block appear in recorded relative order along
//     their chare's timeline (reordering permutes blocks, never the events
//     inside one).
func (s *Structure) Validate() error {
	tr := s.Trace
	for e := range tr.Events {
		if s.PhaseOf[e] < 0 || int(s.PhaseOf[e]) >= len(s.Phases) {
			return fmt.Errorf("core: event %d has no phase", e)
		}
		if s.LocalStep[e] < 0 {
			return fmt.Errorf("core: event %d has no local step", e)
		}
		if s.Step[e] < 0 {
			return fmt.Errorf("core: event %d has no global step", e)
		}
		ph := &s.Phases[s.PhaseOf[e]]
		if s.Step[e] != ph.Offset+s.LocalStep[e] {
			return fmt.Errorf("core: event %d global step %d != offset %d + local %d",
				e, s.Step[e], ph.Offset, s.LocalStep[e])
		}
	}
	if _, acyclic := s.DAG.TopoSort(); !acyclic {
		return fmt.Errorf("core: phase DAG is cyclic")
	}
	for p := range s.Phases {
		for _, q := range s.DAG.Adj[p] {
			need := s.Phases[p].Offset + s.Phases[p].MaxLocalStep + 1
			if s.Phases[q].Offset < need {
				return fmt.Errorf("core: phase %d offset %d below predecessor %d requirement %d",
					q, s.Phases[q].Offset, p, need)
			}
		}
	}
	for e := range tr.Events {
		send := tr.MatchingSend(trace.EventID(e))
		if send == trace.NoEvent {
			continue
		}
		if s.Step[e] < s.Step[send]+1 {
			return fmt.Errorf("core: recv %d at step %d not after send %d at step %d",
				e, s.Step[e], send, s.Step[send])
		}
	}
	for c := range tr.Chares {
		seq := s.chareEvents[c]
		for i := 0; i+1 < len(seq); i++ {
			if s.Step[seq[i]] >= s.Step[seq[i+1]] {
				return fmt.Errorf("core: chare %d steps not strictly increasing (%d@%d then %d@%d)",
					c, seq[i], s.Step[seq[i]], seq[i+1], s.Step[seq[i+1]])
			}
		}
		// Serial-block internal order is preserved.
		pos := make(map[trace.EventID]int, len(seq))
		for i, e := range seq {
			pos[e] = i
		}
		for _, b := range tr.BlocksOfChare(trace.ChareID(c)) {
			evs := tr.Blocks[b].Events
			for i := 0; i+1 < len(evs); i++ {
				pi, iok := pos[evs[i]]
				pj, jok := pos[evs[i+1]]
				if iok && jok && pi >= pj {
					return fmt.Errorf("core: block %d events reordered on chare %d", b, c)
				}
			}
		}
	}
	// Phase event lists are consistent with PhaseOf.
	counted := 0
	for p := range s.Phases {
		for _, e := range s.Phases[p].Events {
			if s.PhaseOf[e] != int32(p) {
				return fmt.Errorf("core: phase %d lists event %d of phase %d", p, e, s.PhaseOf[e])
			}
			counted++
		}
	}
	if counted != len(tr.Events) {
		return fmt.Errorf("core: phases list %d events, trace has %d", counted, len(tr.Events))
	}
	return nil
}
