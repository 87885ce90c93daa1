package main

import (
	"encoding/json"
	"fmt"

	"charmtrace"
)

// The answer checker. It is written from trace ground truth — the recorded
// events, serial blocks and message matching — and never calls the
// extraction algorithm, so it can disagree with it. What it asserts is the
// causal content of the paper's §3 invariants, in O(events):
//
//   - a matched send and receive lie in one phase, and the receive's global
//     step is at least one past the send's;
//   - the events of one serial block keep their recorded order: along the
//     block, global steps strictly increase.
//
// Full structures (batch-extract) additionally go through
// Structure.Validate. Served answers are checked through placement, which
// holds whatever subset of events the sampled responses revealed.

// placement is a partial assignment of events to (phase, step).
type placement struct {
	known []bool
	phase []int32
	step  []int32
}

func newPlacement(n int) *placement {
	return &placement{known: make([]bool, n), phase: make([]int32, n), step: make([]int32, n)}
}

// put records one event's position, rejecting ids outside the trace and a
// position that contradicts an earlier answer for the same event.
func (p *placement) put(event int, phase, step int32) error {
	if event < 0 || event >= len(p.known) {
		return fmt.Errorf("event %d outside the trace (%d events)", event, len(p.known))
	}
	if p.known[event] && (p.phase[event] != phase || p.step[event] != step) {
		return fmt.Errorf("event %d answered (phase %d, step %d) after (phase %d, step %d)",
			event, phase, step, p.phase[event], p.step[event])
	}
	p.known[event], p.phase[event], p.step[event] = true, phase, step
	return nil
}

// check verifies the causal invariants over every pair of known events.
func (p *placement) check(tr *charmtrace.Trace) error {
	if len(p.known) != len(tr.Events) {
		return fmt.Errorf("placement covers %d events, trace has %d", len(p.known), len(tr.Events))
	}
	for e := range tr.Events {
		if !p.known[e] {
			continue
		}
		if p.step[e] < 0 || p.phase[e] < 0 {
			return fmt.Errorf("event %d has no position (phase %d, step %d)", e, p.phase[e], p.step[e])
		}
		send := tr.MatchingSend(charmtrace.EventID(e))
		if send < 0 || !p.known[send] {
			continue
		}
		if p.phase[send] != p.phase[e] {
			return fmt.Errorf("send %d (phase %d) and its receive %d (phase %d) are in different phases",
				send, p.phase[send], e, p.phase[e])
		}
		if p.step[e] < p.step[send]+1 {
			return fmt.Errorf("receive %d at step %d is not after its send %d at step %d",
				e, p.step[e], send, p.step[send])
		}
	}
	for b := range tr.Blocks {
		prev := -1
		for _, e := range tr.Blocks[b].Events {
			if !p.known[e] {
				continue
			}
			if prev >= 0 && p.step[e] <= p.step[prev] {
				return fmt.Errorf("serial block %d: event %d (step %d) recorded after event %d (step %d) but not stepped after it",
					b, e, p.step[e], prev, p.step[prev])
			}
			prev = int(e)
		}
	}
	return nil
}

// checkStructure is the full check applied to every batch-extract result.
func checkStructure(tr *charmtrace.Trace, s *charmtrace.Structure) error {
	n := len(tr.Events)
	if len(s.Step) != n || len(s.PhaseOf) != n {
		return fmt.Errorf("structure places %d/%d events, trace has %d", len(s.Step), len(s.PhaseOf), n)
	}
	p := &placement{known: make([]bool, n), phase: s.PhaseOf, step: s.Step}
	for i := range p.known {
		p.known[i] = true
	}
	if err := p.check(tr); err != nil {
		return err
	}
	return s.Validate()
}

// stepRow is the subset of a served steps row the checker reads. The query
// engine's rows and the legacy /steps timelines both carry these fields.
type stepRow struct {
	Event *int   `json:"event"`
	Chare *int   `json:"chare"`
	Kind  string `json:"kind"`
	Phase *int32 `json:"phase"`
	Step  *int32 `json:"step"`
}

// addResponse decodes one sampled /steps or /query body and records its
// rows, checking each against the trace's own record of the event.
func (p *placement) addResponse(tr *charmtrace.Trace, body []byte) error {
	var resp struct {
		Rows   []stepRow `json:"rows"`
		Chares []struct {
			Chare    int       `json:"chare"`
			Timeline []stepRow `json:"timeline"`
		} `json:"chares"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable answer: %v", err)
	}
	add := func(r stepRow, chare int) error {
		if r.Event == nil || r.Phase == nil || r.Step == nil {
			return fmt.Errorf("row without event, phase or step")
		}
		if err := p.put(*r.Event, *r.Phase, *r.Step); err != nil {
			return err
		}
		ev := &tr.Events[*r.Event]
		if int(ev.Chare) != chare {
			return fmt.Errorf("event %d answered on chare %d, recorded on chare %d", *r.Event, chare, ev.Chare)
		}
		if ev.Kind.String() != r.Kind {
			return fmt.Errorf("event %d answered as %q, recorded as %q", *r.Event, r.Kind, ev.Kind)
		}
		return nil
	}
	for _, r := range resp.Rows {
		if r.Chare == nil {
			return fmt.Errorf("row without chare")
		}
		if err := add(r, *r.Chare); err != nil {
			return err
		}
	}
	for _, c := range resp.Chares {
		for _, r := range c.Timeline {
			if err := add(r, c.Chare); err != nil {
				return err
			}
		}
	}
	return nil
}
