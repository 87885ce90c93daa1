// Package metrics implements the performance metrics of Section 4, mapped
// onto the recovered logical structure: idle experienced, differential
// duration over event-delimited sub-blocks, and per-processor imbalance at
// the phase level. Traditional lateness metrics assume statically scheduled
// tasks; these metrics instead treat efficient processor use as the ideal.
package metrics

import (
	"math"
	"sort"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// SubBlock is an event-delimited unit of computation inside a serial block
// (Figure 13): it spans from the previous event in the block to the end of
// its event. Leftover duration after the last event is assigned to the
// event that started the block if one was recorded (the initial receive),
// otherwise to the last event.
type SubBlock struct {
	Event trace.EventID
	Dur   trace.Time
}

// SubBlockDurations returns per-event sub-block durations. Events of blocks
// without dependency events contribute nothing; for every block with events,
// the per-event durations sum to the block's duration.
func SubBlockDurations(tr *trace.Trace) []trace.Time {
	dur := make([]trace.Time, len(tr.Events))
	for bi := range tr.Blocks {
		blk := &tr.Blocks[bi]
		if len(blk.Events) == 0 {
			continue
		}
		prev := blk.Begin
		for _, e := range blk.Events {
			dur[e] = tr.Events[e].Time - prev
			prev = tr.Events[e].Time
		}
		leftover := blk.End - prev
		first := blk.Events[0]
		if tr.Events[first].Kind == trace.Recv {
			dur[first] += leftover
		} else {
			dur[blk.Events[len(blk.Events)-1]] += leftover
		}
	}
	return dur
}

// Report holds every Section 4 metric for one structure. All per-event
// slices are indexed by EventID; absent values are zero.
type Report struct {
	Structure *core.Structure
	// SubDur is each event's sub-block duration.
	SubDur []trace.Time
	// DifferentialDuration is the excess of each event's sub-block over the
	// shortest sub-block at the same (phase, logical step).
	DifferentialDuration []trace.Time
	// IdleExperienced is the idle time each event waited through: the event
	// directly after a recorded idle span carries its length, as does the
	// first event of each subsequent serial block whose dependency started
	// before the idle ended (Figure 11).
	IdleExperienced []trace.Time
	// Imbalance is, per event, its processor's phase load minus the
	// minimally loaded processor's in the same phase (Figure 14).
	Imbalance []trace.Time
	// PhaseImbalance is, per phase, the difference between the most and
	// least loaded processors.
	PhaseImbalance []trace.Time
	// PhaseLoad maps phase -> processor -> summed sub-block duration.
	PhaseLoad []map[trace.PE]trace.Time
}

// Compute derives all metrics for a structure.
func Compute(s *core.Structure) *Report {
	r := &Report{
		Structure:            s,
		SubDur:               SubBlockDurations(s.Trace),
		DifferentialDuration: make([]trace.Time, len(s.Trace.Events)),
		IdleExperienced:      make([]trace.Time, len(s.Trace.Events)),
		Imbalance:            make([]trace.Time, len(s.Trace.Events)),
		PhaseImbalance:       make([]trace.Time, len(s.Phases)),
		PhaseLoad:            make([]map[trace.PE]trace.Time, len(s.Phases)),
	}
	r.computeDifferential()
	r.computeIdleExperienced()
	r.computeImbalance()
	return r
}

// computeDifferential groups sub-blocks by (phase, local step) and assigns
// each event its excess over the group's minimum. The groups are the slots
// of one dense table: phase p owns MaxLocalStep+1 consecutive slots starting
// at base[p], and one slot past the last phase collects events that were
// left without a phase.
func (r *Report) computeDifferential() {
	s := r.Structure
	base := make([]int, len(s.Phases)+1)
	for pi := range s.Phases {
		base[pi+1] = base[pi] + int(s.Phases[pi].MaxLocalStep) + 1
	}
	slot := func(e int) int {
		if pi := s.PhaseOf[e]; pi >= 0 {
			return base[pi] + int(s.LocalStep[e])
		}
		return base[len(s.Phases)]
	}
	min := make([]trace.Time, base[len(s.Phases)]+1)
	for i := range min {
		min[i] = math.MaxInt64
	}
	for e := range s.Trace.Events {
		if k := slot(e); r.SubDur[e] < min[k] {
			min[k] = r.SubDur[e]
		}
	}
	for e := range s.Trace.Events {
		r.DifferentialDuration[e] = r.SubDur[e] - min[slot(e)]
	}
}

// computeIdleExperienced walks forward from every recorded idle span along
// its processor: the first event after the idle experiences it; the first
// event of each subsequent serial block also does while its dependency (the
// send of the message it waited on) started before the idle ended.
func (r *Report) computeIdleExperienced() {
	tr := r.Structure.Trace
	for _, idle := range tr.Idles {
		blocks := tr.BlocksOfPE(idle.PE)
		i := sort.Search(len(blocks), func(i int) bool {
			return tr.Blocks[blocks[i]].Begin >= idle.End
		})
		first := true
		for ; i < len(blocks); i++ {
			blk := &tr.Blocks[blocks[i]]
			if len(blk.Events) == 0 {
				continue
			}
			e := blk.Events[0]
			if first {
				r.IdleExperienced[e] += idle.Duration()
				first = false
				continue
			}
			ev := &tr.Events[e]
			if ev.Kind != trace.Recv || ev.Msg == trace.NoMsg {
				break
			}
			send := tr.SendOf(ev.Msg)
			if send == trace.NoEvent || tr.Events[send].Time >= idle.End {
				break
			}
			r.IdleExperienced[e] += idle.Duration()
		}
	}
}

// computeImbalance sums sub-block durations per (phase, processor) and
// derives the per-event spread and per-phase max-min difference, over the
// processors that participate in each phase.
func (r *Report) computeImbalance() {
	s := r.Structure
	for pi := range s.Phases {
		r.PhaseLoad[pi] = make(map[trace.PE]trace.Time)
	}
	for e := range s.Trace.Events {
		pi := s.PhaseOf[e]
		if pi < 0 {
			continue
		}
		r.PhaseLoad[pi][s.Trace.Events[e].PE] += r.SubDur[e]
	}
	minLoad := make([]trace.Time, len(s.Phases))
	for pi, load := range r.PhaseLoad {
		first := true
		var lo, hi trace.Time
		for _, d := range load {
			if first {
				lo, hi = d, d
				first = false
				continue
			}
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		minLoad[pi] = lo
		r.PhaseImbalance[pi] = hi - lo
	}
	for e := range s.Trace.Events {
		pi := s.PhaseOf[e]
		if pi < 0 {
			continue
		}
		r.Imbalance[e] = r.PhaseLoad[pi][s.Trace.Events[e].PE] - minLoad[pi]
	}
}

// MaxDifferentialDuration returns the largest differential duration and the
// event carrying it (NoEvent for an empty trace).
func (r *Report) MaxDifferentialDuration() (trace.Time, trace.EventID) {
	best, at := trace.Time(0), trace.NoEvent
	for e, d := range r.DifferentialDuration {
		if d > best {
			best, at = d, trace.EventID(e)
		}
	}
	return best, at
}

// TotalImbalance sums the per-phase imbalance over all phases — the paper's
// aggregate comparison between the 8- and 64-chare LASSEN runs ("less than
// half as much imbalance overall").
func (r *Report) TotalImbalance() trace.Time {
	var sum trace.Time
	for _, d := range r.PhaseImbalance {
		sum += d
	}
	return sum
}

// TotalIdleExperienced sums idle experienced over all events.
func (r *Report) TotalIdleExperienced() trace.Time {
	var sum trace.Time
	for _, d := range r.IdleExperienced {
		sum += d
	}
	return sum
}

// HighDifferentialEvents returns the events whose differential duration is
// at least frac of the maximum, in descending order — the repeated long
// events the LASSEN case study highlights (Figures 21-23).
func (r *Report) HighDifferentialEvents(frac float64) []trace.EventID {
	max, _ := r.MaxDifferentialDuration()
	if max == 0 {
		return nil
	}
	threshold := trace.Time(float64(max) * frac)
	var out []trace.EventID
	for e, d := range r.DifferentialDuration {
		if d >= threshold {
			out = append(out, trace.EventID(e))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return r.DifferentialDuration[out[i]] > r.DifferentialDuration[out[j]]
	})
	return out
}

// Lateness computes the traditional message-passing metric of Isaacs et
// al. [13]: each event's delay behind the earliest event at the same global
// logical step. The paper argues it suits bulk-synchronous programs but not
// task-based ones (§4); it is provided for the MPI-side comparisons.
func Lateness(s *core.Structure) []trace.Time {
	// earliest[st+1]: step -1 (an event left without a phase) has a slot too.
	earliest := make([]trace.Time, s.MaxStep()+2)
	for i := range earliest {
		earliest[i] = math.MaxInt64
	}
	for e := range s.Trace.Events {
		if st := s.Step[e] + 1; s.Trace.Events[e].Time < earliest[st] {
			earliest[st] = s.Trace.Events[e].Time
		}
	}
	out := make([]trace.Time, len(s.Trace.Events))
	for e := range s.Trace.Events {
		out[e] = s.Trace.Events[e].Time - earliest[s.Step[e]+1]
	}
	return out
}

// BlockMetric aggregates a per-event metric to serial blocks by taking each
// block's maximum.
func BlockMetric(tr *trace.Trace, perEvent []trace.Time) map[trace.BlockID]trace.Time {
	out := make(map[trace.BlockID]trace.Time)
	for e, d := range perEvent {
		b := tr.Events[e].Block
		if d > out[b] {
			out[b] = d
		}
	}
	return out
}
