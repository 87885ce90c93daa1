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

// Report holds every Section 4 metric for one structure. All per-event
// slices are indexed by EventID; absent values are zero.
type Report struct {
	Structure *core.Structure
	// SubDur is each event's sub-block duration (Figure 13): the span from
	// the previous event in its serial block to the event. It depends on
	// the trace alone, so it is the trace table's column, shared.
	SubDur []trace.Time
	// DifferentialDuration is the excess of each event's sub-block over the
	// shortest sub-block at the same (phase, logical step).
	DifferentialDuration []trace.Time
	// IdleExperienced is the idle time each event waited through: the event
	// directly after a recorded idle span carries its length, as does the
	// first event of each subsequent serial block whose dependency started
	// before the idle ended (Figure 11). Like SubDur it is the trace table's
	// column, shared; the other metrics depend on the structure.
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

// Compute derives all metrics for a structure. The per-event slices are
// shared with s.Table() or freshly allocated; treat them as read-only.
func Compute(s *core.Structure) *Report {
	tab := s.Table()
	r := &Report{
		Structure:            s,
		SubDur:               tab.SubDur,
		DifferentialDuration: make([]trace.Time, tab.NumEvents()),
		IdleExperienced:      tab.IdleExp,
		Imbalance:            make([]trace.Time, tab.NumEvents()),
		PhaseImbalance:       make([]trace.Time, len(s.Phases)),
		PhaseLoad:            make([]map[trace.PE]trace.Time, len(s.Phases)),
	}
	r.computeDifferential()
	r.computeImbalance(tab.NumPE, tab.PE)
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
	for e, d := range r.SubDur {
		if k := slot(e); d < min[k] {
			min[k] = d
		}
	}
	for e, d := range r.SubDur {
		r.DifferentialDuration[e] = d - min[slot(e)]
	}
}

// computeImbalance sums sub-block durations per (phase, processor) and
// derives the per-event spread and per-phase max-min difference, over the
// processors that participate in each phase. Each phase's loads are summed
// over its own events in one PE-indexed table, whose entries a phase
// resets as it first touches them, so PhaseLoad is filled once per (phase,
// participating processor) rather than updated once per event.
func (r *Report) computeImbalance(numPE int, pe []trace.PE) {
	s := r.Structure
	load := make([]trace.Time, numPE)
	owner := make([]int32, numPE) // 1 + the last phase to touch each PE
	var touched []trace.PE
	for pi := range s.Phases {
		events, tag := s.Phases[pi].Events, int32(pi)+1
		touched = touched[:0]
		for _, e := range events {
			if p := pe[e]; owner[p] != tag {
				owner[p], load[p] = tag, r.SubDur[e]
				touched = append(touched, p)
			} else {
				load[p] += r.SubDur[e]
			}
		}
		phase := make(map[trace.PE]trace.Time, len(touched))
		var lo, hi trace.Time
		for i, p := range touched {
			d := load[p]
			phase[p] = d
			if i == 0 || d < lo {
				lo = d
			}
			if i == 0 || d > hi {
				hi = d
			}
		}
		r.PhaseLoad[pi], r.PhaseImbalance[pi] = phase, hi-lo
		for _, e := range events {
			r.Imbalance[e] = load[pe[e]] - lo
		}
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
	times := s.Table().Time
	for e, t := range times {
		if st := s.Step[e] + 1; t < earliest[st] {
			earliest[st] = t
		}
	}
	out := make([]trace.Time, len(times))
	for e, t := range times {
		out[e] = t - earliest[s.Step[e]+1]
	}
	return out
}
