package conformance

import (
	"fmt"
	"math/rand"
	"sort"

	"charmtrace/internal/skew"
	"charmtrace/internal/trace"
)

// This file implements the metamorphic transformations of the conformance
// harness: trace rewrites that, by the algorithm's own tie-breaking
// contract, must not change the recovered structure. The extraction
// pipeline breaks every tie by (virtual time, event ID) and uses processor
// numbers only as correlation keys, so
//
//   - renumbering processors bijectively,
//   - remapping all times through any monotone tie-preserving function —
//     shifting them all by a constant in particular, however far —, and
//   - relabeling event IDs while preserving the relative ID order of
//     equal-time events
//
// each must reproduce the structure exactly (the last one up to the event
// relabeling itself). So must per-processor clock skew smaller than the
// message latency (SkewPEs), the §3.2.1 premise that the structure is the
// program's, not the clocks'.

// Clone returns a deep, indexed copy of a trace. The copy shares nothing
// mutable with the original, so transformations can edit it freely.
func Clone(tr *trace.Trace) (*trace.Trace, error) {
	out := &trace.Trace{
		NumPE:   tr.NumPE,
		Chares:  append([]trace.Chare(nil), tr.Chares...),
		Entries: append([]trace.Entry(nil), tr.Entries...),
		Blocks:  append([]trace.Block(nil), tr.Blocks...),
		Events:  append([]trace.Event(nil), tr.Events...),
		Idles:   append([]trace.Idle(nil), tr.Idles...),
	}
	for i := range out.Blocks {
		out.Blocks[i].Events = append([]trace.EventID(nil), out.Blocks[i].Events...)
	}
	if err := out.Index(); err != nil {
		return nil, err
	}
	return out, nil
}

// RenumberPEs returns a copy of the trace with processors relabeled through
// perm (perm[old] = new), which must be a bijection on [0, NumPE). Idle
// records are re-sorted to the canonical (PE, Begin) order the trace
// builders emit, so the copy is byte-identical to a trace recorded with the
// new numbering in the first place.
func RenumberPEs(tr *trace.Trace, perm []trace.PE) (*trace.Trace, error) {
	if len(perm) != tr.NumPE {
		return nil, fmt.Errorf("conformance: perm has %d entries for %d PEs", len(perm), tr.NumPE)
	}
	seen := make([]bool, tr.NumPE)
	for _, p := range perm {
		if p < 0 || int(p) >= tr.NumPE || seen[p] {
			return nil, fmt.Errorf("conformance: perm is not a bijection on [0,%d)", tr.NumPE)
		}
		seen[p] = true
	}
	out, err := Clone(tr)
	if err != nil {
		return nil, err
	}
	for i := range out.Chares {
		out.Chares[i].Home = perm[out.Chares[i].Home]
	}
	for i := range out.Blocks {
		out.Blocks[i].PE = perm[out.Blocks[i].PE]
	}
	for i := range out.Events {
		out.Events[i].PE = perm[out.Events[i].PE]
	}
	for i := range out.Idles {
		out.Idles[i].PE = perm[out.Idles[i].PE]
	}
	sort.Slice(out.Idles, func(i, j int) bool {
		if out.Idles[i].PE != out.Idles[j].PE {
			return out.Idles[i].PE < out.Idles[j].PE
		}
		return out.Idles[i].Begin < out.Idles[j].Begin
	})
	if err := out.Index(); err != nil {
		return nil, err
	}
	return out, nil
}

// JitterTimes returns a copy of the trace with every timestamp remapped
// through a random monotone tie-preserving function: distinct times stay
// distinct and ordered, equal times stay equal, but every gap is resized.
// Phase boundaries therefore drift arbitrarily while all comparisons the
// pipeline can make come out the same.
func JitterTimes(tr *trace.Trace, rng *rand.Rand) (*trace.Trace, error) {
	out, err := Clone(tr)
	if err != nil {
		return nil, err
	}
	times := map[trace.Time]bool{}
	for _, b := range out.Blocks {
		times[b.Begin] = true
		times[b.End] = true
	}
	for _, ev := range out.Events {
		times[ev.Time] = true
	}
	for _, id := range out.Idles {
		times[id.Begin] = true
		times[id.End] = true
	}
	sorted := make([]trace.Time, 0, len(times))
	for t := range times {
		sorted = append(sorted, t)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	remap := make(map[trace.Time]trace.Time, len(sorted))
	cur := trace.Time(0)
	for _, t := range sorted {
		cur += 1 + trace.Time(rng.Int63n(997))
		remap[t] = cur
	}
	mapTimes(out, func(t trace.Time) trace.Time { return remap[t] })
	if err := out.Index(); err != nil {
		return nil, err
	}
	return out, nil
}

// mapTimes rewrites every timestamp of tr through f, in place.
func mapTimes(tr *trace.Trace, f func(trace.Time) trace.Time) {
	for i := range tr.Blocks {
		tr.Blocks[i].Begin, tr.Blocks[i].End = f(tr.Blocks[i].Begin), f(tr.Blocks[i].End)
	}
	for i := range tr.Events {
		tr.Events[i].Time = f(tr.Events[i].Time)
	}
	for i := range tr.Idles {
		tr.Idles[i].Begin, tr.Idles[i].End = f(tr.Idles[i].Begin), f(tr.Idles[i].End)
	}
}

// ShiftTimes returns a copy of the trace with d added to every timestamp.
// The caller keeps the sums inside int64; a copy whose times leave the range
// trace validation accepts (|time| < 2^62) comes back as Index's error.
func ShiftTimes(tr *trace.Trace, d trace.Time) (*trace.Trace, error) {
	out, err := Clone(tr)
	if err != nil {
		return nil, err
	}
	mapTimes(out, func(t trace.Time) trace.Time { return t + d })
	if err := out.Index(); err != nil {
		return nil, err
	}
	return out, nil
}

// PermuteEventIDs returns a copy of the trace with event IDs relabeled by a
// random permutation that preserves the relative ID order of events sharing
// a timestamp — the only ID order the pipeline's (time, ID) tie-break can
// observe. It also returns the permutation (perm[old] = new) so callers can
// compare per-event placements across the relabeling.
func PermuteEventIDs(tr *trace.Trace, rng *rand.Rand) (*trace.Trace, []trace.EventID, error) {
	out, err := Clone(tr)
	if err != nil {
		return nil, nil, err
	}
	n := len(out.Events)
	// Give every distinct timestamp a random rank, then lay events out by
	// (rank, old ID): equal-time events keep their relative ID order while
	// the ID space as a whole is scrambled across times.
	rank := map[trace.Time]int{}
	for _, ev := range out.Events {
		if _, ok := rank[ev.Time]; !ok {
			rank[ev.Time] = 0
		}
	}
	distinct := make([]trace.Time, 0, len(rank))
	for t := range rank {
		distinct = append(distinct, t)
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })
	order := rng.Perm(len(distinct))
	for i, t := range distinct {
		rank[t] = order[i]
	}
	olds := make([]trace.EventID, n)
	for i := range olds {
		olds[i] = trace.EventID(i)
	}
	sort.Slice(olds, func(i, j int) bool {
		a, b := &out.Events[olds[i]], &out.Events[olds[j]]
		if rank[a.Time] != rank[b.Time] {
			return rank[a.Time] < rank[b.Time]
		}
		return olds[i] < olds[j]
	})
	perm := make([]trace.EventID, n)
	for newID, oldID := range olds {
		perm[oldID] = trace.EventID(newID)
	}
	events := make([]trace.Event, n)
	for oldID, ev := range out.Events {
		ev.ID = perm[oldID]
		events[perm[oldID]] = ev
	}
	out.Events = events
	for bi := range out.Blocks {
		for i, e := range out.Blocks[bi].Events {
			out.Blocks[bi].Events[i] = perm[e]
		}
	}
	if err := out.Index(); err != nil {
		return nil, nil, err
	}
	return out, perm, nil
}

// SkewPEs returns a copy of the trace with each processor's clock shifted
// by a random offset in [0, frac·L), where L is the smallest receive − send
// gap of any cross-processor message. For frac < 1 every receive still
// follows its send, so the skew stays below the message latency.
func SkewPEs(tr *trace.Trace, rng *rand.Rand, frac float64) (*trace.Trace, error) {
	latency := trace.Time(-1)
	for e := range tr.Events {
		if s := tr.MatchingSend(trace.EventID(e)); s != trace.NoEvent && tr.Events[s].PE != tr.Events[e].PE {
			if gap := tr.Events[e].Time - tr.Events[s].Time; latency < 0 || gap < latency {
				latency = gap
			}
		}
	}
	offsets := make([]trace.Time, tr.NumPE)
	for p := range offsets {
		if bound := int64(frac * float64(latency)); bound > 0 {
			offsets[p] = trace.Time(rng.Int63n(bound))
		}
	}
	return skew.Inject(tr, offsets)
}
