// Package skew models and repairs per-processor clock skew in traces.
//
// Section 4 of the paper notes that metrics comparing times across
// processors suffer from clock-synchronization problems and that
// post-processing algorithms (Rabenseifner's controlled logical clock [25],
// Becker et al. [5]) ameliorate the issue. This package provides both
// directions: Inject shifts each processor's clock to create a skewed trace
// for testing, and Correct recovers per-processor offsets that restore the
// causal send-before-receive order, by solving the system of difference
// constraints induced by every cross-processor message with a shortest-path
// (Bellman-Ford) pass.
package skew

import (
	"fmt"

	"charmtrace/internal/trace"
)

// Inject returns a copy of the trace with every record on processor p
// shifted by offsets[p]. Per-processor event order is preserved, so the
// result is structurally valid even when the shifts break cross-processor
// causality (a receive appearing before its send — the artifact real skewed
// clocks produce).
func Inject(tr *trace.Trace, offsets []trace.Time) (*trace.Trace, error) {
	if len(offsets) != tr.NumPE {
		return nil, fmt.Errorf("skew: %d offsets for %d PEs", len(offsets), tr.NumPE)
	}
	out := &trace.Trace{
		NumPE:   tr.NumPE,
		Chares:  append([]trace.Chare(nil), tr.Chares...),
		Entries: append([]trace.Entry(nil), tr.Entries...),
		Blocks:  make([]trace.Block, len(tr.Blocks)),
		Events:  make([]trace.Event, len(tr.Events)),
		Idles:   make([]trace.Idle, len(tr.Idles)),
	}
	for i, b := range tr.Blocks {
		b.Begin += offsets[b.PE]
		b.End += offsets[b.PE]
		b.Events = append([]trace.EventID(nil), b.Events...)
		out.Blocks[i] = b
	}
	for i, ev := range tr.Events {
		ev.Time += offsets[ev.PE]
		out.Events[i] = ev
	}
	for i, idle := range tr.Idles {
		idle.Begin += offsets[idle.PE]
		idle.End += offsets[idle.PE]
		out.Idles[i] = idle
	}
	if err := out.Index(); err != nil {
		return nil, fmt.Errorf("skew: %w", err)
	}
	return out, nil
}

// Violations counts cross-processor messages whose receive is recorded less
// than minGap after its send — the causal inconsistencies clock skew
// introduces. A message within one processor is not counted: a per-processor
// clock offset moves both its ends together, so skew cannot break it (and
// Correct leaves it out for the same reason). Receives are matched to sends
// through the trace's index: on a trace never indexed none is matched, and
// the count is 0.
func Violations(tr *trace.Trace, minGap trace.Time) int {
	if !tr.Indexed() {
		return 0
	}
	n := 0
	for e := range tr.Events {
		send := tr.MatchingSend(trace.EventID(e))
		if send == trace.NoEvent || tr.Events[send].PE == tr.Events[e].PE {
			continue
		}
		if tr.Events[e].Time < tr.Events[send].Time+minGap {
			n++
		}
	}
	return n
}

// Correct estimates per-processor offsets restoring causality: for every
// cross-processor message (send at t1 on A, receive at t2 on B) it requires
//
//	t1 + off[A] + minGap <= t2 + off[B]
//
// and solves the difference-constraint system by Bellman-Ford over the
// processor graph. It returns the corrected trace and the offsets applied
// (normalized so the smallest is zero). If the constraints are infeasible —
// genuinely contradictory message timings rather than uniform skew — it
// returns an error identifying the negative cycle's span. The trace must be
// indexed; an unindexed one is an error.
func Correct(tr *trace.Trace, minGap trace.Time) (*trace.Trace, []trace.Time, error) {
	if !tr.Indexed() {
		return nil, nil, fmt.Errorf("skew: trace not indexed")
	}
	const inf = trace.Time(1) << 62
	// dist[p] plays x_p in the difference constraints: x_A - x_B <= c for
	// each message A->B with c = t2 - t1 - minGap, i.e. edge B -> A with
	// weight c. A virtual source (dist 0) connects to every node.
	dist := make([]trace.Time, tr.NumPE)
	type edge struct {
		from, to int
		w        trace.Time
	}
	var edges []edge
	for e := range tr.Events {
		send := tr.MatchingSend(trace.EventID(e))
		if send == trace.NoEvent {
			continue
		}
		ev, sv := &tr.Events[e], &tr.Events[send]
		if sv.PE == ev.PE {
			continue
		}
		edges = append(edges, edge{
			from: int(ev.PE), to: int(sv.PE),
			w: ev.Time - sv.Time - minGap,
		})
	}
	for i := 0; i < tr.NumPE; i++ {
		relaxed := false
		for _, e := range edges {
			if dist[e.from]+e.w < dist[e.to] {
				dist[e.to] = dist[e.from] + e.w
				relaxed = true
			}
		}
		if !relaxed {
			break
		}
		if i == tr.NumPE-1 {
			return nil, nil, fmt.Errorf("skew: constraints infeasible — message timings between processors are mutually contradictory (not a uniform per-processor skew)")
		}
	}
	// dist are the offsets (x_p); normalize so the minimum is zero and no
	// record moves before the epoch.
	min := inf
	for _, d := range dist {
		if d < min {
			min = d
		}
	}
	offsets := make([]trace.Time, tr.NumPE)
	for p := range offsets {
		offsets[p] = dist[p] - min
	}
	out, err := Inject(tr, offsets)
	if err != nil {
		return nil, nil, err
	}
	return out, offsets, nil
}
