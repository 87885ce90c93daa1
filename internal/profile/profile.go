// Package profile aggregates a trace into the summary statistics a
// Projections-style profile view shows: time and executions per entry
// method, busy/idle per processor, and message-volume counts. Profiles are
// the complement the paper contrasts its trace analysis with — cheap
// aggregate context before diving into logical structure.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"charmtrace/internal/trace"
)

// EntryStats aggregates one entry method.
type EntryStats struct {
	Entry  trace.EntryID
	Name   string
	Count  int
	Total  trace.Time
	Min    trace.Time
	Max    trace.Time
	Events int
}

// Mean returns the average block duration.
func (e *EntryStats) Mean() trace.Time {
	if e.Count == 0 {
		return 0
	}
	return e.Total / trace.Time(e.Count)
}

// PEStats aggregates one processor.
type PEStats struct {
	PE     trace.PE
	Blocks int
	Busy   trace.Time
	Idle   trace.Time
}

// Report is a full trace profile.
type Report struct {
	// Entries, sorted by descending total time; only entries with at least
	// one execution appear.
	Entries []EntryStats
	// PEs, indexed by processor.
	PEs []PEStats
	// Messages counts recorded sends; CrossPE counts the (send, receive)
	// pairs whose endpoints ran on different processors.
	Messages int
	CrossPE  int
	// Span is the trace's overall virtual-time extent.
	Span trace.Time
}

// Build computes the profile of a trace. CrossPE needs the trace's index: on
// a trace never indexed it stays 0.
func Build(tr *trace.Trace) *Report {
	r := &Report{PEs: make([]PEStats, tr.NumPE)}
	byEntry := make(map[trace.EntryID]*EntryStats)
	for i := range r.PEs {
		r.PEs[i].PE = trace.PE(i)
	}
	for i := range tr.Blocks {
		b := &tr.Blocks[i]
		es := byEntry[b.Entry]
		if es == nil {
			es = &EntryStats{Entry: b.Entry, Name: tr.Entries[b.Entry].Name, Min: 1<<62 - 1}
			byEntry[b.Entry] = es
		}
		d := b.Duration()
		es.Count++
		es.Total += d
		es.Events += len(b.Events)
		if d < es.Min {
			es.Min = d
		}
		if d > es.Max {
			es.Max = d
		}
		r.PEs[b.PE].Blocks++
		r.PEs[b.PE].Busy += d
	}
	for _, idle := range tr.Idles {
		r.PEs[idle.PE].Idle += idle.Duration()
	}
	for _, ev := range tr.Events {
		if ev.Kind != trace.Send || ev.Msg == trace.NoMsg {
			continue
		}
		r.Messages++
		if !tr.Indexed() {
			continue // receives are matched through the index
		}
		for _, recv := range tr.MatchingRecvs(ev.ID) {
			if tr.Events[recv].PE != ev.PE {
				r.CrossPE++
			}
		}
	}
	for _, es := range byEntry {
		r.Entries = append(r.Entries, *es)
	}
	sort.Slice(r.Entries, func(i, j int) bool {
		if r.Entries[i].Total != r.Entries[j].Total {
			return r.Entries[i].Total > r.Entries[j].Total
		}
		return r.Entries[i].Entry < r.Entries[j].Entry
	})
	lo, hi := tr.Span()
	r.Span = hi - lo
	return r
}

// String renders the profile as tables.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "entry methods by total time (span %d ns):\n", r.Span)
	fmt.Fprintf(&b, "  %-32s %8s %12s %10s %10s %10s %8s\n",
		"entry", "count", "total", "mean", "min", "max", "events")
	for i := range r.Entries {
		e := &r.Entries[i]
		fmt.Fprintf(&b, "  %-32s %8d %12d %10d %10d %10d %8d\n",
			e.Name, e.Count, e.Total, e.Mean(), e.Min, e.Max, e.Events)
	}
	fmt.Fprintf(&b, "processors:\n")
	fmt.Fprintf(&b, "  %-4s %8s %12s %12s %9s\n", "pe", "blocks", "busy", "idle", "busy%")
	for i := range r.PEs {
		p := &r.PEs[i]
		pct := 0.0
		if r.Span > 0 {
			pct = 100 * float64(p.Busy) / float64(r.Span)
		}
		fmt.Fprintf(&b, "  %-4d %8d %12d %12d %8.1f%%\n", p.PE, p.Blocks, p.Busy, p.Idle, pct)
	}
	fmt.Fprintf(&b, "messages: %d recorded sends, %d cross-processor deliveries\n",
		r.Messages, r.CrossPE)
	return b.String()
}
