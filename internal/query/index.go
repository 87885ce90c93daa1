package query

import (
	"sort"

	"charmtrace/internal/core"
	"charmtrace/internal/flat"
	"charmtrace/internal/metrics"
	"charmtrace/internal/trace"
)

// metric identifies one per-event §4 metric column. The order is the
// canonical column order for rollups and metrics rows.
type metric int

const (
	mSubDur metric = iota
	mIdle
	mDiff
	mImbalance
	numMetrics
)

// The Rollup.Sum/Max columns callers outside the package read.
const (
	ColIdleExperienced      = int(mIdle)
	ColDifferentialDuration = int(mDiff)
	ColImbalance            = int(mImbalance)
)

// metricNames are the JSON column names, indexed by metric.
var metricNames = [numMetrics]string{
	"sub_dur",
	"idle_experienced",
	"differential_duration",
	"imbalance",
}

// Rollup aggregates the §4 metrics over one group (a phase or a chare).
type Rollup struct {
	Events int64
	Sum    [numMetrics]int64
	Max    [numMetrics]int64
}

func (r *Rollup) observe(vals [numMetrics]trace.Time) {
	r.Events++
	for m, v := range vals {
		r.Sum[m] += int64(v)
		if int64(v) > r.Max[m] {
			r.Max[m] = int64(v)
		}
	}
}

// Index is the one-time per-structure acceleration structure every query
// executes against. It is immutable once built and safe for concurrent
// readers; resultcache caches it alongside the decoded structure so repeat
// queries never rescan the trace.
type Index struct {
	S *core.Structure
	// Tab is S.Table(): the trace-side columns rows are rendered from.
	Tab *trace.Table
	// Report holds the §4 per-event metrics: the structure's shared report
	// (metrics.Shared), computed once per structure.
	Report *metrics.Report
	// PhaseOrder lists phase indices sorted by (first global step, ID) —
	// the stable row order of select=structure.
	PhaseOrder []int32
	// EventRows lists every dependency event sorted by (global step,
	// chare, event ID) — the stable row order of select=steps and
	// ungrouped select=metrics. Step-range filters binary-search it.
	EventRows []trace.EventID
	// ChareEvents lists each chare's events in EventRows order, so
	// chare-filtered queries touch only the chares they select.
	ChareEvents [][]trace.EventID
	// PhaseRollup and ChareRollup pre-aggregate the metrics per phase and
	// per chare, serving unfiltered group-by queries in O(groups).
	PhaseRollup []Rollup
	ChareRollup []Rollup

	bytes int64
}

// BuildIndex constructs the index for a structure. Cost is one
// metrics.Compute pass (none when the structure's shared report already
// exists) plus two groupings of the events; Bytes reports
// the resident estimate for cache memory accounting.
func BuildIndex(s *core.Structure) *Index {
	tab := s.Table()
	nEvents, nChares := tab.NumEvents(), tab.NumChares()
	idx := &Index{
		S:           s,
		Tab:         tab,
		Report:      metrics.Shared(s),
		PhaseOrder:  make([]int32, len(s.Phases)),
		ChareEvents: make([][]trace.EventID, nChares),
		PhaseRollup: make([]Rollup, len(s.Phases)),
		ChareRollup: make([]Rollup, nChares),
	}
	for i := range idx.PhaseOrder {
		idx.PhaseOrder[i] = int32(i)
	}
	sort.SliceStable(idx.PhaseOrder, func(i, j int) bool {
		a, b := &s.Phases[idx.PhaseOrder[i]], &s.Phases[idx.PhaseOrder[j]]
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return a.ID < b.ID
	})

	// EventRows is (step, chare, event ID) order: events grouped by chare are
	// in (chare, ID) order, and grouping those by step — a stable sort —
	// produces it without a comparator. The chare rows also carve ChareEvents
	// out of one backing array. Every event of a structure has a step (the
	// codec and Validate refuse one without).
	byChare := flat.GroupAll[trace.EventID](nChares, nil, nil, tab.Chare)
	idx.EventRows = flat.Group[trace.EventID](int(s.MaxStep())+1, nil, nil, byChare.IDs, s.Step).IDs
	for c := range idx.ChareEvents {
		idx.ChareEvents[c] = byChare.IDs[byChare.Off[c]:byChare.Off[c]:byChare.Off[c+1]]
	}
	for _, e := range idx.EventRows {
		c := tab.Chare[e]
		idx.ChareEvents[c] = append(idx.ChareEvents[c], e)
		vals := idx.metricsOf(e)
		if p := s.PhaseOf[e]; p >= 0 {
			idx.PhaseRollup[p].observe(vals)
		}
		idx.ChareRollup[c].observe(vals)
	}

	const idSize = 4
	idx.bytes = int64(len(idx.EventRows))*idSize*2 + // EventRows + ChareEvents
		int64(len(idx.PhaseOrder))*idSize +
		int64(len(idx.PhaseRollup)+len(idx.ChareRollup))*int64(8*(1+2*int(numMetrics))) +
		int64(nEvents)*8*2 // Report's own per-event slices; the other two are the table's
	return idx
}

// metricsOf gathers an event's metric column values.
func (x *Index) metricsOf(e trace.EventID) [numMetrics]trace.Time {
	return [numMetrics]trace.Time{
		mSubDur:    x.Report.SubDur[e],
		mIdle:      x.Report.IdleExperienced[e],
		mDiff:      x.Report.DifferentialDuration[e],
		mImbalance: x.Report.Imbalance[e],
	}
}

// Bytes estimates the index's resident size beyond the structure itself,
// for cache memory accounting.
func (x *Index) Bytes() int64 { return x.bytes }

// stepWindow returns the half-open range [lo, hi) of EventRows whose
// global step lies in the inclusive [from, to] window — the binary search
// that makes step slicing independent of trace size.
func (x *Index) stepWindow(from, to int32) (int, int) {
	lo := sort.Search(len(x.EventRows), func(i int) bool {
		return x.S.Step[x.EventRows[i]] >= from
	})
	hi := sort.Search(len(x.EventRows), func(i int) bool {
		return x.S.Step[x.EventRows[i]] > to
	})
	return lo, hi
}

// chareStepWindow is stepWindow over one chare's event list.
func (x *Index) chareStepWindow(c trace.ChareID, from, to int32) (int, int) {
	rows := x.ChareEvents[c]
	lo := sort.Search(len(rows), func(i int) bool { return x.S.Step[rows[i]] >= from })
	hi := sort.Search(len(rows), func(i int) bool { return x.S.Step[rows[i]] > to })
	return lo, hi
}
