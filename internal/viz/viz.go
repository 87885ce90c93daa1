// Package viz renders recovered logical structures and physical timelines
// as text grids and SVG, standing in for the Ravel visualizations in the
// paper's figures. The logical view plots chares (sub-domain timelines)
// against global logical steps, application chares on top and runtime
// chares grouped at the bottom, cells keyed by phase; the physical view
// plots the same events against bucketed virtual time. Metric overlays
// shade events by a per-event metric, the analogue of the paper's
// idle-experienced / differential-duration / imbalance colourings.
//
// The per-chare and physical renders order rows by chare array and index
// and draw serial blocks, which the trace table does not carry, so they
// require Structure.Trace; the clustered renders (LogicalClustered,
// LogicalClusteredWindow — what charmd serves) read the table only.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// phaseSymbols cycle through visually distinct characters per phase.
const phaseSymbols = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

func symbol(phase int32) byte {
	return phaseSymbols[int(phase)%len(phaseSymbols)]
}

// Symbol returns the display character for a phase — exported so the
// query engine's windowed timelines render with the same alphabet as the
// full grids.
func Symbol(phase int32) byte { return symbol(phase) }

// chareRows orders chares for display: application chares first (by array,
// then index), runtime chares grouped at the bottom (as in the paper's
// figures).
func chareRows(tr *trace.Trace) []trace.ChareID {
	rows := make([]trace.ChareID, 0, len(tr.Chares))
	for _, c := range tr.Chares {
		rows = append(rows, c.ID)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := &tr.Chares[rows[i]], &tr.Chares[rows[j]]
		if a.Runtime != b.Runtime {
			return !a.Runtime
		}
		if a.Array != b.Array {
			return a.Array < b.Array
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.ID < b.ID
	})
	return rows
}

// rowLabel formats a chare's display name at fixed width.
func rowLabel(tr *trace.Trace, c trace.ChareID, width int) string {
	name := tr.Chares[c].Name
	if len(name) > width {
		name = name[:width]
	}
	return fmt.Sprintf("%-*s", width, name)
}

// ruler renders a tick line marking every tenth global step.
func ruler(label, maxStep int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%*s ", label, "")
	for i := 0; i <= maxStep; i++ {
		switch {
		case i%10 == 0:
			b.WriteByte('|')
		case i%5 == 0:
			b.WriteByte('+')
		default:
			b.WriteByte(' ')
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// Logical renders the logical structure as a chare x global-step grid, one
// phase symbol per event position.
func Logical(s *core.Structure) string {
	tr := s.Trace
	maxStep := int(s.MaxStep())
	if maxStep < 0 {
		return "(empty structure)\n"
	}
	const label = 16
	var b strings.Builder
	fmt.Fprintf(&b, "%*s steps 0..%d, %d phases (ruler marks every 10th step)\n", label, "", maxStep, s.NumPhases())
	b.WriteString(ruler(label, maxStep))
	for _, c := range chareRows(tr) {
		row := make([]byte, maxStep+1)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range s.EventsOfChare(c) {
			row[s.Step[e]] = symbol(s.PhaseOf[e])
		}
		b.WriteString(rowLabel(tr, c, label))
		b.WriteByte(' ')
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// LogicalMetric renders the logical grid shaded by a per-event metric:
// digits 1-9 scale with the metric value relative to its maximum; '0' marks
// a zero-metric event. A metric slice shorter than the event table treats
// the missing entries as zero instead of failing (partial overlays happen
// when a caller computes a metric over a trace prefix).
func LogicalMetric(s *core.Structure, metric []trace.Time) string {
	tr := s.Trace
	maxStep := int(s.MaxStep())
	if maxStep < 0 {
		return "(empty structure)\n"
	}
	var max trace.Time
	for _, v := range metric {
		if v > max {
			max = v
		}
	}
	const label = 16
	var b strings.Builder
	fmt.Fprintf(&b, "%*s metric max %d\n", label, "", max)
	for _, c := range chareRows(tr) {
		row := make([]byte, maxStep+1)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range s.EventsOfChare(c) {
			var v trace.Time
			if int(e) < len(metric) {
				v = metric[e]
			}
			switch {
			case max == 0 || v == 0:
				row[s.Step[e]] = '0'
			default:
				d := 1 + int(9*v/(max+1))
				if d > 9 {
					d = 9
				}
				row[s.Step[e]] = byte('0' + d)
			}
		}
		b.WriteString(rowLabel(tr, c, label))
		b.WriteByte(' ')
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// Physical renders the trace against bucketed virtual time: each chare row
// shows its serial blocks ('#', or the phase symbol when a structure is
// given), with '-' marking recorded idle on the chare's processor.
func Physical(tr *trace.Trace, s *core.Structure, buckets int) string {
	lo, hi := tr.Span()
	if hi <= lo {
		return "(empty trace)\n"
	}
	span := hi - lo
	bucketOf := func(t trace.Time) int {
		b := int((t - lo) * trace.Time(buckets) / (span + 1))
		if b >= buckets {
			b = buckets - 1
		}
		return b
	}
	const label = 16
	var b strings.Builder
	fmt.Fprintf(&b, "%*s time %d..%d (%d buckets)\n", label, "", lo, hi, buckets)
	for _, c := range chareRows(tr) {
		row := make([]byte, buckets)
		for i := range row {
			row[i] = '.'
		}
		for _, idle := range tr.Idles {
			if idle.PE != tr.Chares[c].Home {
				continue
			}
			for i := bucketOf(idle.Begin); i <= bucketOf(idle.End); i++ {
				row[i] = '-'
			}
		}
		for _, bid := range tr.BlocksOfChare(c) {
			blk := &tr.Blocks[bid]
			mark := byte('#')
			if s != nil && len(blk.Events) > 0 {
				mark = symbol(s.PhaseOf[blk.Events[0]])
			}
			for i := bucketOf(blk.Begin); i <= bucketOf(blk.End); i++ {
				row[i] = mark
			}
		}
		b.WriteString(rowLabel(tr, c, label))
		b.WriteByte(' ')
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// LogicalClustered renders one row per behavioural cluster instead of per
// chare (see internal/charegroup): the representative chare's timeline stands
// for the whole group, labelled with its multiplicity. This is the
// scalable rendering the paper's conclusion asks for.
func LogicalClustered(s *core.Structure, rows []ClusterRow) string {
	maxStep := int(s.MaxStep())
	if maxStep < 0 {
		return "(empty structure)\n"
	}
	const label = 24
	var b strings.Builder
	fmt.Fprintf(&b, "%*s steps 0..%d, %d phases, %d rows for %d chares\n",
		label, "", maxStep, s.NumPhases(), len(rows), s.Table().NumChares())
	for _, cr := range rows {
		row := make([]byte, maxStep+1)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range s.EventsOfChare(cr.Representative) {
			row[s.Step[e]] = symbol(s.PhaseOf[e])
		}
		name := cr.Label
		if len(name) > label {
			name = name[:label]
		}
		fmt.Fprintf(&b, "%-*s ", label, name)
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// ClusterRow is one rendered cluster (defined here so viz does not import
// the cluster package; callers map cluster.Cluster into it).
type ClusterRow struct {
	Representative trace.ChareID
	Label          string
}

// LogicalClusteredWindow renders the clustered logical view restricted to
// the inclusive global-step window [from, to] — the render behind the
// query engine's select=viz, which serves a step slice of a large
// structure without shipping the full grid. An inverted or out-of-range
// window renders as empty.
func LogicalClusteredWindow(s *core.Structure, rows []ClusterRow, from, to int32) string {
	maxStep := s.MaxStep()
	if from < 0 {
		from = 0
	}
	if to > maxStep {
		to = maxStep
	}
	if maxStep < 0 || to < from {
		return "(empty window)\n"
	}
	const label = 24
	var b strings.Builder
	fmt.Fprintf(&b, "%*s steps %d..%d of 0..%d, %d rows for %d chares\n",
		label, "", from, to, maxStep, len(rows), s.Table().NumChares())
	for _, cr := range rows {
		row := make([]byte, int(to-from)+1)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range s.EventsOfChare(cr.Representative) {
			if st := s.Step[e]; st >= from && st <= to {
				row[st-from] = symbol(s.PhaseOf[e])
			}
		}
		name := cr.Label
		if len(name) > label {
			name = name[:label]
		}
		fmt.Fprintf(&b, "%-*s ", label, name)
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// svg layout constants.
const (
	cellW, cellH = 14, 16
	marginX      = 140
	marginY      = 24
)

// phaseColor picks a stable colour per phase (golden-angle hue walk;
// runtime phases are greyed).
func phaseColor(s *core.Structure, phase int32) string {
	if s.Phases[phase].Runtime {
		return "#9a9a9a"
	}
	hue := (int(phase) * 137) % 360
	return fmt.Sprintf("hsl(%d,65%%,55%%)", hue)
}

// LogicalSVG renders the logical structure as SVG: one rectangle per event
// at (global step, chare row), coloured by phase, with message lines from
// each send to its receives.
func LogicalSVG(s *core.Structure) string {
	tr := s.Trace
	rows := chareRows(tr)
	rowOf := make(map[trace.ChareID]int, len(rows))
	for i, c := range rows {
		rowOf[c] = i
	}
	maxStep := int(s.MaxStep())
	w := marginX + (maxStep+2)*cellW
	h := marginY + (len(rows)+1)*cellH
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="10">`+"\n", w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	cx := func(step int32) int { return marginX + int(step)*cellW + cellW/2 }
	cy := func(row int) int { return marginY + row*cellH + cellH/2 }
	// Message lines beneath the event marks.
	for e := range tr.Events {
		ev := &tr.Events[e]
		if ev.Kind != trace.Send || ev.Msg == trace.NoMsg {
			continue
		}
		for _, r := range tr.RecvsOf(ev.Msg) {
			rev := &tr.Events[r]
			fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#cccccc" stroke-width="1"/>`+"\n",
				cx(s.Step[e]), cy(rowOf[ev.Chare]), cx(s.Step[r]), cy(rowOf[rev.Chare]))
		}
	}
	for i, c := range rows {
		fmt.Fprintf(&b, `<text x="4" y="%d">%s</text>`+"\n", cy(i)+4, tr.Chares[c].Name)
		for _, e := range s.EventsOfChare(c) {
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"><title>%s step %d phase %d</title></rect>`+"\n",
				marginX+int(s.Step[e])*cellW+1, marginY+i*cellH+1, cellW-2, cellH-2,
				phaseColor(s, s.PhaseOf[e]), tr.Events[e].Kind, s.Step[e], s.PhaseOf[e])
		}
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// PhaseSummary prints one line per phase ordered by global offset: kind,
// leap, offset, step span, chare and event counts — the textual form of the
// paper's phase-coloured figures.
func PhaseSummary(s *core.Structure) string {
	order := make([]int32, len(s.Phases))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := &s.Phases[order[i]], &s.Phases[order[j]]
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return a.ID < b.ID
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-5s %-8s %-4s %-6s %-12s %-7s %-7s\n",
		"phase", "sym", "kind", "leap", "offset", "steps", "chares", "events")
	for _, pi := range order {
		p := &s.Phases[pi]
		kind := "app"
		if p.Runtime {
			kind = "runtime"
		}
		lo, hi := p.GlobalSpan()
		fmt.Fprintf(&b, "%-6d %-5c %-8s %-4d %-6d %3d..%-6d %-7d %-7d\n",
			pi, symbol(int32(pi)), kind, p.Leap, p.Offset, lo, hi, len(p.Chares), len(p.Events))
	}
	return b.String()
}
