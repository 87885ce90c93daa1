// Package structdiff compares two recovered logical structures — across
// seeds, tracing configurations, algorithm options or code versions — and
// reports where they diverge. Because the logical structure is supposed to
// be invariant to scheduling non-determinism, diffing structures from
// different seeds of the same workload is the practical test of that
// invariance; a non-empty diff localizes exactly which chares or phases
// moved.
package structdiff

import (
	"fmt"
	"sort"
	"strings"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// Diff is the comparison result.
type Diff struct {
	// PhaseCount holds the two phase counts when they differ (else nil).
	PhaseCount *[2]int
	// MaxStep holds the two global step maxima when they differ.
	MaxStep *[2]int32
	// PatternA/PatternB are the offset-ordered phase kind sequences when
	// they differ.
	PatternA, PatternB string
	// Chares lists per-chare divergences.
	Chares []ChareDiff
}

// ChareDiff describes one chare whose logical timeline differs.
type ChareDiff struct {
	Chare trace.ChareID
	Name  string
	// LenA/LenB are the timeline lengths.
	LenA, LenB int
	// FirstDivergence is the first position where the step sequences or
	// event kinds differ (-1 when only the lengths differ).
	FirstDivergence int
}

// Empty reports whether the structures are equivalent.
func (d *Diff) Empty() bool {
	return d.PhaseCount == nil && d.MaxStep == nil && d.PatternA == d.PatternB && len(d.Chares) == 0
}

// String renders a human-readable report.
func (d *Diff) String() string {
	if d.Empty() {
		return "structures equivalent\n"
	}
	var b strings.Builder
	if d.PhaseCount != nil {
		fmt.Fprintf(&b, "phase count: %d vs %d\n", d.PhaseCount[0], d.PhaseCount[1])
	}
	if d.MaxStep != nil {
		fmt.Fprintf(&b, "max global step: %d vs %d\n", d.MaxStep[0], d.MaxStep[1])
	}
	if d.PatternA != d.PatternB {
		fmt.Fprintf(&b, "phase pattern:\n  A: %s\n  B: %s\n", d.PatternA, d.PatternB)
	}
	for _, c := range d.Chares {
		if c.FirstDivergence < 0 {
			fmt.Fprintf(&b, "chare %s: timeline length %d vs %d\n", c.Name, c.LenA, c.LenB)
		} else {
			fmt.Fprintf(&b, "chare %s: timelines diverge at position %d\n", c.Name, c.FirstDivergence)
		}
	}
	return b.String()
}

// Compare diffs two structures of traces with the same chare population
// (same workload; possibly different seeds, tracing options or extraction
// options). Timelines are compared by (step offset shape, event kind)
// rather than raw event IDs, so traces with different message interleavings
// still compare equal when their logical shapes match.
func Compare(a, b *core.Structure) (*Diff, error) {
	ta, tb := a.Table(), b.Table()
	if ta.NumChares() != tb.NumChares() {
		return nil, fmt.Errorf("structdiff: chare populations differ (%d vs %d)",
			ta.NumChares(), tb.NumChares())
	}
	d := &Diff{PatternA: pattern(a), PatternB: pattern(b)}
	if a.NumPhases() != b.NumPhases() {
		d.PhaseCount = &[2]int{a.NumPhases(), b.NumPhases()}
	}
	if a.MaxStep() != b.MaxStep() {
		d.MaxStep = &[2]int32{a.MaxStep(), b.MaxStep()}
	}
	for ci, name := range ta.Name {
		c := trace.ChareID(ci)
		sa, sb := a.EventsOfChare(c), b.EventsOfChare(c)
		cd := ChareDiff{Chare: c, Name: name, LenA: len(sa), LenB: len(sb), FirstDivergence: -1}
		if len(sa) != len(sb) {
			d.Chares = append(d.Chares, cd)
			continue
		}
		for i := range sa {
			if ta.Kind[sa[i]] != tb.Kind[sb[i]] || a.Step[sa[i]] != b.Step[sb[i]] {
				cd.FirstDivergence = i
				d.Chares = append(d.Chares, cd)
				break
			}
		}
	}
	return d, nil
}

// pattern renders the offset-ordered phase kind sequence ("a R a R ...").
func pattern(s *core.Structure) string {
	order := make([]int32, len(s.Phases))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		if s.Phases[order[i]].Offset != s.Phases[order[j]].Offset {
			return s.Phases[order[i]].Offset < s.Phases[order[j]].Offset
		}
		return order[i] < order[j]
	})
	var parts []string
	for i := 0; i < len(order); {
		j := i
		for j < len(order) &&
			s.Phases[order[j]].Offset == s.Phases[order[i]].Offset &&
			s.Phases[order[j]].Runtime == s.Phases[order[i]].Runtime {
			j++
		}
		sym := "a"
		if s.Phases[order[i]].Runtime {
			sym = "R"
		}
		if n := j - i; n > 1 {
			sym = fmt.Sprintf("%s*%d", sym, n)
		}
		parts = append(parts, sym)
		i = j
	}
	return strings.Join(parts, " ")
}
