package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/profile"
	"charmtrace/internal/trace"
	"charmtrace/internal/viz"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("structure %s: %v", strings.Join(args, " "), err)
	}
	return b.String()
}

// TestRenderProfile: -render profile prints the trace's profile — of the
// window when -from/-to are given, after the window line — and extracts
// nothing.
func TestRenderProfile(t *testing.T) {
	extract = func(*trace.Trace, core.Options) (*core.Structure, error) {
		t.Error("-render profile extracted")
		return nil, errors.New("no extraction expected")
	}
	t.Cleanup(func() { extract = core.Extract })
	tr, _, err := cli.Generate("lulesh", cli.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runOut(t, "-app", "lulesh", "-render", "profile"), profile.Build(tr).String(); got != want {
		t.Errorf("profile output differs from profile.Build:\n%s\nwant:\n%s", got, want)
	}
	w, err := trace.Window(tr, 1000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("window [1000, 20000): %d blocks, %d events\n\n", len(w.Blocks), len(w.Events)) + profile.Build(w).String()
	if got := runOut(t, "-app", "lulesh", "-from", "1000", "-to", "20000", "-render", "profile"); got != want {
		t.Errorf("windowed profile output:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricReport: every -metric prints the totals and per-phase
// imbalance metrics.Compute finds on jacobi-slow, after the structure
// output; -render metric draws the chosen metric's grid.
func TestMetricReport(t *testing.T) {
	tr, opt, err := cli.Generate("jacobi-slow", cli.Params{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.Compute(s)
	totals := fmt.Sprintf("total idle experienced: %d   total imbalance: %d\n", r.TotalIdleExperienced(), r.TotalImbalance())
	var phases strings.Builder
	phases.WriteString("\nper-phase imbalance:\n")
	for pi, d := range r.PhaseImbalance {
		kind := "app"
		if s.Phases[pi].Runtime {
			kind = "runtime"
		}
		fmt.Fprintf(&phases, "  phase %-4d %-8s offset %-5d imbalance %d\n", pi, kind, s.Phases[pi].Offset, d)
	}
	for _, m := range metricNames {
		out := runOut(t, "-app", "jacobi-slow", "-metric", m)
		if !strings.Contains(out, viz.PhaseSummary(s)+"\nmetric: "+m+"\n"+totals) {
			t.Errorf("-metric %s: no summary then metric and totals lines in\n%s", m, out)
		}
		if !strings.HasSuffix(out, phases.String()) {
			t.Errorf("-metric %s: per-phase imbalance differs from metrics.Compute:\n%s\nwant suffix:\n%s", m, out, phases.String())
		}
	}
	out := runOut(t, "-app", "jacobi-slow", "-metric", "differential", "-render", "metric")
	if !strings.Contains(out, viz.LogicalMetric(s, r.DifferentialDuration)) {
		t.Errorf("-render metric does not draw the differential-duration grid:\n%s", out)
	}
}

// TestUnknownValues: a -metric or -render value the command does not know,
// or -render metric without a metric, is an error.
func TestUnknownValues(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "jacobi", "-metric", "nope"},
		{"-app", "jacobi", "-render", "nope"},
		{"-app", "jacobi", "-render", "metric"},
	} {
		if err := run(args, new(strings.Builder)); err == nil {
			t.Errorf("structure %s: no error", strings.Join(args, " "))
		}
	}
}
