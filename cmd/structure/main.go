// Command structure recovers and displays the logical structure of a trace,
// reports a §4 metric over it, or prints the trace's Projections-style
// profile.
//
// Usage:
//
//	structure -in jacobi.trace                 # from a trace file
//	structure -app lulesh -render logical      # generate and analyze
//	structure -app lassen -render physical
//	structure -app jacobi -svg out.svg
//	structure -app lulesh -no-infer            # the Figure 17 ablation
//	structure -app jacobi-slow -metric differential -render metric
//	structure -app lulesh -from 1000 -to 20000 -render profile
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"charmtrace/internal/charegroup"
	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/profile"
	"charmtrace/internal/trace"
	"charmtrace/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "structure:", err)
		os.Exit(1)
	}
}

var (
	renders     = []string{"summary", "logical", "clustered", "physical", "both", "metric", "profile"}
	metricNames = []string{"differential", "idle", "imbalance", "lateness"}
	// extract is core.Extract; tests swap it to see which outputs extract.
	extract = core.Extract
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("structure", flag.ExitOnError)
	input := cli.NewInput(fs)
	fs.BoolVar(&input.MP, "mp", false, "treat a file input as a message-passing trace")
	noReorder := fs.Bool("no-reorder", false, "step events in recorded order (disable §3.2.1)")
	noInfer := fs.Bool("no-infer", false, "disable §3.1.4 dependency inference (Figure 17)")
	render := fs.String("render", "summary", "output: summary | logical | clustered | physical | both | metric (the -metric grid) | profile (per-entry profile; no extraction)")
	metric := fs.String("metric", "", "also report a §4 metric: differential | idle | imbalance | lateness")
	top := fs.Int("top", 10, "events to list for -metric")
	svg := fs.String("svg", "", "also write an SVG rendering to this file")
	from := fs.Int64("from", -1, "analyze only blocks within [from, to) virtual ns")
	to := fs.Int64("to", -1, "window end (see -from)")
	timing := fs.Bool("timing", false, "print per-stage extraction wall times")
	parallelism := fs.Int("parallelism", 0, "extraction worker count (0 = all cores, 1 = sequential; output is identical)")
	tele := cli.NewTelemetry("structure", fs)
	fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0
	switch {
	case !slices.Contains(renders, *render):
		return fmt.Errorf("unknown -render %q", *render)
	case *metric != "" && !slices.Contains(metricNames, *metric):
		return fmt.Errorf("unknown -metric %q", *metric)
	case *render == "metric" && *metric == "":
		return errors.New("-render metric needs -metric")
	}
	if err := tele.Start(); err != nil {
		return err
	}

	tr, opt, err := input.Load()
	if err != nil {
		return err
	}
	opt.Reorder = !*noReorder
	if *noInfer {
		opt.InferDependencies = false
	}
	opt.Parallelism = *parallelism
	input.Label(tele)
	if *metric != "" {
		tele.Label("metric", *metric)
	}
	tele.Apply(&opt)
	windowed := *from >= 0 || *to >= 0
	if windowed {
		lo, hi := tr.Span()
		f, tt := lo, hi+1
		if *from >= 0 {
			f = trace.Time(*from)
		}
		if *to >= 0 {
			tt = trace.Time(*to)
		}
		if tr, err = trace.Window(tr, f, tt); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "window [%d, %d): %d blocks, %d events\n", f, tt, len(tr.Blocks), len(tr.Events))
	}
	if *render == "profile" {
		if windowed {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, profile.Build(tr).String())
		return tele.Close()
	}

	// Ctrl-C cancels the extraction cooperatively instead of leaving a
	// half-printed analysis; a second signal kills the process.
	ctx, stopSignals := cli.SignalContext(context.Background())
	opt.Context = ctx
	s, err := extract(tr, opt)
	stopSignals()
	if err != nil {
		return err
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("invariant violation: %w", err)
	}

	fmt.Fprintf(stdout, "events: %d   phases: %d   global steps: 0..%d\n",
		len(tr.Events), s.NumPhases(), s.MaxStep())
	fmt.Fprintf(stdout, "initial partitions: %d   enforce rounds: %d\n\n",
		s.Stats.InitialPartitions, s.Stats.EnforceRounds)
	if *timing {
		fmt.Fprint(stdout, s.Stats.TimingReport())
		fmt.Fprintln(stdout)
	}
	var r *metrics.Report
	var values []trace.Time
	if *metric != "" {
		r = metrics.Compute(s)
		switch *metric {
		case "differential":
			values = r.DifferentialDuration
		case "idle":
			values = r.IdleExperienced
		case "imbalance":
			values = r.Imbalance
		default:
			values = metrics.Lateness(s)
		}
	}
	switch *render {
	case "summary":
		fmt.Fprint(stdout, viz.PhaseSummary(s))
	case "logical":
		fmt.Fprint(stdout, viz.Logical(s))
	case "clustered":
		clusters := charegroup.Exact(s)
		rows := make([]viz.ClusterRow, len(clusters))
		for i := range clusters {
			rows[i] = viz.ClusterRow{
				Representative: clusters[i].Representative,
				Label:          clusters[i].Label(s.Table()),
			}
		}
		fmt.Fprint(stdout, viz.LogicalClustered(s, rows))
	case "physical":
		fmt.Fprint(stdout, viz.Physical(tr, s, 100))
	case "both":
		fmt.Fprint(stdout, viz.Logical(s))
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, viz.Physical(tr, s, 100))
	case "metric":
		fmt.Fprint(stdout, viz.LogicalMetric(s, values))
	}
	if *svg != "" {
		if err := os.WriteFile(*svg, []byte(viz.LogicalSVG(s)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nSVG written to %s\n", *svg)
	}
	if *metric != "" {
		fmt.Fprintln(stdout)
		metricReport(stdout, tr, s, r, *metric, values, *top)
	}
	return tele.Close()
}

// metricReport prints the §4 totals, the top events by the named metric and
// the per-phase imbalance.
func metricReport(w io.Writer, tr *trace.Trace, s *core.Structure, r *metrics.Report, name string, values []trace.Time, top int) {
	fmt.Fprintf(w, "metric: %s\n", name)
	fmt.Fprintf(w, "total idle experienced: %d   total imbalance: %d\n",
		r.TotalIdleExperienced(), r.TotalImbalance())
	maxD, at := r.MaxDifferentialDuration()
	if at != trace.NoEvent {
		fmt.Fprintf(w, "max differential duration: %d at event %d (chare %s, step %d)\n",
			maxD, at, tr.Chares[tr.Events[at].Chare].Name, s.Step[at])
	}

	order := make([]trace.EventID, 0, len(values))
	for e := range values {
		if values[e] > 0 {
			order = append(order, trace.EventID(e))
		}
	}
	sort.Slice(order, func(i, j int) bool { return values[order[i]] > values[order[j]] })
	if len(order) > top {
		order = order[:top]
	}
	fmt.Fprintf(w, "\ntop %d events by %s:\n", len(order), name)
	for _, e := range order {
		ev := &tr.Events[e]
		fmt.Fprintf(w, "  %8d ns  event %-6d %-4s chare %-20s phase %-4d step %d\n",
			values[e], e, ev.Kind, tr.Chares[ev.Chare].Name, s.PhaseOf[e], s.Step[e])
	}
	fmt.Fprintf(w, "\nper-phase imbalance:\n")
	for pi, d := range r.PhaseImbalance {
		kind := "app"
		if s.Phases[pi].Runtime {
			kind = "runtime"
		}
		fmt.Fprintf(w, "  phase %-4d %-8s offset %-5d imbalance %d\n",
			pi, kind, s.Phases[pi].Offset, d)
	}
}
