// Command chmetrics computes the Section 4 performance metrics over a
// trace's logical structure and reports where they concentrate.
//
// Usage:
//
//	chmetrics -app jacobi-slow
//	chmetrics -in run.trace -metric differential -render
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/trace"
	"charmtrace/internal/viz"
)

func main() {
	input := cli.NewInput(flag.CommandLine)
	flag.BoolVar(&input.MP, "mp", false, "treat a file input as a message-passing trace")
	metric := flag.String("metric", "differential", "metric: differential | idle | imbalance | lateness")
	top := flag.Int("top", 10, "events to list")
	render := flag.Bool("render", false, "render the metric over the logical structure")
	timing := flag.Bool("timing", false, "print per-stage extraction wall times")
	parallelism := flag.Int("parallelism", 0, "extraction worker count (0 = all cores, 1 = sequential; output is identical)")
	tele := cli.NewTelemetry("chmetrics", flag.CommandLine)
	flag.Parse()
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "chmetrics:", err)
		os.Exit(1)
	}

	tr, opt, err := input.Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, "chmetrics:", err)
		os.Exit(1)
	}
	opt.Parallelism = *parallelism
	input.Label(tele)
	tele.Label("metric", *metric)
	tele.Apply(&opt)
	// Ctrl-C cancels the extraction cooperatively; a second signal kills.
	ctx, stopSignals := cli.SignalContext(context.Background())
	opt.Context = ctx
	s, err := core.Extract(tr, opt)
	stopSignals()
	if err != nil {
		fmt.Fprintln(os.Stderr, "chmetrics:", err)
		os.Exit(1)
	}
	if *timing {
		fmt.Print(s.Stats.TimingReport())
		fmt.Println()
	}
	r := metrics.Compute(s)

	var values []trace.Time
	switch *metric {
	case "differential":
		values = r.DifferentialDuration
	case "idle":
		values = r.IdleExperienced
	case "imbalance":
		values = r.Imbalance
	case "lateness":
		values = metrics.Lateness(s)
	default:
		fmt.Fprintf(os.Stderr, "chmetrics: unknown metric %q\n", *metric)
		os.Exit(1)
	}

	fmt.Printf("metric: %s\n", *metric)
	fmt.Printf("total idle experienced: %d   total imbalance: %d\n",
		r.TotalIdleExperienced(), r.TotalImbalance())
	maxD, at := r.MaxDifferentialDuration()
	if at != trace.NoEvent {
		fmt.Printf("max differential duration: %d at event %d (chare %s, step %d)\n",
			maxD, at, tr.Chares[tr.Events[at].Chare].Name, s.Step[at])
	}

	order := make([]trace.EventID, 0, len(values))
	for e := range values {
		if values[e] > 0 {
			order = append(order, trace.EventID(e))
		}
	}
	sort.Slice(order, func(i, j int) bool { return values[order[i]] > values[order[j]] })
	if len(order) > *top {
		order = order[:*top]
	}
	fmt.Printf("\ntop %d events by %s:\n", len(order), *metric)
	for _, e := range order {
		ev := &tr.Events[e]
		fmt.Printf("  %8d ns  event %-6d %-4s chare %-20s phase %-4d step %d\n",
			values[e], e, ev.Kind, tr.Chares[ev.Chare].Name, s.PhaseOf[e], s.Step[e])
	}
	fmt.Printf("\nper-phase imbalance:\n")
	for pi, d := range r.PhaseImbalance {
		kind := "app"
		if s.Phases[pi].Runtime {
			kind = "runtime"
		}
		fmt.Printf("  phase %-4d %-8s offset %-5d imbalance %d\n",
			pi, kind, s.Phases[pi].Offset, d)
	}
	if *render {
		fmt.Println()
		fmt.Print(viz.LogicalMetric(s, values))
	}
	if err := tele.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "chmetrics:", err)
		os.Exit(1)
	}
}
