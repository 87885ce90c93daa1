// Command structure recovers and displays the logical structure of a trace.
//
// Usage:
//
//	structure -in jacobi.trace                 # from a trace file
//	structure -app lulesh -render logical      # generate and analyze
//	structure -app lassen -render physical
//	structure -app jacobi -svg out.svg
//	structure -app lulesh -no-infer            # the Figure 17 ablation
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"charmtrace/internal/charegroup"
	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
	"charmtrace/internal/viz"
)

func main() {
	input := cli.NewInput(flag.CommandLine)
	flag.BoolVar(&input.MP, "mp", false, "treat a file input as a message-passing trace")
	noReorder := flag.Bool("no-reorder", false, "step events in recorded order (disable §3.2.1)")
	noInfer := flag.Bool("no-infer", false, "disable §3.1.4 dependency inference (Figure 17)")
	render := flag.String("render", "summary", "output: summary | logical | clustered | physical | both")
	svg := flag.String("svg", "", "also write an SVG rendering to this file")
	from := flag.Int64("from", -1, "analyze only blocks within [from, to) virtual ns")
	to := flag.Int64("to", -1, "window end (see -from)")
	timing := flag.Bool("timing", false, "print per-stage extraction wall times")
	parallelism := flag.Int("parallelism", 0, "extraction worker count (0 = all cores, 1 = sequential; output is identical)")
	tele := cli.NewTelemetry("structure", flag.CommandLine)
	flag.Parse()
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "structure:", err)
		os.Exit(1)
	}

	tr, opt, err := input.Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, "structure:", err)
		os.Exit(1)
	}
	opt.Reorder = !*noReorder
	if *noInfer {
		opt.InferDependencies = false
	}
	opt.Parallelism = *parallelism
	input.Label(tele)
	tele.Apply(&opt)
	if *from >= 0 || *to >= 0 {
		lo, hi := tr.Span()
		f, tt := lo, hi+1
		if *from >= 0 {
			f = trace.Time(*from)
		}
		if *to >= 0 {
			tt = trace.Time(*to)
		}
		tr, err = trace.Window(tr, f, tt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "structure:", err)
			os.Exit(1)
		}
		fmt.Printf("window [%d, %d): %d blocks, %d events\n", f, tt, len(tr.Blocks), len(tr.Events))
	}

	// Ctrl-C cancels the extraction cooperatively instead of leaving a
	// half-printed analysis; a second signal kills the process.
	ctx, stopSignals := cli.SignalContext(context.Background())
	opt.Context = ctx
	s, err := core.Extract(tr, opt)
	stopSignals()
	if err != nil {
		fmt.Fprintln(os.Stderr, "structure:", err)
		os.Exit(1)
	}
	if err := s.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "structure: invariant violation:", err)
		os.Exit(1)
	}

	fmt.Printf("events: %d   phases: %d   global steps: 0..%d\n",
		len(tr.Events), s.NumPhases(), s.MaxStep())
	fmt.Printf("initial partitions: %d   enforce rounds: %d\n\n",
		s.Stats.InitialPartitions, s.Stats.EnforceRounds)
	if *timing {
		fmt.Print(s.Stats.TimingReport())
		fmt.Println()
	}
	switch *render {
	case "summary":
		fmt.Print(viz.PhaseSummary(s))
	case "logical":
		fmt.Print(viz.Logical(s))
	case "clustered":
		clusters := charegroup.Exact(s)
		rows := make([]viz.ClusterRow, len(clusters))
		for i := range clusters {
			rows[i] = viz.ClusterRow{
				Representative: clusters[i].Representative,
				Label:          clusters[i].Label(s.Table()),
			}
		}
		fmt.Print(viz.LogicalClustered(s, rows))
	case "physical":
		fmt.Print(viz.Physical(tr, s, 100))
	case "both":
		fmt.Print(viz.Logical(s))
		fmt.Println()
		fmt.Print(viz.Physical(tr, s, 100))
	default:
		fmt.Fprintf(os.Stderr, "structure: unknown -render %q\n", *render)
		os.Exit(1)
	}
	if *svg != "" {
		if err := os.WriteFile(*svg, []byte(viz.LogicalSVG(s)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "structure:", err)
			os.Exit(1)
		}
		fmt.Printf("\nSVG written to %s\n", *svg)
	}
	if err := tele.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "structure:", err)
		os.Exit(1)
	}
}
