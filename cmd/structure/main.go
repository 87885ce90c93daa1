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
	"charmtrace/internal/tracefile"
	"charmtrace/internal/viz"
)

// looksMessagePassing reports whether a trace has the process-centric
// shape of §3.4: no runtime chares and at most one dependency event per
// serial block.
func looksMessagePassing(tr *trace.Trace) bool {
	for i := range tr.Chares {
		if tr.Chares[i].Runtime {
			return false
		}
	}
	for i := range tr.Blocks {
		if len(tr.Blocks[i].Events) > 1 {
			return false
		}
	}
	return len(tr.Blocks) > 0
}

func main() {
	in := flag.String("in", "", "input trace file")
	app := flag.String("app", "", "generate this workload instead of reading a file")
	mp := flag.Bool("mp", false, "treat a file input as a message-passing trace")
	noReorder := flag.Bool("no-reorder", false, "step events in recorded order (disable §3.2.1)")
	noInfer := flag.Bool("no-infer", false, "disable §3.1.4 dependency inference (Figure 17)")
	render := flag.String("render", "summary", "output: summary | logical | clustered | physical | both")
	svg := flag.String("svg", "", "also write an SVG rendering to this file")
	iters := flag.Int("iters", 0, "iteration override for -app")
	scale := flag.Int("scale", 0, "size override for -app")
	seed := flag.Int64("seed", 0, "seed override for -app")
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

	var tr *trace.Trace
	var opt core.Options
	var err error
	switch {
	case *app != "":
		tr, opt, err = cli.Generate(*app, cli.Params{Iterations: *iters, Scale: *scale, Seed: *seed})
	case *in != "":
		tr, err = tracefile.ReadFile(*in)
		opt = core.DefaultOptions()
		if *mp || (err == nil && looksMessagePassing(tr)) {
			if !*mp {
				fmt.Println("(detected a message-passing trace: single-event blocks, no runtime chares)")
			}
			opt = core.MessagePassingOptions()
		}
	default:
		err = fmt.Errorf("need -in <file> or -app <workload>; workloads:\n%s", cli.Describe())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "structure:", err)
		os.Exit(1)
	}
	opt.Reorder = !*noReorder
	if *noInfer {
		opt.InferDependencies = false
	}
	opt.Parallelism = *parallelism
	if *app != "" {
		tele.Label("workload", *app)
	} else {
		tele.Label("input", *in)
	}
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
