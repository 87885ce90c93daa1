// Command tracegen runs a simulated workload and writes its event trace.
//
// Usage:
//
//	tracegen -app jacobi -o jacobi.trace
//	tracegen -app mergetree -scale 256 -seed 7 -o mt.trace
//	tracegen -list
package main

import (
	"flag"
	"fmt"
	"os"

	"charmtrace/internal/cli"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

func main() {
	app := flag.String("app", "jacobi", "workload to run (-list shows all)")
	out := flag.String("o", "", "output trace file (default: <app>.trace)")
	iters := flag.Int("iters", 0, "iteration override (0 = workload default)")
	scale := flag.Int("scale", 0, "size override (0 = workload default)")
	seed := flag.Int64("seed", 0, "seed override (0 = workload default)")
	noRed := flag.Bool("no-reduction-tracing", false, "disable the §5 reduction tracing additions")
	format := flag.String("format", "text", "output format: text, binary, or projections")
	list := flag.Bool("list", false, "list available workloads")
	tele := cli.NewProfiling("tracegen", flag.CommandLine)
	flag.Parse()
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}

	if *list {
		fmt.Print(cli.Describe())
		return
	}
	tr, _, err := cli.Generate(*app, cli.Params{
		Iterations: *iters, Scale: *scale, Seed: *seed, NoReductionTracing: *noRed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = *app + ".trace"
	}
	var write func(string, *trace.Trace) error
	switch *format {
	case "text":
		write = tracefile.WriteFile
	case "binary":
		write = tracefile.WriteFileBinary
	case "projections":
		write = tracefile.WriteFileProjections
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown format %q (want text, binary, or projections)\n", *format)
		os.Exit(1)
	}
	if err := write(path, tr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d chares, %d blocks, %d events -> %s\n",
		*app, len(tr.Chares), len(tr.Blocks), len(tr.Events), path)
	if err := tele.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
