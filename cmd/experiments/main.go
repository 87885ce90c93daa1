// Command experiments regenerates every figure of the paper's evaluation:
// for each figure it runs the corresponding workload(s) on the bundled
// simulators, applies the logical-structure algorithm, and prints the
// series/claims the paper reports alongside the measured values.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run fig16 # one experiment
//	experiments -list
//	experiments -big       # include the full-size fig10/fig19 points
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"charmtrace/internal/cli"
)

// experiment is one reproducible figure.
type experiment struct {
	id    string
	title string
	run   func(big bool)
}

var experiments []experiment

// tele is the shared observability handle; every extraction the experiments
// run goes through helpers.go's extract (or applies tele itself), so
// -stats-json aggregates metrics across all figures of a run.
var tele *cli.Telemetry

func register(id, title string, run func(big bool)) {
	experiments = append(experiments, experiment{id, title, run})
}

func main() {
	runID := flag.String("run", "", "run only this experiment id (e.g. fig16)")
	list := flag.Bool("list", false, "list experiments")
	big := flag.Bool("big", false, "use paper-scale sizes where they are expensive (fig10: 1024 procs, fig19: 13.8k chares)")
	tele = cli.NewTelemetry("experiments", flag.CommandLine)
	flag.Parse()
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	sort.Slice(experiments, func(i, j int) bool { return experiments[i].id < experiments[j].id })
	if *list {
		for _, e := range experiments {
			fmt.Printf("  %-6s %s\n", e.id, e.title)
		}
		return
	}
	ran := false
	for _, e := range experiments {
		if *runID != "" && e.id != *runID {
			continue
		}
		ran = true
		fmt.Printf("================================================================\n")
		fmt.Printf("%s: %s\n", e.id, e.title)
		fmt.Printf("================================================================\n")
		e.run(*big)
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown id %q (use -list)\n", *runID)
		os.Exit(1)
	}
	if err := tele.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
