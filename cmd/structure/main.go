// Command structure is the offline analysis command: it recovers and
// displays the logical structure of a trace, reports a §4 metric over it,
// prints the trace's Projections-style profile, writes the trace itself, or
// answers one charmd query or LOD spec over it locally.
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
//	structure -app jacobi -render trace -format binary > jacobi.trace
//	structure -in run.trace -render query -spec '{"select":"steps","limit":10}'
//	structure -app jacobi -render lod -spec '{"resolution":8}'
//	structure -list                            # the workloads -app knows
package main

import (
	"context"
	"encoding/json"
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
	"charmtrace/internal/lod"
	"charmtrace/internal/metrics"
	"charmtrace/internal/profile"
	"charmtrace/internal/query"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
	"charmtrace/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "structure:", err)
		os.Exit(1)
	}
}

var (
	renders     = []string{"summary", "logical", "clustered", "physical", "both", "metric", "profile", "trace", "query", "lod"}
	metricNames = []string{"differential", "idle", "imbalance", "lateness"}
	// writers are the -render trace encodings.
	writers = map[string]func(io.Writer, *trace.Trace) error{
		"text": tracefile.Write, "binary": tracefile.WriteBinary,
	}
	// extract is core.Extract; tests swap it to see which outputs extract.
	extract = core.Extract
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("structure", flag.ExitOnError)
	input := cli.NewInput(fs)
	fs.BoolVar(&input.MP, "mp", false, "treat a file input as a message-passing trace")
	noReorder := fs.Bool("no-reorder", false, "step events in recorded order (disable §3.2.1)")
	noInfer := fs.Bool("no-infer", false, "disable §3.1.4 dependency inference (Figure 17)")
	list := fs.Bool("list", false, "list the workloads -app generates")
	render := fs.String("render", "summary", "output: summary | logical | clustered | physical | both | metric (the -metric grid) | profile (per-entry profile; no extraction) | trace (the trace in -format; no extraction) | query | lod (the -spec result as JSON)")
	format := fs.String("format", "text", "-render trace encoding: text | binary")
	spec := fs.String("spec", "", "-render query|lod: the JSON body of charmd's POST .../query or .../lod (@file reads it from a file)")
	metric := fs.String("metric", "", "also report a §4 metric: differential | idle | imbalance | lateness")
	top := fs.Int("top", 10, "events to list for -metric")
	svg := fs.String("svg", "", "also write an SVG rendering to this file")
	from := fs.Int64("from", -1, "analyze only blocks within [from, to) virtual ns")
	to := fs.Int64("to", -1, "window end (see -from)")
	timing := fs.Bool("timing", false, "print per-stage extraction wall times")
	parallelism := fs.Int("parallelism", 0, "extraction worker count (0 = all cores, 1 = sequential; output is identical)")
	tele := cli.NewTelemetry("structure", fs)
	fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0
	if *list {
		fmt.Fprint(stdout, cli.Describe())
		return nil
	}
	// trace, query and lod are machine-readable: nothing else goes to stdout.
	specRender := *render == "query" || *render == "lod"
	machine := specRender || *render == "trace"
	switch {
	case !slices.Contains(renders, *render):
		return fmt.Errorf("unknown -render %q", *render)
	case *metric != "" && !slices.Contains(metricNames, *metric):
		return fmt.Errorf("unknown -metric %q", *metric)
	case writers[*format] == nil:
		return fmt.Errorf("unknown -format %q (want text or binary)", *format)
	case *render == "metric" && *metric == "":
		return errors.New("-render metric needs -metric")
	case machine && (*metric != "" || *svg != "" || *timing):
		return fmt.Errorf("-render %s prints only its own output: -metric, -svg and -timing do not apply", *render)
	case specRender && *spec == "":
		return fmt.Errorf("-render %s needs -spec", *render)
	case !specRender && *spec != "":
		return errors.New("-spec needs -render query or -render lod")
	}
	var qspec query.Spec
	var lspec lod.Spec
	if specRender {
		r, err := cli.SpecArg(*spec)
		if err != nil {
			return err
		}
		if *render == "query" {
			qspec, err = query.ParseSpec(r)
		} else if lspec, err = lod.ParseSpec(r); err == nil && lspec.Diff != "" {
			err = errors.New("-render lod: a diff spec needs a second trace; ask charmd for the overlay")
		}
		if err != nil {
			return err
		}
	}
	if err := tele.Start(); err != nil {
		return err
	}
	info := stdout
	if machine {
		info = os.Stderr
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
		fmt.Fprintf(info, "window [%d, %d): %d blocks, %d events\n", f, tt, len(tr.Blocks), len(tr.Events))
	}
	switch *render {
	case "profile":
		if windowed {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, profile.Build(tr).String())
		return tele.Close()
	case "trace":
		if err := writers[*format](stdout, tr); err != nil {
			return err
		}
		name := input.App
		if name == "" {
			name = input.In
		}
		fmt.Fprintf(os.Stderr, "%s: %d chares, %d blocks, %d events\n", name, len(tr.Chares), len(tr.Blocks), len(tr.Events))
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
	// The local twins of charmd's POST .../query and .../lod: the same
	// result, under the options' fingerprint.
	var result any
	switch *render {
	case "query":
		res, qerr := query.Run(context.Background(), query.BuildIndex(s), qspec)
		result, err = struct {
			Fingerprint string `json:"fingerprint"`
			*query.Result
		}{opt.Fingerprint(), res}, qerr
	case "lod":
		res, lerr := lod.Build(s, nil).Query(lspec, nil)
		result, err = struct {
			Fingerprint string `json:"fingerprint"`
			*lod.Result
		}{opt.Fingerprint(), res}, lerr
	}
	if err != nil {
		return err
	}
	if result != nil {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(result); err != nil {
			return err
		}
		return tele.Close()
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
