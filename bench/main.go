// Command bench is the repository benchmark: one command that generates
// seeded inputs, drives the real charmd and charm-gateway binaries as child
// processes over loopback (and the charmtrace library for the batch path),
// checks every answer, and reports eight end-to-end metrics per workload
// plus a per-layer table from a separate traced run. README.md in this
// directory defines every workload and metric.
//
// The benchmark driver runs one workload at a time:
//
//	go run ./bench --workload warm-explore --seed 3 --seconds 12 --trace 0
//
// and reads the last line of standard output. Without --workload the
// command runs all four workloads and their traced runs, prints every
// metric, and writes bench/out/result-seed<N>.json and
// bench/out/trace-<workload>.json:
//
//	go run ./bench -seed 1
//	go run ./bench -quick                       # smoke: tiny inputs, a few seconds
//	go run ./bench -compare a.json b.json       # deltas against BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	if os.Getenv(batchChildEnv) != "" {
		os.Exit(batchChildMain())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchmarkSpec is BENCHMARK.json as far as the benchmark itself reads it.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed: drives every generated input")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (0 = run_seconds of BENCHMARK.json)")
	workload := fs.String("workload", "", "run one workload and print the driver's result line")
	traced := fs.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	quick := fs.Bool("quick", false, "smoke mode: all four workloads at tiny sizes")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	appendTo := fs.String("append", "", "append one summary line per run to this JSON-lines history file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result files"))
		}
		code, err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		return code
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *quick && *workload == "" {
		*seconds = 1.2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, err := newHarness()
	if err != nil {
		return fail(err)
	}
	defer h.close()

	if *workload != "" {
		res, err := h.driverRun(ctx, *workload, *seed, *seconds, *traced == 1, *quick)
		if err != nil {
			return fail(err)
		}
		for _, f := range res.Failures {
			fmt.Fprintln(stderr, "bench: failure:", f)
		}
		if err := printDriverLine(stdout, res, *traced == 1); err != nil {
			return fail(err)
		}
		return 0
	}

	rep := &report{Env: captureEnv(root, *seed, *seconds, *quick), Workloads: make(map[string]*result)}
	for _, name := range workloadNames {
		fmt.Fprintf(stderr, "== %s: untraced run (%.1fs measured)\n", name, *seconds)
		setups := K.SetupRepeats
		if *quick {
			setups = 1
		}
		res, err := h.runWorkload(ctx, name, runOptions{seed: *seed, seconds: *seconds, setups: setups, quick: *quick})
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Fprintf(stderr, "== %s: traced run\n", name)
		if err := h.addTraced(ctx, res, *quick); err != nil {
			return fail(fmt.Errorf("%s traced run: %w", name, err))
		}
		res.EndToEnd = complete(endToEndDefs, res.EndToEnd)
		res.PerLayer = complete(perLayerDefs(), res.PerLayer)
		rep.Workloads[name] = res
		printResult(stdout, res)
	}
	path := filepath.Join(h.out, fmt.Sprintf("result-seed%d.json", *seed))
	if *quick {
		path = filepath.Join(h.out, "result-quick.json")
	}
	if err := rep.write(path); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", path)
	if *appendTo != "" {
		if err := rep.appendHistory(*appendTo); err != nil {
			return fail(err)
		}
	}
	for _, name := range workloadNames {
		if rep.Workloads[name].Failed > 0 {
			return fail(fmt.Errorf("%s: %d of %d operations failed: %v", name,
				rep.Workloads[name].Failed, rep.Workloads[name].Attempted, rep.Workloads[name].Failures))
		}
	}
	return 0
}

// driverRun is one invocation by the benchmark driver. An untraced run
// reports the end-to-end metrics of a full-length measurement with the
// set-up repeated; a traced run spends half the time on a real run (for the
// program's counters and per-route latency) and then replays a fixed sample
// of the workload's operations in-process under spans.
func (h *harness) driverRun(ctx context.Context, name string, seed int64, seconds float64, traced, quick bool) (*result, error) {
	if !traced {
		return h.runWorkload(ctx, name, runOptions{seed: seed, seconds: seconds, setups: K.SetupRepeats, quick: quick})
	}
	res, err := h.runWorkload(ctx, name, runOptions{seed: seed, seconds: seconds / 2, setups: 1, quick: quick})
	if err != nil {
		return nil, err
	}
	return res, h.addTraced(ctx, res, quick)
}

// addTraced runs the workload's traced run, merges its replay metrics into
// the real run's per-layer metrics and writes the Chrome trace.
func (h *harness) addTraced(ctx context.Context, res *result, quick bool) error {
	tr, err := h.replay(ctx, res.Workload, res.Seed, quick)
	if err != nil {
		return err
	}
	tr.derive(res.PerLayer)
	for k, v := range tr.metrics {
		res.PerLayer[k] = v
	}
	return tr.writeChrome(filepath.Join(h.out, "trace-"+res.Workload+".json"))
}

// printDriverLine prints the one JSON object the driver reads: exactly the
// keys correct, attempted, failed and metrics, each metric {value, unit}.
func printDriverLine(w io.Writer, res *result, traced bool) error {
	src := complete(endToEndDefs, res.EndToEnd)
	if traced {
		src = complete(perLayerDefs(), res.PerLayer)
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]valueUnit)}
	for k, m := range src {
		out.Metrics[k] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printResult prints every metric of one workload by name with its unit.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n%s  seed=%d  attempted=%d  failed=%d\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	for _, d := range endToEndDefs {
		m := res.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s (window IQR %.4f)\n", d.Name, m.Value, m.Unit, m.IQR)
	}
	names := make([]string, 0, len(res.PerLayer))
	for k := range res.PerLayer {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.PerLayer[k]
		fmt.Fprintf(w, "    %-44s %14.4f %s\n", k, m.Value, m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILURE: %s\n", f)
	}
}
