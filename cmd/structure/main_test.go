package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
		{"-app", "jacobi", "-render", "trace", "-format", "nope"},
		{"-app", "jacobi", "-render", "trace", "-format", "projections"},
	} {
		if err := run(args, new(strings.Builder)); err == nil {
			t.Errorf("structure %s: no error", strings.Join(args, " "))
		}
	}
}

// noExtract makes any extraction during the test an error.
func noExtract(t *testing.T, what string) {
	extract = func(*trace.Trace, core.Options) (*core.Structure, error) {
		t.Errorf("%s extracted", what)
		return nil, errors.New("no extraction expected")
	}
	t.Cleanup(func() { extract = core.Extract })
}

// TestRenderTrace: -render trace writes the generated trace (honouring
// -no-reduction-tracing) in each -format byte for byte as the tracefile
// writers do, without extracting; with -in it converts a file from one
// format to another.
func TestRenderTrace(t *testing.T) {
	noExtract(t, "-render trace")
	tr, _, err := cli.Generate("jacobi", cli.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for format, write := range map[string]func(io.Writer, *trace.Trace) error{
		"text": tracefile.Write, "binary": tracefile.WriteBinary,
	} {
		var want bytes.Buffer
		if err := write(&want, tr); err != nil {
			t.Fatal(err)
		}
		if got := runOut(t, "-app", "jacobi", "-render", "trace", "-format", format); got != want.String() {
			t.Errorf("-format %s: %d bytes differ from the tracefile writer's %d", format, len(got), want.Len())
		}
	}

	noRed, _, err := cli.Generate("jacobi", cli.Params{NoReductionTracing: true})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tracefile.Write(&want, noRed); err != nil {
		t.Fatal(err)
	}
	if got := runOut(t, "-app", "jacobi", "-no-reduction-tracing", "-render", "trace"); got != want.String() {
		t.Error("-no-reduction-tracing -render trace differs from the trace generated without reduction tracing")
	}

	path := filepath.Join(t.TempDir(), "jacobi.trace")
	if err := tracefile.WriteFileBinary(path, tr); err != nil {
		t.Fatal(err)
	}
	decoded, err := tracefile.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want.Reset()
	if err := tracefile.Write(&want, decoded); err != nil {
		t.Fatal(err)
	}
	if got := runOut(t, "-in", path, "-render", "trace", "-format", "text"); got != want.String() {
		t.Error("-in <binary> -render trace -format text differs from tracefile.Write of the decoded trace")
	}
}

// indented is the JSON the query and LOD renders print: the result under the
// extraction options' fingerprint, indented by two spaces.
func indented(t *testing.T, v any) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func extracted(t *testing.T, app string) (*core.Structure, core.Options) {
	t.Helper()
	tr, opt, err := cli.Generate(app, cli.Params{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, opt
}

// TestRenderQuery: -render query -spec prints what query.Run answers over
// the extracted structure, under the options' fingerprint.
func TestRenderQuery(t *testing.T) {
	s, opt := extracted(t, "jacobi")
	idx := query.BuildIndex(s)
	for _, spec := range []string{
		`{"select":"structure"}`,
		`{"select":"steps","filter":{"chares":[1,3],"steps":{"from":9,"to":40}},"fields":["event","step","chare"],"limit":7}`,
		`{"select":"metrics","group_by":"chare"}`,
		`{"select":"viz","filter":{"steps":{"from":4,"to":30}}}`,
	} {
		sp, err := query.ParseSpec(strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		res, err := query.Run(context.Background(), idx, sp)
		if err != nil {
			t.Fatal(err)
		}
		want := indented(t, struct {
			Fingerprint string `json:"fingerprint"`
			*query.Result
		}{opt.Fingerprint(), res})
		if got := runOut(t, "-app", "jacobi", "-render", "query", "-spec", spec); got != want {
			t.Errorf("-spec %s:\n%s\nwant:\n%s", spec, got, want)
		}
	}
}

// TestRenderLod: -render lod -spec prints what the pyramid answers, and
// reads the spec from a file after @.
func TestRenderLod(t *testing.T) {
	s, opt := extracted(t, "jacobi")
	p := lod.Build(s, nil)
	dir := t.TempDir()
	for i, spec := range []string{
		`{"resolution":"native","render":true}`,
		`{"resolution":8}`,
		`{"steps":{"from":5,"to":25},"max_rows":2}`,
	} {
		sp, err := lod.ParseSpec(strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Query(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := indented(t, struct {
			Fingerprint string `json:"fingerprint"`
			*lod.Result
		}{opt.Fingerprint(), res})
		if got := runOut(t, "-app", "jacobi", "-render", "lod", "-spec", spec); got != want {
			t.Errorf("-spec %s:\n%s\nwant:\n%s", spec, got, want)
		}
		file := filepath.Join(dir, fmt.Sprintf("lod%d.json", i))
		if err := os.WriteFile(file, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		if got := runOut(t, "-app", "jacobi", "-render", "lod", "-spec", "@"+file); got != want {
			t.Errorf("-spec @file (%s) differs from the inline spec", spec)
		}
	}
}

// TestMachineRenderRefusals: the trace, query and LOD renders print only
// their own output, the query and LOD renders need a spec, a spec needs one
// of them, and a LOD spec with a diff (a second trace) is refused.
func TestMachineRenderRefusals(t *testing.T) {
	noExtract(t, "a refused run")
	for _, args := range [][]string{
		{"-app", "jacobi", "-render", "trace", "-metric", "idle"},
		{"-app", "jacobi", "-render", "trace", "-svg", "x.svg"},
		{"-app", "jacobi", "-render", "trace", "-timing"},
		{"-app", "jacobi", "-render", "query", "-spec", `{"select":"structure"}`, "-metric", "idle"},
		{"-app", "jacobi", "-render", "query", "-spec", `{"select":"structure"}`, "-svg", "x.svg"},
		{"-app", "jacobi", "-render", "lod", "-spec", `{}`, "-timing"},
		{"-app", "jacobi", "-render", "query"},
		{"-app", "jacobi", "-render", "lod"},
		{"-app", "jacobi", "-spec", `{"select":"structure"}`},
		{"-app", "jacobi", "-render", "trace", "-spec", `{}`},
		{"-app", "jacobi", "-render", "lod", "-spec", `{"diff":"0000"}`},
		{"-app", "jacobi", "-render", "query", "-spec", `{"select":"nope"}`},
		{"-app", "jacobi", "-render", "lod", "-spec", "@" + filepath.Join(t.TempDir(), "missing.json")},
	} {
		if err := run(args, new(strings.Builder)); err == nil {
			t.Errorf("structure %s: no error", strings.Join(args, " "))
		}
	}
}

// TestLocalFileDetectsMessagePassing is the regression for the per-command
// loaders drifting apart: the lulesh-mpi trace read from a file with no -mp
// is a §3.4 message-passing trace, so a local query over it must report the
// 18 phases `structure -app lulesh-mpi` reports — it returned 44 while a
// loader applied the Charm++ defaults to every file.
func TestLocalFileDetectsMessagePassing(t *testing.T) {
	tr, want, err := cli.Generate("lulesh-mpi", cli.Params{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lulesh-mpi.trace")
	if err := tracefile.WriteFileBinary(path, tr); err != nil {
		t.Fatal(err)
	}
	var p struct {
		Fingerprint string            `json:"fingerprint"`
		TotalRows   int               `json:"total_rows"`
		Rows        []json.RawMessage `json:"rows"`
	}
	out := runOut(t, "-in", path, "-render", "query", "-spec", `{"select":"structure"}`)
	if err := json.Unmarshal([]byte(out), &p); err != nil {
		t.Fatal(err)
	}
	if p.TotalRows != 18 || len(p.Rows) != 18 {
		t.Errorf("structure rows = %d (%d returned), want 18", p.TotalRows, len(p.Rows))
	}
	if p.Fingerprint != want.Fingerprint() {
		t.Errorf("fingerprint %s, want the workload's %s", p.Fingerprint, want.Fingerprint())
	}
}

// TestList: -list prints the workload table and nothing else.
func TestList(t *testing.T) {
	if got := runOut(t, "-list"); got != cli.Describe() {
		t.Errorf("-list printed:\n%s\nwant cli.Describe():\n%s", got, cli.Describe())
	}
}
