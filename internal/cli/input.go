package cli

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// Input is the trace-selection surface of the offline command: -in reads a
// trace file, -app generates a registered workload (tuned by -iters, -scale,
// -seed and -no-reduction-tracing). NewInput binds those six; the command
// binds its own -mp to MP.
type Input struct {
	In, App string
	Params  Params
	// MP forces the message-passing options on a file input instead of
	// leaving the choice to the trace's shape.
	MP bool
}

// NewInput registers -in, -app, -iters, -scale, -seed and
// -no-reduction-tracing on fs.
func NewInput(fs *flag.FlagSet) *Input {
	in := &Input{}
	fs.StringVar(&in.In, "in", "", "input trace file")
	fs.StringVar(&in.App, "app", "", "generate this workload instead of reading a file")
	fs.IntVar(&in.Params.Iterations, "iters", 0, "iteration override for -app")
	fs.IntVar(&in.Params.Scale, "scale", 0, "size override for -app")
	fs.Int64Var(&in.Params.Seed, "seed", 0, "seed override for -app")
	fs.BoolVar(&in.Params.NoReductionTracing, "no-reduction-tracing", false, "disable the §5 reduction tracing additions for -app")
	return in
}

// Load resolves the flags into a trace — the generated workload, or the
// file (text or binary, auto-detected) — and the extraction
// options matching its programming model. A workload brings its own; a file
// gets the message-passing options of §3.4 when MP forces them or the trace
// has the process-centric shape, the Charm++ defaults otherwise. A
// detection is noted on stderr, so a tool's stdout stays what it prints.
func (in *Input) Load() (*trace.Trace, core.Options, error) {
	switch {
	case in.App != "":
		return Generate(in.App, in.Params)
	case in.In == "":
		return nil, core.Options{}, fmt.Errorf("need -in <file> or -app <workload>; workloads:\n%s", Describe())
	}
	tr, err := tracefile.ReadFile(in.In)
	switch {
	case err != nil:
		return nil, core.Options{}, err
	case in.MP:
		return tr, core.MessagePassingOptions(), nil
	case looksMessagePassing(tr):
		fmt.Fprintln(os.Stderr, "(detected a message-passing trace: single-event blocks, no runtime chares)")
		return tr, core.MessagePassingOptions(), nil
	}
	return tr, core.DefaultOptions(), nil
}

// Label records which input a run analyzed on the stats export.
func (in *Input) Label(t *Telemetry) {
	if in.App != "" {
		t.Label("workload", in.App)
	} else {
		t.Label("input", in.In)
	}
}

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

// SpecArg resolves a -spec value into the spec's JSON: "@path" reads it from
// a file, anything else is the JSON itself.
func SpecArg(v string) (io.Reader, error) {
	if path, ok := strings.CutPrefix(v, "@"); ok {
		data, err := os.ReadFile(path)
		return bytes.NewReader(data), err
	}
	return strings.NewReader(v), nil
}
