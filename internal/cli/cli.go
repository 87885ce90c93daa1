// Package cli provides the workload registry shared by the command-line
// tools: every paper workload is addressable by name, producing a trace and
// the extraction options appropriate for its programming model.
package cli

import (
	"fmt"
	"sort"
	"strings"

	"charmtrace/internal/apps/faultsim"
	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lassen"
	"charmtrace/internal/apps/lbmigrate"
	"charmtrace/internal/apps/lulesh"
	"charmtrace/internal/apps/mergetree"
	"charmtrace/internal/apps/nasbt"
	"charmtrace/internal/apps/ordstress"
	"charmtrace/internal/apps/pdes"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// Params tune a workload without exposing each app's full config.
type Params struct {
	// Iterations overrides the workload's iteration count (0 = default).
	Iterations int
	// Scale overrides the workload's size knob (chares/processes; 0 = default).
	Scale int
	// Seed overrides the RNG seed (0 = default).
	Seed int64
	// NoReductionTracing disables the §5 tracing additions where relevant.
	NoReductionTracing bool
}

// workload describes one registered workload: scale and iters are the
// values it accepts for Params.Scale and Params.Iterations.
type workload struct {
	desc         string
	gen          func(p Params) (*trace.Trace, error)
	opts         func() core.Options
	scale, iters span
}

// span is the values a workload accepts for one Params field besides 0 (the
// default): min and up, in steps of step. A zero span is a field the
// workload does not read.
type span struct{ min, step int }

var (
	fromOne = span{1, 1}
	fromTwo = span{2, 1} // sizes of 1 give empty traces
)

// check returns an error naming the workload, the field and its valid
// values unless v is one of them; a negative value never is.
func (s span) check(name, field string, v int) error {
	if v == 0 || v > 0 && (s.step == 0 || v >= s.min && (v-s.min)%s.step == 0) {
		return nil
	}
	want := "not negative: the workload does not read it"
	switch {
	case s.step == 1:
		want = fmt.Sprintf("%d or more, or 0 for the default", s.min)
	case s.step > 1:
		want = fmt.Sprintf("a multiple of %d, or 0 for the default", s.step)
	}
	return fmt.Errorf("workload %s: %s %d out of range: want %s", name, field, v, want)
}

func pick[T int | int64](override, def T) T {
	if override != 0 {
		return override
	}
	return def
}

var workloads = map[string]workload{
	"jacobi": {
		desc: "Jacobi 2D heat (Charm++): halo exchange + Max reduction per iteration",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := jacobi.DefaultConfig()
			cfg.Iterations = pick(p.Iterations, cfg.Iterations)
			cfg.Grid = pick(p.Scale, cfg.Grid)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			cfg.TraceReductions = !p.NoReductionTracing
			return jacobi.Trace(cfg)
		},
		opts:  core.DefaultOptions,
		scale: fromTwo, iters: fromOne,
	},
	"jacobi-slow": {
		desc: "Jacobi 2D with one slow chare in one iteration (Figures 14/15)",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := jacobi.DefaultConfig()
			cfg.Iterations = pick(p.Iterations, cfg.Iterations)
			cfg.Grid = pick(p.Scale, cfg.Grid)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			cfg.SlowChare = cfg.Grid + 1
			return jacobi.Trace(cfg)
		},
		opts:  core.DefaultOptions,
		scale: fromTwo, iters: fromOne,
	},
	"lulesh": {
		desc: "LULESH proxy (Charm++): setup + mirrored exchanges + dt allreduce (Figure 16b)",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := lulesh.DefaultConfig()
			cfg.Iterations = pick(p.Iterations, cfg.Iterations)
			cfg.Grid = pick(p.Scale, cfg.Grid)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			cfg.TraceReductions = !p.NoReductionTracing
			return lulesh.CharmTrace(cfg)
		},
		opts:  core.DefaultOptions,
		scale: fromTwo, iters: fromOne,
	},
	"lulesh-mpi": {
		desc: "LULESH proxy (MPI): setup + three exchanges + allreduce (Figure 16a)",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := lulesh.DefaultConfig()
			cfg.Iterations = pick(p.Iterations, cfg.Iterations)
			cfg.Grid = pick(p.Scale, cfg.Grid)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			return lulesh.MPITrace(cfg)
		},
		opts:  core.MessagePassingOptions,
		scale: fromOne, iters: fromOne,
	},
	"lassen": {
		desc: "LASSEN wavefront (Charm++, 8 chares): p2p + control + allreduce (Figure 20b)",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := lassen.DefaultConfig()
			cfg.Iterations = pick(p.Iterations, cfg.Iterations)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			return lassen.CharmTrace(cfg)
		},
		opts:  core.DefaultOptions,
		scale: span{}, iters: fromOne,
	},
	"lassen64": {
		desc: "LASSEN wavefront (Charm++, 64 chares on 8 PEs; Figure 20d)",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := lassen.FineConfig()
			cfg.Iterations = pick(p.Iterations, cfg.Iterations)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			return lassen.CharmTrace(cfg)
		},
		opts:  core.DefaultOptions,
		scale: span{}, iters: fromOne,
	},
	"lassen-mpi": {
		desc: "LASSEN wavefront (MPI, 8 procs; Figure 20a)",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := lassen.DefaultConfig()
			cfg.Iterations = pick(p.Iterations, cfg.Iterations)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			return lassen.MPITrace(cfg)
		},
		opts:  core.MessagePassingOptions,
		scale: span{}, iters: fromOne,
	},
	"lassen-mpi64": {
		desc: "LASSEN wavefront (MPI, 64 procs; Figure 20c)",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := lassen.FineConfig()
			cfg.Iterations = pick(p.Iterations, cfg.Iterations)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			return lassen.MPITrace(cfg)
		},
		opts:  core.MessagePassingOptions,
		scale: span{}, iters: fromOne,
	},
	"mergetree": {
		desc: "MPI merge tree, 1,024 processes with data-dependent imbalance (Figure 10)",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := mergetree.DefaultConfig()
			cfg.Procs = pick(p.Scale, cfg.Procs)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			return mergetree.Trace(cfg)
		},
		opts:  core.MessagePassingOptions,
		scale: span{32, 32}, iters: span{},
	},
	"pdes": {
		desc: "PDES mini-app with unrecorded completion-detector call (Figure 24)",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := pdes.DefaultConfig()
			cfg.Chares = pick(p.Scale, cfg.Chares)
			cfg.Rounds = pick(p.Iterations, cfg.Rounds)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			return pdes.Trace(cfg)
		},
		opts:  core.DefaultOptions,
		scale: fromOne, iters: fromOne,
	},
	"pdes-traced": {
		desc: "PDES mini-app with the detector call recorded (the Figure 24 fix)",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := pdes.DefaultConfig()
			cfg.Chares = pick(p.Scale, cfg.Chares)
			cfg.Rounds = pick(p.Iterations, cfg.Rounds)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			cfg.TraceDetectorCall = true
			return pdes.Trace(cfg)
		},
		opts:  core.DefaultOptions,
		scale: fromOne, iters: fromOne,
	},
	"lbmigrate": {
		desc: "1D stencil with a mid-run load-balancing step migrating chares",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := lbmigrate.DefaultConfig()
			cfg.Iterations = pick(p.Iterations, cfg.Iterations)
			cfg.Chares = pick(p.Scale, cfg.Chares)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			cfg.TraceReductions = !p.NoReductionTracing
			return lbmigrate.Trace(cfg)
		},
		opts:  core.DefaultOptions,
		scale: fromTwo, iters: fromOne,
	},
	"faultsim": {
		desc: "ring with a fail-stop chare, quiescence-triggered rollback and replay",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := faultsim.DefaultConfig()
			cfg.Iterations = pick(p.Iterations, cfg.Iterations)
			cfg.Chares = pick(p.Scale, cfg.Chares)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			cfg.TraceReductions = !p.NoReductionTracing
			return faultsim.Trace(cfg)
		},
		opts:  core.DefaultOptions,
		scale: fromOne, iters: fromOne,
	},
	"ordstress": {
		desc: "adversarial orderability stresser: ties, priority inversion, stragglers",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := ordstress.DefaultConfig()
			cfg.Waves = pick(p.Iterations, cfg.Waves)
			cfg.Chares = pick(p.Scale, cfg.Chares)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			return ordstress.Trace(cfg)
		},
		opts:  core.DefaultOptions,
		scale: fromOne, iters: fromOne,
	},
	"nasbt": {
		desc: "NAS BT-style sweeps, 9 MPI processes (Figure 1)",
		gen: func(p Params) (*trace.Trace, error) {
			cfg := nasbt.DefaultConfig()
			cfg.Iterations = pick(p.Iterations, cfg.Iterations)
			cfg.Grid = pick(p.Scale, cfg.Grid)
			cfg.Seed = pick(p.Seed, cfg.Seed)
			return nasbt.Trace(cfg)
		},
		opts:  core.MessagePassingOptions,
		scale: fromTwo, iters: fromOne,
	},
}

// Names lists the registered workloads, sorted.
func Names() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe returns a usage table of all workloads.
func Describe() string {
	var b strings.Builder
	for _, n := range Names() {
		fmt.Fprintf(&b, "  %-14s %s\n", n, workloads[n].desc)
	}
	return b.String()
}

// Generate runs the named workload and returns its trace plus the
// extraction options matching its programming model.
func Generate(name string, p Params) (*trace.Trace, core.Options, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, core.Options{}, fmt.Errorf("unknown workload %q; available:\n%s", name, Describe())
	}
	if err := w.scale.check(name, "scale", p.Scale); err != nil {
		return nil, core.Options{}, err
	}
	if err := w.iters.check(name, "iterations", p.Iterations); err != nil {
		return nil, core.Options{}, err
	}
	tr, err := w.gen(p)
	if err != nil {
		return nil, core.Options{}, fmt.Errorf("workload %s: %w", name, err)
	}
	return tr, w.opts(), nil
}
