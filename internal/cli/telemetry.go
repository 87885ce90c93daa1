package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"charmtrace/internal/core"
	"charmtrace/internal/telemetry"
)

// Telemetry bundles the observability surface shared by the command-line
// tools: the -stats-json sink and the -cpuprofile / -memprofile pprof
// flags. Construct with NewTelemetry (extraction tools) or NewProfiling
// (tools that never extract), call Start after flag parsing, Apply on every
// extraction's Options, and Close before exit.
type Telemetry struct {
	// Tool names the command in exports (the "tool" field of -stats-json).
	Tool string
	// StatsJSON / CPUProfile / MemProfile are the output paths, empty when
	// the corresponding flag is unset.
	StatsJSON  string
	CPUProfile string
	MemProfile string

	labels   map[string]string
	registry *telemetry.Registry
	cpuFile  *os.File
}

// NewTelemetry registers the full observability flag set on fs (pass
// flag.CommandLine in a main) and returns the handle.
func NewTelemetry(tool string, fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{Tool: tool, labels: make(map[string]string)}
	fs.StringVar(&t.StatsJSON, "stats-json", "",
		"write machine-readable run statistics (versioned schema) to this JSON file")
	t.registerProfileFlags(fs)
	return t
}

// NewProfiling registers only -cpuprofile/-memprofile, for tools with no
// extraction pipeline to report on (tracegen, traceprofile).
func NewProfiling(tool string, fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{Tool: tool, labels: make(map[string]string)}
	t.registerProfileFlags(fs)
	return t
}

func (t *Telemetry) registerProfileFlags(fs *flag.FlagSet) {
	fs.StringVar(&t.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&t.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
}

// Label attaches a key/value label to the stats export (e.g. the workload
// name), overwriting any previous value for the key.
func (t *Telemetry) Label(k, v string) { t.labels[k] = v }

// Start begins CPU profiling if requested. Call once, after flag parsing.
func (t *Telemetry) Start() error {
	if t.CPUProfile == "" {
		return nil
	}
	f, err := os.Create(t.CPUProfile)
	if err != nil {
		return fmt.Errorf("cli: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cli: %w", err)
	}
	t.cpuFile = f
	return nil
}

// Apply attaches the shared registry every extraction's metrics accumulate
// into. A no-op unless -stats-json was given.
func (t *Telemetry) Apply(opt *core.Options) {
	if t.StatsJSON == "" {
		return
	}
	if t.registry == nil {
		t.registry = telemetry.NewRegistry()
	}
	opt.Metrics = t.registry
}

// Close flushes every requested sink: stops the CPU profile, writes the
// heap profile and the stats JSON. Returns the first error.
func (t *Telemetry) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if t.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(t.cpuFile.Close())
		t.cpuFile = nil
	}
	if t.MemProfile != "" {
		keep(t.writeMemProfile())
	}
	if t.StatsJSON != "" {
		if t.registry == nil {
			keep(fmt.Errorf("cli: -stats-json requested but no extraction ran"))
		} else {
			e := telemetry.ExportRegistry(t.registry, t.Tool, core.StageOrder)
			if len(t.labels) > 0 {
				e.Labels = t.labels
			}
			keep(e.WriteFile(t.StatsJSON))
		}
	}
	return first
}

func (t *Telemetry) writeMemProfile() error {
	f, err := os.Create(t.MemProfile)
	if err != nil {
		return fmt.Errorf("cli: %w", err)
	}
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cli: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cli: %w", err)
	}
	return nil
}
