package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"charmtrace/internal/core"
	"charmtrace/internal/telemetry"
)

// TestTelemetryFlagRegistration: NewTelemetry binds the full observability
// flag set, NewProfiling only the pprof pair.
func TestTelemetryFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	NewTelemetry("x", fs)
	for _, name := range []string{"stats-json", "cpuprofile", "memprofile"} {
		if fs.Lookup(name) == nil {
			t.Errorf("NewTelemetry did not register -%s", name)
		}
	}
	fs = flag.NewFlagSet("y", flag.ContinueOnError)
	NewProfiling("y", fs)
	if fs.Lookup("stats-json") != nil {
		t.Error("NewProfiling registered the extraction-only flag")
	}
	if fs.Lookup("cpuprofile") == nil || fs.Lookup("memprofile") == nil {
		t.Error("NewProfiling did not register the pprof flags")
	}
}

// TestTelemetryLifecycle runs the full Apply/Close cycle the commands use
// and validates the stats sink through its schema reader.
func TestTelemetryLifecycle(t *testing.T) {
	dir := t.TempDir()
	tele := &Telemetry{
		Tool:      "cli-test",
		StatsJSON: filepath.Join(dir, "stats.json"),
	}
	tele.labels = map[string]string{"workload": "jacobi"}

	tr, opt, err := Generate("jacobi", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tele.Start(); err != nil {
		t.Fatal(err)
	}
	tele.Apply(&opt)
	if opt.Metrics == nil {
		t.Fatal("Apply did not attach the registry")
	}
	if _, err := core.Extract(tr, opt); err != nil {
		t.Fatal(err)
	}
	if err := tele.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(tele.StatsJSON)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := telemetry.ReadStats(f)
	if err != nil {
		t.Fatalf("stats export does not round-trip: %v", err)
	}
	if stats.Tool != "cli-test" || stats.Labels["workload"] != "jacobi" {
		t.Errorf("stats header = %q/%v", stats.Tool, stats.Labels)
	}
	if len(stats.Stages) == 0 {
		t.Error("stats missing the pipeline stage table")
	}
}

// TestTelemetryInactive: with no sinks requested, Apply leaves Options
// untouched (the zero-overhead path) and Close is a no-op.
func TestTelemetryInactive(t *testing.T) {
	tele := &Telemetry{Tool: "cli-test", labels: map[string]string{}}
	var opt core.Options
	tele.Apply(&opt)
	if opt.Metrics != nil {
		t.Error("inactive Apply attached a registry")
	}
	if err := tele.Close(); err != nil {
		t.Errorf("inactive Close: %v", err)
	}
}

// TestTelemetrySinkWithoutRun: requesting -stats-json but never extracting
// is reported as an error, not an empty file.
func TestTelemetrySinkWithoutRun(t *testing.T) {
	dir := t.TempDir()
	tele := &Telemetry{Tool: "cli-test", StatsJSON: filepath.Join(dir, "s.json"), labels: map[string]string{}}
	err := tele.Close()
	if err == nil || !strings.Contains(err.Error(), "no extraction ran") {
		t.Errorf("Close = %v, want no-extraction error", err)
	}
}
