package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// StatsSchemaVersion is the current -stats-json schema. Bump it on any
// incompatible change so BENCH trajectories and run-diffing tools can tell
// which fields to trust.
const StatsSchemaVersion = 1

// StatsExport is the machine-readable run report behind -stats-json: the
// registry's metrics plus a per-stage table assembled from the pipeline's
// reserved metric names. The schema is versioned and round-trips through
// ReadStats.
type StatsExport struct {
	SchemaVersion int               `json:"schema_version"`
	Tool          string            `json:"tool"`
	Labels        map[string]string `json:"labels,omitempty"`
	GoMaxProcs    int               `json:"go_max_procs"`
	// Parallelism is the extraction worker count, when a single extraction
	// is being reported (0 for aggregate, multi-run exports).
	Parallelism int `json:"parallelism,omitempty"`
	// Stages is the pipeline-stage table in execution order.
	Stages []StageStats `json:"stages,omitempty"`
	// Counters/Gauges/Histograms hold every metric not folded into Stages.
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// StageStats is one pipeline stage's row in the export.
type StageStats struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
	Merged     int64  `json:"merged"`
}

// Reserved metric-name prefixes the pipeline records per stage; the
// exporter folds them into the Stages table.
const (
	StageNSPrefix     = "pipeline.stage_ns."
	StageMergedPrefix = "pipeline.merged."
)

// ExportRegistry builds the versioned export from a registry snapshot.
// stageOrder lists pipeline stages in execution order; stages with no
// recorded metrics are omitted. Metrics matching the reserved per-stage
// prefixes become Stages rows; everything else lands in the generic maps.
func ExportRegistry(reg *Registry, tool string, stageOrder []string) *StatsExport {
	snap := reg.Snapshot()
	e := &StatsExport{
		SchemaVersion: StatsSchemaVersion,
		Tool:          tool,
		GoMaxProcs:    runtime.GOMAXPROCS(0),
	}
	for _, name := range stageOrder {
		ns, timed := snap.Counters[StageNSPrefix+name]
		merged, didMerge := snap.Counters[StageMergedPrefix+name]
		if !timed && !didMerge {
			continue
		}
		e.Stages = append(e.Stages, StageStats{Name: name, DurationNS: ns, Merged: merged})
	}
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, StageNSPrefix) || strings.HasPrefix(k, StageMergedPrefix) {
			continue
		}
		if e.Counters == nil {
			e.Counters = make(map[string]int64)
		}
		e.Counters[k] = v
	}
	if len(snap.Gauges) > 0 {
		e.Gauges = snap.Gauges
	}
	if len(snap.Histograms) > 0 {
		e.Histograms = snap.Histograms
	}
	return e
}

// Write encodes the export as indented JSON.
func (e *StatsExport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// WriteFile writes the export to a file.
func (e *StatsExport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := e.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// ReadStats decodes and validates a stats export.
func ReadStats(r io.Reader) (*StatsExport, error) {
	var e StatsExport
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("telemetry: stats: %w", err)
	}
	if e.SchemaVersion != StatsSchemaVersion {
		return nil, fmt.Errorf("telemetry: stats: schema version %d, want %d", e.SchemaVersion, StatsSchemaVersion)
	}
	return &e, nil
}
