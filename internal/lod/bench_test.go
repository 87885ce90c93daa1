package lod

import (
	"testing"

	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
)

// mediumZoo is the nine zoo apps at the repository benchmark's medium scale
// (bench/consts.go PoolApps: 2k–11k events each) — the traces cold-ingest
// uploads, so ns/event here tracks lod.build_ns_per_event there.
var mediumZoo = []struct {
	app string
	p   cli.Params
}{
	{"jacobi", cli.Params{Scale: 8, Iterations: 12}},
	{"lulesh", cli.Params{Scale: 4}},
	{"lassen", cli.Params{Iterations: 40}},
	{"mergetree", cli.Params{Scale: 512}},
	{"nasbt", cli.Params{Scale: 5, Iterations: 16}},
	{"pdes", cli.Params{Scale: 128, Iterations: 16}},
	{"lbmigrate", cli.Params{Scale: 48, Iterations: 24}},
	{"faultsim", cli.Params{Scale: 32, Iterations: 30}},
	{"ordstress", cli.Params{Scale: 32, Iterations: 20}},
}

// extractRegistry generates and extracts one internal/cli workload.
func extractRegistry(tb testing.TB, app string, p cli.Params) *core.Structure {
	tb.Helper()
	tr, opts, err := cli.Generate(app, p)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := core.Extract(tr, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

var benchSink *Pyramid

// BenchmarkBuild is one pass of Build over the nine medium zoo shapes with
// the §4 report precomputed, so the figure is the pyramid's own cost
// (clustering + cells + edges). Run by `make bench-lod`.
func BenchmarkBuild(b *testing.B) {
	structs := make([]*core.Structure, len(mediumZoo))
	reps := make([]*metrics.Report, len(mediumZoo))
	var events int
	for i, w := range mediumZoo {
		structs[i] = extractRegistry(b, w.app, w.p)
		reps[i] = metrics.Compute(structs[i])
		events += len(structs[i].Trace.Events)
	}
	var bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		bytes = 0
		for i, s := range structs {
			benchSink = Build(s, reps[i])
			bytes += benchSink.Bytes()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	b.ReportMetric(float64(bytes)/float64(events), "B/event")
}
