// Benchmarks for the supporting subsystems beyond the paper's figures:
// clustering, skew correction, profiles, windowing, serialization and the
// renderers.
package charmtrace

import (
	"bytes"
	"testing"
	"time"

	"charmtrace/internal/apps/lassen"
	"charmtrace/internal/charegroup"
	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/profile"
	"charmtrace/internal/skew"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
	"charmtrace/internal/viz"
)

func lassenFineStructure(b *testing.B) *core.Structure {
	b.Helper()
	cfg := lassen.FineConfig()
	cfg.Iterations = 8
	s, err := core.Extract(lassen.MustCharmTrace(cfg), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkClusterExact(b *testing.B) {
	s := lassenFineStructure(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		charegroup.Exact(s)
	}
}

func BenchmarkSkewCorrect(b *testing.B) {
	s := lassenFineStructure(b)
	offsets := make([]trace.Time, s.Trace.NumPE)
	for p := range offsets {
		offsets[p] = trace.Time(p * 900)
	}
	skewed, err := skew.Inject(s.Trace, offsets)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := skew.Correct(skewed, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileBuild(b *testing.B) {
	s := lassenFineStructure(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.Build(s.Trace)
	}
}

func BenchmarkTraceWindow(b *testing.B) {
	s := lassenFineStructure(b)
	lo, hi := s.Trace.Span()
	mid := lo + (hi-lo)/2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Window(s.Trace, lo, mid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTracefileRoundTrip(b *testing.B) {
	s := lassenFineStructure(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tracefile.Write(&buf, s.Trace); err != nil {
			b.Fatal(err)
		}
		if _, err := tracefile.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRenderLogical(b *testing.B) {
	s := lassenFineStructure(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viz.Logical(s)
	}
}

func BenchmarkMetricsLateness(b *testing.B) {
	s := lassenFineStructure(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Lateness(s)
	}
}

// BenchmarkParallelStepAssignment times the ordering stage (§3.2, parallel
// per §3.3) on the five trace shapes of the repository benchmark's
// batch-extract workload, reporting the step-assignment stage's own wall
// time per event beside the whole extraction's. Run it at -cpu 1,2 (make
// bench-steps): Parallelism is the default, so -cpu sets the lane count.
func BenchmarkParallelStepAssignment(b *testing.B) {
	for _, w := range []struct {
		name, app string
		p         cli.Params
	}{
		{"jacobi32i8", "jacobi", cli.Params{Scale: 32, Iterations: 8}},
		{"jacobi16i32", "jacobi", cli.Params{Scale: 16, Iterations: 32}},
		{"jacobi32i16", "jacobi", cli.Params{Scale: 32, Iterations: 16}},
		{"lulesh6", "lulesh", cli.Params{Scale: 6}},
		{"mergetree4096", "mergetree", cli.Params{Scale: 4096}},
	} {
		tr, opt, err := cli.Generate(w.app, w.p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.name, func(b *testing.B) {
			var steps time.Duration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := core.Extract(tr, opt)
				if err != nil {
					b.Fatal(err)
				}
				steps += s.Stats.StageTime["step-assignment"]
			}
			b.ReportMetric(float64(steps.Nanoseconds())/float64(b.N*len(tr.Events)), "steps-ns/event")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Events)), "ns/event")
		})
	}
}
