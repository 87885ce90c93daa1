// Benchmarks for the supporting subsystems beyond the paper's figures:
// clustering, skew correction, profiles, windowing, serialization and the
// renderers.
package charmtrace

import (
	"bytes"
	"testing"

	"charmtrace/internal/apps/lassen"
	"charmtrace/internal/charegroup"
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

// BenchmarkParallelStepAssignment compares the §3.3 parallel ordering stage
// against the serial one on a many-phase trace.
func BenchmarkParallelStepAssignment(b *testing.B) {
	cfg := lassen.FineConfig()
	cfg.Iterations = 8
	tr := lassen.MustCharmTrace(cfg)
	for _, bc := range []struct {
		name        string
		parallelism int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Parallelism = bc.parallelism
			for i := 0; i < b.N; i++ {
				if _, err := core.Extract(tr, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
