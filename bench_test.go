// Benchmarks regenerating the paper's evaluation: one benchmark per figure,
// measuring the logical-structure extraction (and, where the figure is
// about metrics, the metric computation) over the corresponding workload.
// The workload traces are generated once per benchmark; the measured loop
// is the analysis the paper times (Figures 18 and 19 report exactly this
// extraction time).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package charmtrace

import (
	"fmt"
	"runtime"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lassen"
	"charmtrace/internal/apps/lulesh"
	"charmtrace/internal/apps/mergetree"
	"charmtrace/internal/apps/nasbt"
	"charmtrace/internal/apps/pdes"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/trace"
)

// benchExtract measures Extract over a fixed trace.
func benchExtract(b *testing.B, tr *trace.Trace, opt core.Options) {
	b.Helper()
	b.ReportMetric(float64(len(tr.Events)), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Extract(tr, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig01NASBT: structure extraction for the Figure 1 context trace.
func BenchmarkFig01NASBT(b *testing.B) {
	tr := nasbt.MustTrace(nasbt.DefaultConfig())
	benchExtract(b, tr, core.MessagePassingOptions())
}

// BenchmarkFig08JacobiReordering: Jacobi 2D 64 chares / 8 PEs, with and
// without the §3.2.1 reordering.
func BenchmarkFig08JacobiReordering(b *testing.B) {
	cfg := jacobi.DefaultConfig()
	cfg.Grid = 8
	cfg.Iterations = 2
	tr := jacobi.MustTrace(cfg)
	b.Run("reordered", func(b *testing.B) { benchExtract(b, tr, core.DefaultOptions()) })
	b.Run("recorded", func(b *testing.B) {
		opt := core.DefaultOptions()
		opt.Reorder = false
		benchExtract(b, tr, opt)
	})
}

// BenchmarkFig10MergeTree: the 1,024-process MPI merge tree with
// data-dependent imbalance, stepped with and without reordering, then the
// same extraction across worker counts (output is byte-identical across
// par=N; the series measures the wall-clock effect of Options.Parallelism
// on the paper's largest workload).
func BenchmarkFig10MergeTree(b *testing.B) {
	cfg := mergetree.DefaultConfig()
	tr := mergetree.MustTrace(cfg)
	b.Run("reordered", func(b *testing.B) { benchExtract(b, tr, core.MessagePassingOptions()) })
	b.Run("recorded", func(b *testing.B) {
		opt := core.MessagePassingOptions()
		opt.Reorder = false
		benchExtract(b, tr, opt)
	})
	for _, par := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		par := par
		b.Run(fmt.Sprintf("reordered-par=%d", par), func(b *testing.B) {
			opt := core.MessagePassingOptions()
			opt.Parallelism = par
			benchExtract(b, tr, opt)
		})
	}
}

// BenchmarkExtractBatch: the concurrent batch API against the equivalent
// serial loop, over eight seed variations of the Jacobi workload (the
// multi-run comparison shape of cmd/experiments and examples/lulesh-compare).
func BenchmarkExtractBatch(b *testing.B) {
	traces := make([]*trace.Trace, 8)
	for i := range traces {
		cfg := jacobi.DefaultConfig()
		cfg.Grid = 8
		cfg.Seed = int64(i + 1)
		traces[i] = jacobi.MustTrace(cfg)
	}
	opt := core.DefaultOptions()
	b.Run("serial-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tr := range traces {
				if _, err := core.Extract(tr, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ExtractBatch(traces, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchMetrics measures the Section 4 metric computation over a structure.
func benchMetrics(b *testing.B, tr *trace.Trace, opt core.Options) {
	b.Helper()
	s, err := core.Extract(tr, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Compute(s)
	}
}

// BenchmarkFig12IdleExperienced: Jacobi 16 chares with a reduction-gating
// slow chare; measures the metric pass of Figure 12.
func BenchmarkFig12IdleExperienced(b *testing.B) {
	cfg := jacobi.DefaultConfig()
	cfg.SlowChare = 0
	benchMetrics(b, jacobi.MustTrace(cfg), core.DefaultOptions())
}

// BenchmarkFig14Fig15SlowChareMetrics: the imbalance / differential
// duration computation of Figures 14 and 15.
func BenchmarkFig14Fig15SlowChareMetrics(b *testing.B) {
	cfg := jacobi.DefaultConfig()
	cfg.SlowChare = 5
	benchMetrics(b, jacobi.MustTrace(cfg), core.DefaultOptions())
}

// BenchmarkFig16LULESH: structure extraction for both LULESH variants.
func BenchmarkFig16LULESH(b *testing.B) {
	cfg := lulesh.DefaultConfig()
	b.Run("mpi", func(b *testing.B) {
		benchExtract(b, lulesh.MustMPITrace(cfg), core.MessagePassingOptions())
	})
	b.Run("charm", func(b *testing.B) {
		benchExtract(b, lulesh.MustCharmTrace(cfg), core.DefaultOptions())
	})
}

// BenchmarkFig17NoInference: the ablation of the §3.1.4 machinery.
func BenchmarkFig17NoInference(b *testing.B) {
	tr := lulesh.MustCharmTrace(lulesh.DefaultConfig())
	opt := core.DefaultOptions()
	opt.InferDependencies = false
	benchExtract(b, tr, opt)
}

// BenchmarkFig18ExtractionVsIterations: Figure 18's series — extraction
// time for a 64-chare LULESH at doubling iteration counts. The figure's
// claim is that time is proportional to iterations; compare ns/op across
// the sub-benchmarks.
func BenchmarkFig18ExtractionVsIterations(b *testing.B) {
	for _, iters := range []int{8, 16, 32, 64} {
		iters := iters
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			cfg := lulesh.DefaultConfig()
			cfg.Grid = 4
			cfg.NumPE = 8
			cfg.Iterations = iters
			benchExtract(b, lulesh.MustCharmTrace(cfg), core.DefaultOptions())
		})
	}
}

// BenchmarkFig19ExtractionVsChares: Figure 19's series — extraction time
// for 8-iteration LULESH at growing chare counts. The paper reports
// super-linear growth dominated by the §3.1.4 merge.
func BenchmarkFig19ExtractionVsChares(b *testing.B) {
	for _, grid := range []int{4, 6, 8} {
		grid := grid
		b.Run(fmt.Sprintf("chares=%d", grid*grid*grid), func(b *testing.B) {
			cfg := lulesh.DefaultConfig()
			cfg.Grid = grid
			cfg.NumPE = grid * grid * grid / 8
			cfg.Iterations = 8
			benchExtract(b, lulesh.MustCharmTrace(cfg), core.DefaultOptions())
		})
	}
}

// BenchmarkFig20LASSEN: structure extraction for all four LASSEN traces.
func BenchmarkFig20LASSEN(b *testing.B) {
	coarse, fine := lassen.DefaultConfig(), lassen.FineConfig()
	b.Run("mpi-8", func(b *testing.B) {
		benchExtract(b, lassen.MustMPITrace(coarse), core.MessagePassingOptions())
	})
	b.Run("charm-8", func(b *testing.B) {
		benchExtract(b, lassen.MustCharmTrace(coarse), core.DefaultOptions())
	})
	b.Run("mpi-64", func(b *testing.B) {
		benchExtract(b, lassen.MustMPITrace(fine), core.MessagePassingOptions())
	})
	b.Run("charm-64", func(b *testing.B) {
		benchExtract(b, lassen.MustCharmTrace(fine), core.DefaultOptions())
	})
}

// BenchmarkFig21Fig23LASSENMetrics: the differential-duration/imbalance
// passes behind Figures 21-23.
func BenchmarkFig21Fig23LASSENMetrics(b *testing.B) {
	cfg := lassen.FineConfig()
	cfg.Iterations = 16
	benchMetrics(b, lassen.MustCharmTrace(cfg), core.DefaultOptions())
}

// BenchmarkFig24PDES: extraction including the concurrent-phase detection
// of the Figure 24 analysis.
func BenchmarkFig24PDES(b *testing.B) {
	tr := pdes.MustTrace(pdes.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.Extract(tr, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if pairs := s.ConcurrentPhases(); len(pairs) == 0 {
			b.Fatal("expected concurrent phases")
		}
	}
}

// BenchmarkSec5ReductionTracing: extraction cost with and without the §5
// tracing additions (the additions add events, so both trace size and
// analysis cost move).
func BenchmarkSec5ReductionTracing(b *testing.B) {
	cfg := jacobi.DefaultConfig()
	with := jacobi.MustTrace(cfg)
	cfg.TraceReductions = false
	without := jacobi.MustTrace(cfg)
	b.Run("with", func(b *testing.B) { benchExtract(b, with, core.DefaultOptions()) })
	b.Run("without", func(b *testing.B) { benchExtract(b, without, core.DefaultOptions()) })
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

// BenchmarkAblationTieBreak compares the Figure 7 invoking-chare tie-break
// against plain physical-time ordering (Reorder off) on a jittered Jacobi.
func BenchmarkAblationTieBreak(b *testing.B) {
	cfg := jacobi.DefaultConfig()
	cfg.Grid = 8
	tr := jacobi.MustTrace(cfg)
	b.Run("w-and-invoker", func(b *testing.B) { benchExtract(b, tr, core.DefaultOptions()) })
	b.Run("physical-time", func(b *testing.B) {
		opt := core.DefaultOptions()
		opt.Reorder = false
		benchExtract(b, tr, opt)
	})
}

// BenchmarkAblationNeighborSerialMerge toggles the §3.1.3 neighbouring
// serial merge.
func BenchmarkAblationNeighborSerialMerge(b *testing.B) {
	tr := lulesh.MustCharmTrace(lulesh.DefaultConfig())
	b.Run("on", func(b *testing.B) { benchExtract(b, tr, core.DefaultOptions()) })
	b.Run("off", func(b *testing.B) {
		opt := core.DefaultOptions()
		opt.NeighborSerialMerge = false
		benchExtract(b, tr, opt)
	})
}

// BenchmarkSimulators measures trace generation itself, to separate
// substrate cost from analysis cost.
func BenchmarkSimulators(b *testing.B) {
	b.Run("charm-jacobi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			jacobi.MustTrace(jacobi.DefaultConfig())
		}
	})
	b.Run("mpi-lulesh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lulesh.MustMPITrace(lulesh.DefaultConfig())
		}
	})
	b.Run("mpi-mergetree-256", func(b *testing.B) {
		cfg := mergetree.DefaultConfig()
		cfg.Procs = 256
		for i := 0; i < b.N; i++ {
			mergetree.MustTrace(cfg)
		}
	})
}
