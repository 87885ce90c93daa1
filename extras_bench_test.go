// Benchmarks for the supporting subsystems beyond the paper's figures
// (those are BenchmarkPaperFigures, paper_test.go): the simulators,
// clustering, skew correction, profiles, windowing, serialization and the
// renderers.
package charmtrace

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lassen"
	"charmtrace/internal/apps/lulesh"
	"charmtrace/internal/apps/mergetree"
	"charmtrace/internal/charegroup"
	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/profile"
	"charmtrace/internal/skew"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
	"charmtrace/internal/viz"
)

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

// batchShapes are the five trace shapes of the repository benchmark's
// batch-extract workload; cli.Generate gives each its preset.
var batchShapes = []struct {
	name, app string
	p         cli.Params
}{
	{"jacobi32i8", "jacobi", cli.Params{Scale: 32, Iterations: 8}},
	{"jacobi16i32", "jacobi", cli.Params{Scale: 16, Iterations: 32}},
	{"jacobi32i16", "jacobi", cli.Params{Scale: 32, Iterations: 16}},
	{"lulesh6", "lulesh", cli.Params{Scale: 6}},
	{"mergetree4096", "mergetree", cli.Params{Scale: 4096}},
}

// zooShapes are the nine apps the repository benchmark's cold-ingest
// workload uploads, at its medium scale (bench/consts.go PoolApps): small
// traces of many phases, where per-phase costs show.
var zooShapes = []struct {
	name, app string
	p         cli.Params
}{
	{"zoo-jacobi", "jacobi", cli.Params{Scale: 8, Iterations: 12}},
	{"zoo-lulesh", "lulesh", cli.Params{Scale: 4}},
	{"zoo-lassen", "lassen", cli.Params{Iterations: 40}},
	{"zoo-mergetree", "mergetree", cli.Params{Scale: 512}},
	{"zoo-nasbt", "nasbt", cli.Params{Scale: 5, Iterations: 16}},
	{"zoo-pdes", "pdes", cli.Params{Scale: 128, Iterations: 16}},
	{"zoo-lbmigrate", "lbmigrate", cli.Params{Scale: 48, Iterations: 24}},
	{"zoo-faultsim", "faultsim", cli.Params{Scale: 32, Iterations: 30}},
	{"zoo-ordstress", "ordstress", cli.Params{Scale: 32, Iterations: 20}},
}

// BenchmarkParallelStepAssignment times Extract on the batch-extract shapes
// and the cold-ingest zoo shapes, reporting every pipeline stage's own wall
// time per event (from Stats.StageTime, as <stage>-ns/event) beside the
// whole extraction's, and each shape's events and phases. Run it at -cpu 1,2
// (make bench-steps): Parallelism is the default, so -cpu sets the lane
// count. A shape's trace is generated when its sub-benchmark first runs.
func BenchmarkParallelStepAssignment(b *testing.B) {
	for _, w := range slices.Concat(batchShapes, zooShapes) {
		var tr *trace.Trace
		var opt core.Options
		b.Run(w.name, func(b *testing.B) {
			if tr == nil {
				var err error
				if tr, opt, err = cli.Generate(w.app, w.p); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
			}
			stages := make(map[string]time.Duration)
			phases := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := core.Extract(tr, opt)
				if err != nil {
					b.Fatal(err)
				}
				for name, d := range s.Stats.StageTime {
					stages[name] += d
				}
				phases = len(s.Phases)
			}
			perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*len(tr.Events)) }
			for _, name := range core.StageOrder {
				if d, ran := stages[name]; ran {
					b.ReportMetric(perEvent(d), name+"-ns/event")
				}
			}
			b.ReportMetric(perEvent(b.Elapsed()), "ns/event")
			b.ReportMetric(float64(len(tr.Events)), "events")
			b.ReportMetric(float64(phases), "phases")
		})
	}
}

// BenchmarkBatchExtractOp is one op of the repository benchmark's
// batch-extract workload on each of its shapes: decode the binary trace,
// Extract, ComputeMetrics (make bench-batch).
func BenchmarkBatchExtractOp(b *testing.B) {
	for _, w := range batchShapes {
		tr, opt, err := cli.Generate(w.app, w.p)
		if err != nil {
			b.Fatal(err)
		}
		var file bytes.Buffer
		if err := tracefile.WriteBinary(&file, tr); err != nil {
			b.Fatal(err)
		}
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := ReadTrace(bytes.NewReader(file.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				s, err := Extract(tr, opt)
				if err != nil {
					b.Fatal(err)
				}
				ComputeMetrics(s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Events)), "ns/event")
		})
	}
}

// BenchmarkCodec times the three binary formats on the batch-extract shapes
// (make bench-codec): the recovered structure's encode, full decode and
// summary (.cstr), the trace's WriteBinary and ReadBinary (.trace, the read
// including the index), and its event table's WriteTable and ReadTable
// (.tbl) — ns/event beside the -benchmem columns. A report, not a gate.
func BenchmarkCodec(b *testing.B) {
	for _, w := range batchShapes {
		tr, opt, err := cli.Generate(w.app, w.p)
		if err != nil {
			b.Fatal(err)
		}
		s, err := core.Extract(tr, opt)
		if err != nil {
			b.Fatal(err)
		}
		tab := tr.Table()
		var cstr, file, tbl bytes.Buffer
		if err := errors.Join(core.EncodeStructure(&cstr, s), tracefile.WriteBinary(&file, tr), tracefile.WriteTable(&tbl, tab)); err != nil {
			b.Fatal(err)
		}
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"cstr-encode", func() error { return core.EncodeStructure(io.Discard, s) }},
			{"cstr-decode", func() error { _, _, err := core.DecodeStructureTable(cstr.Bytes(), tab); return err }},
			{"cstr-summary", func() error { _, err := core.DecodeStructureSummary(bytes.NewReader(cstr.Bytes())); return err }},
			{"trace-write", func() error { return tracefile.WriteBinary(io.Discard, tr) }},
			{"trace-read", func() error { _, err := tracefile.ReadBinary(bytes.NewReader(file.Bytes())); return err }},
			{"tbl-write", func() error { return tracefile.WriteTable(io.Discard, tab) }},
			{"tbl-read", func() error { _, err := tracefile.ReadTable(tbl.Bytes()); return err }},
		} {
			b.Run(w.name+"/"+op.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := op.run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Events)), "ns/event")
			})
		}
	}
}
