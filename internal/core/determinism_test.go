package core_test

// Determinism suite for the parallel extraction engine: for every bundled
// proxy application, Extract with Parallelism 1 (the fully sequential
// pipeline) and Parallelism 8 must produce identical rendered output and
// identical pipeline statistics. The suite runs under -race in the tier-1
// verify recipe, so it also exercises the worker pools for data races.

import (
	"bytes"
	"testing"

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
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
	"charmtrace/internal/viz"
)

// proxyWorkloads is one representative trace per bundled proxy app, paired
// with the options the paper's case study uses for it. The merge tree is
// scaled down from the paper's 1,024 processes to keep the -race runs fast;
// the benchmark suite covers the full size.
var proxyWorkloads = []struct {
	name string
	gen  func() (*trace.Trace, error)
	opt  core.Options
}{
	{"jacobi", func() (*trace.Trace, error) { return jacobi.Trace(jacobi.DefaultConfig()) }, core.DefaultOptions()},
	{"lulesh-charm", func() (*trace.Trace, error) { return lulesh.CharmTrace(lulesh.DefaultConfig()) }, core.DefaultOptions()},
	{"lulesh-mpi", func() (*trace.Trace, error) { return lulesh.MPITrace(lulesh.DefaultConfig()) }, core.MessagePassingOptions()},
	{"lassen", func() (*trace.Trace, error) { return lassen.CharmTrace(lassen.DefaultConfig()) }, core.DefaultOptions()},
	{"mergetree", func() (*trace.Trace, error) {
		cfg := mergetree.DefaultConfig()
		cfg.Procs = 128
		return mergetree.Trace(cfg)
	}, core.MessagePassingOptions()},
	{"pdes", func() (*trace.Trace, error) { return pdes.Trace(pdes.DefaultConfig()) }, core.DefaultOptions()},
	{"nasbt", func() (*trace.Trace, error) { return nasbt.Trace(nasbt.DefaultConfig()) }, core.MessagePassingOptions()},
	{"lbmigrate", func() (*trace.Trace, error) { return lbmigrate.Trace(lbmigrate.DefaultConfig()) }, core.DefaultOptions()},
	{"faultsim", func() (*trace.Trace, error) { return faultsim.Trace(faultsim.DefaultConfig()) }, core.DefaultOptions()},
	{"ordstress", func() (*trace.Trace, error) { return ordstress.Trace(ordstress.DefaultConfig()) }, core.DefaultOptions()},
}

// TestExtractParallelismInvariance: extraction output is byte-identical
// between the sequential pipeline and an 8-worker pool, on every proxy app.
func TestExtractParallelismInvariance(t *testing.T) {
	for _, w := range proxyWorkloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			tr, err := w.gen()
			if err != nil {
				t.Fatal(err)
			}
			seq := w.opt
			seq.Parallelism = 1
			par := w.opt
			par.Parallelism = 8

			s1, err := core.Extract(tr, seq)
			if err != nil {
				t.Fatal(err)
			}
			s8, err := core.Extract(tr, par)
			if err != nil {
				t.Fatal(err)
			}

			if got, want := viz.Logical(s8), viz.Logical(s1); got != want {
				t.Errorf("RenderLogical output differs between Parallelism 1 and 8")
			}
			if s1.NumPhases() != s8.NumPhases() {
				t.Errorf("phase counts differ: %d vs %d", s1.NumPhases(), s8.NumPhases())
			}
			for e := range tr.Events {
				if s1.PhaseOf[e] != s8.PhaseOf[e] || s1.LocalStep[e] != s8.LocalStep[e] || s1.Step[e] != s8.Step[e] {
					t.Fatalf("event %d placement differs: phase %d/%d local %d/%d global %d/%d",
						e, s1.PhaseOf[e], s8.PhaseOf[e],
						s1.LocalStep[e], s8.LocalStep[e], s1.Step[e], s8.Step[e])
				}
			}
			if len(s1.Stats.MergedBy) != len(s8.Stats.MergedBy) {
				t.Errorf("MergedBy stage sets differ: %v vs %v", s1.Stats.MergedBy, s8.Stats.MergedBy)
			}
			for stage, n := range s1.Stats.MergedBy {
				if s8.Stats.MergedBy[stage] != n {
					t.Errorf("MergedBy[%q] differs: %d vs %d", stage, n, s8.Stats.MergedBy[stage])
				}
			}
			if s1.Stats.InitialPartitions != s8.Stats.InitialPartitions {
				t.Errorf("InitialPartitions differ: %d vs %d",
					s1.Stats.InitialPartitions, s8.Stats.InitialPartitions)
			}
			if s1.Stats.EnforceRounds != s8.Stats.EnforceRounds {
				t.Errorf("EnforceRounds differ: %d vs %d",
					s1.Stats.EnforceRounds, s8.Stats.EnforceRounds)
			}

			// A recording run (shared metrics registry, 8 workers) must
			// still produce byte-identical output: telemetry observes the
			// pipeline, never steers it.
			rec := par
			rec.Metrics = telemetry.NewRegistry()
			sr, err := core.Extract(tr, rec)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := viz.Logical(sr), viz.Logical(s1); got != want {
				t.Errorf("recording run output differs from sequential run")
			}
			if snap := rec.Metrics.Snapshot(); len(snap.Counters) == 0 {
				t.Error("recording run merged no metrics into the shared registry")
			}
		})
	}
}

// TestExtractEncodedBytesAcrossParallelism: the cache's byte-identity
// contract, pinned at the codec layer — EncodeStructure of an extraction at
// Parallelism 1, 2 and 4 yields the same bytes on every proxy app, so one
// disk entry (and one content address) serves requests at any worker count.
func TestExtractEncodedBytesAcrossParallelism(t *testing.T) {
	for _, w := range proxyWorkloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			tr, err := w.gen()
			if err != nil {
				t.Fatal(err)
			}
			var golden []byte
			for _, par := range []int{1, 2, 4} {
				opt := w.opt
				opt.Parallelism = par
				s, err := core.Extract(tr, opt)
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				var buf bytes.Buffer
				if err := core.EncodeStructure(&buf, s); err != nil {
					t.Fatalf("par=%d: encode: %v", par, err)
				}
				if golden == nil {
					golden = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), golden) {
					t.Fatalf("par=%d: encoded bytes differ from par=1", par)
				}
			}
		})
	}
}

// TestExtractConcurrentSameTrace: Extract only reads an indexed trace, so
// concurrent extractions of the same *Trace must be safe (exercised for
// data races by the tier-1 -race run) and agree with each other.
func TestExtractConcurrentSameTrace(t *testing.T) {
	tr, err := jacobi.Trace(jacobi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Parallelism = 4
	const n = 6
	results := make([]*core.Structure, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			results[i], errs[i] = core.Extract(tr, opt)
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("extraction %d: %v", i, errs[i])
		}
	}
	want := viz.Logical(results[0])
	for i := 1; i < n; i++ {
		if viz.Logical(results[i]) != want {
			t.Fatalf("extraction %d produced a different structure", i)
		}
	}
}
