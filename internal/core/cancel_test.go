package core_test

// Cooperative-cancellation suite for the extraction pipeline: Options.Context
// must abort Extract at stage boundaries, between the fixed blocks of every
// loop, at enforce rounds and between ordered phases — and must never perturb the output of an
// extraction that runs to completion (the determinism guarantee the result
// cache keys on).

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
	"charmtrace/internal/viz"
)

// countdownCtx is a context.Context whose Err flips to context.Canceled on
// the k-th poll, permanently. It makes cancellation deterministic: instead of
// racing a timer against the pipeline, a test dials in exactly which
// cancellation checkpoint trips.
type countdownCtx struct {
	remaining atomic.Int64
	done      chan struct{}
	closeOnce sync.Once
}

func newCountdownCtx(polls int64) *countdownCtx {
	c := &countdownCtx{done: make(chan struct{})}
	c.remaining.Store(polls)
	return c
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return c.done }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		c.closeOnce.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

// polls reports how many Err calls were consumed out of an initial budget.
func (c *countdownCtx) polls(budget int64) int64 { return budget - c.remaining.Load() }

// TestExtractContextPlumbingIsInert: an extraction that never cancels is
// byte-identical to one with no context attached, at sequential and parallel
// worker counts — the cancellation plumbing only observes.
func TestExtractContextPlumbingIsInert(t *testing.T) {
	tr, err := jacobi.Trace(jacobi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bare := core.DefaultOptions()
	bare.Parallelism = 1
	want, err := core.Extract(tr, bare)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		opt := core.DefaultOptions()
		opt.Parallelism = par
		opt.Context = context.Background()
		got, err := core.Extract(tr, opt)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if viz.Logical(got) != viz.Logical(want) {
			t.Errorf("parallelism %d: output with context attached differs from bare run", par)
		}
	}
}

// TestExtractCancelsAtEveryCheckpoint: tripping the context at the k-th
// cancellation poll, for a spread of k across the whole pipeline, always
// aborts Extract with context.Canceled and no structure; an untripped
// countdown runs to completion. This pins both directions of the contract:
// every checkpoint aborts, and only cancellation aborts.
func TestExtractCancelsAtEveryCheckpoint(t *testing.T) {
	tr, err := jacobi.Trace(jacobi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Parallelism = 4

	// Budget pass: count how many polls a full run consumes.
	const budget = int64(1) << 30
	probe := newCountdownCtx(budget)
	opt.Context = probe
	if _, err := core.Extract(tr, opt); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	total := probe.polls(budget)
	if total < 10 {
		t.Fatalf("pipeline polled cancellation only %d times; checkpoints are missing", total)
	}

	ks := []int64{1, 2, 3, 5, total / 4, total / 2, total - 1}
	for _, k := range ks {
		if k < 1 || k >= total {
			continue
		}
		ctx := newCountdownCtx(k)
		opt.Context = ctx
		s, err := core.Extract(tr, opt)
		if err == nil {
			t.Fatalf("k=%d/%d: extraction completed despite cancellation", k, total)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: error %v does not wrap context.Canceled", k, err)
		}
		if s != nil {
			t.Fatalf("k=%d: cancelled extraction leaked a structure", k)
		}
	}
}

// TestExtractPreCancelledFailsFast: a context cancelled before the call
// aborts at the first stage boundary, not after burning a full extraction.
func TestExtractPreCancelledFailsFast(t *testing.T) {
	tr, err := jacobi.Trace(jacobi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := core.DefaultOptions()
	opt.Context = ctx
	start := time.Now()
	if _, err := core.Extract(tr, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	// Generous bound: the abort must not have run the pipeline. The jacobi
	// extraction itself takes milliseconds, so only a hang is caught here;
	// the checkpoint sweep above is the precise latency guarantee.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("pre-cancelled Extract took %v", d)
	}
}

// TestExtractDeadlineExceededPropagates: a deadline expiry surfaces as
// context.DeadlineExceeded, which the serving layer maps to 504.
func TestExtractDeadlineExceededPropagates(t *testing.T) {
	tr, err := jacobi.Trace(jacobi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	opt := core.DefaultOptions()
	opt.Context = ctx
	if _, err := core.Extract(tr, opt); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestExtractBatchCancelled: a cancelled batch fails with the cancellation
// error instead of extracting the remaining traces.
func TestExtractBatchCancelled(t *testing.T) {
	tr, err := jacobi.Trace(jacobi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := core.DefaultOptions()
	opt.Context = ctx
	if _, err := core.ExtractBatch([]*trace.Trace{tr, tr, tr}, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error %v does not wrap context.Canceled", err)
	}
}

// TestExtractCancelsInsideSequentialSweeps: the Alg. 1 dependency sweep,
// the overlap scan and the ordering stage's sweeps run on the calling
// goroutine at every worker count, and poll the context once per fixed block
// of events / leaps, crediting Progress per block or per phase ordered. So even at Parallelism 1 — how a one-core charmd always runs — a
// context that expires mid-sweep aborts there, with the loop's progress
// short of its total, instead of waiting out the whole loop while
// /debug/flights jumps 0 → total. The context expires on the k-th poll for
// growing k; the sweep is the last loop of its stage.
func TestExtractCancelsInsideSequentialSweeps(t *testing.T) {
	for _, tc := range []struct {
		name, stage string
		grid, iters int
	}{
		{"dependency sweep", "dependency-merge", 16, 8}, // more than one block of events
		{"overlap scan", "enforce-orderability", 4, 12}, // more than one block of leaps
		{"ordering sweeps", "step-assignment", 16, 8},   // more than one block of events
	} {
		cfg := jacobi.DefaultConfig()
		cfg.Grid, cfg.Iterations = tc.grid, tc.iters
		tr, err := jacobi.Trace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.DefaultOptions()
		opt.Parallelism = 1
		var inStage []core.ProgressSnapshot
		for k := int64(0); ; k++ {
			opt.Context = newCountdownCtx(k)
			opt.Progress = core.NewProgress()
			s, err := core.Extract(tr, opt)
			if err == nil {
				break // k outlasted every poll
			}
			if !errors.Is(err, context.Canceled) || s != nil {
				t.Fatalf("%s: k=%d: structure %v, error %v", tc.name, k, s != nil, err)
			}
			if snap := opt.Progress.Snapshot(); snap.Stage == tc.stage {
				inStage = append(inStage, snap)
			} else if len(inStage) > 0 {
				break // past the stage
			}
		}
		if len(inStage) == 0 {
			t.Fatalf("%s: no expiry landed in stage %s", tc.name, tc.stage)
		}
		total := inStage[len(inStage)-1].Total
		mid := false
		for _, snap := range inStage {
			mid = mid || (snap.Total == total && 0 < snap.Scanned && snap.Scanned < total)
		}
		if !mid {
			t.Errorf("%s: no expiry aborted inside the sweep (loop of %d); expiries in %s read %+v",
				tc.name, total, tc.stage, inStage)
		}
	}
}
