package resultcache

import (
	"context"
	"sync"
	"testing"
	"time"

	"charmtrace/internal/core"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
)

// blockingExtractor is a substituted extractor that publishes known
// progress through opt.Progress, then blocks until released — the
// deterministic way to observe an in-flight extraction.
type blockingExtractor struct {
	entered chan struct{} // closed once the extractor has published progress
	release chan struct{} // closing it lets the extraction finish
	once    sync.Once
}

func newBlockingExtractor() *blockingExtractor {
	return &blockingExtractor{entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingExtractor) extract(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
	if opt.Progress != nil {
		opt.Progress.SetStage("dependency-merge")
		opt.Progress.StartLoop(100)
		opt.Progress.Add(37)
	}
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return core.Extract(tr, core.Options{})
}

// TestFlightsListsInProgressExtractions: while an extraction runs, Flights
// reports its identity, waiter count and the live stage progress the
// extractor published; after completion the table is empty again.
func TestFlightsListsInProgressExtractions(t *testing.T) {
	tr, digest := testTrace(t)
	ext := newBlockingExtractor()
	c, err := New(Config{Dir: t.TempDir(), Extract: ext.extract})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()

	if got := c.Flights(); len(got) != 0 {
		t.Fatalf("idle cache lists %d flights", len(got))
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), digest, tr, opt)
		done <- err
	}()
	<-ext.entered

	flights := c.Flights()
	if len(flights) != 1 {
		t.Fatalf("flights = %d, want 1", len(flights))
	}
	f := flights[0]
	if f.TraceDigest != digest {
		t.Errorf("digest %q, want %q", f.TraceDigest, digest)
	}
	if f.Fingerprint != opt.Fingerprint() {
		t.Errorf("fingerprint %q, want %q", f.Fingerprint, opt.Fingerprint())
	}
	if f.Waiters != 1 {
		t.Errorf("waiters = %d, want 1", f.Waiters)
	}
	if f.Progress.Stage != "dependency-merge" || f.Progress.Scanned != 37 || f.Progress.Total != 100 {
		t.Errorf("progress = %+v, want dependency-merge 37/100", f.Progress)
	}
	if f.ElapsedMS < 0 {
		t.Errorf("elapsed %v", f.ElapsedMS)
	}
	if g := c.Registry().Gauge("cache.flights").Value(); g != 1 {
		t.Errorf("cache.flights gauge = %v, want 1", g)
	}

	close(ext.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(c.Flights()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight still listed after completion")
		}
		time.Sleep(time.Millisecond)
	}
	if g := c.Registry().Gauge("cache.flights").Value(); g != 0 {
		t.Errorf("cache.flights gauge = %v after completion", g)
	}
}

// outcomeOf runs one Get with a recorder attached and returns the outcome.
func outcomeOf(t *testing.T, c *Cache, digest string, tr *trace.Trace, opt core.Options) string {
	t.Helper()
	ctx, rec := WithOutcomeRecorder(context.Background())
	if _, err := c.Get(ctx, digest, tr, opt); err != nil {
		t.Fatal(err)
	}
	return rec.Outcome()
}

// TestOutcomeReporting walks one key through the cache layers and checks
// the per-request outcome each layer reports: miss (extraction ran), mem
// (LRU hit), disk (decode after restart), coalesced (joined another
// request's flight), detached (caller's context expired).
func TestOutcomeReporting(t *testing.T) {
	tr, digest := testTrace(t)
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()

	if got := outcomeOf(t, c, digest, tr, opt); got != OutcomeMiss {
		t.Fatalf("first request outcome %q, want %q", got, OutcomeMiss)
	}
	if got := outcomeOf(t, c, digest, tr, opt); got != OutcomeMem {
		t.Fatalf("second request outcome %q, want %q", got, OutcomeMem)
	}

	// A fresh cache over the same directory: the disk layer answers.
	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeOf(t, c2, digest, tr, opt); got != OutcomeDisk {
		t.Fatalf("restart request outcome %q, want %q", got, OutcomeDisk)
	}
}

func TestOutcomeCoalescedAndDetached(t *testing.T) {
	tr, digest := testTrace(t)
	ext := newBlockingExtractor()
	c, err := New(Config{Dir: t.TempDir(), Extract: ext.extract})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()

	leaderCtx, leaderRec := WithOutcomeRecorder(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Get(leaderCtx, digest, tr, opt)
		leaderDone <- err
	}()
	<-ext.entered

	// A follower with an already-cancelled context detaches immediately.
	detachedCtx, detachedRec := WithOutcomeRecorder(context.Background())
	detachedCtx, cancel := context.WithCancel(detachedCtx)
	cancel()
	if _, err := c.Get(detachedCtx, digest, tr, opt); err == nil {
		t.Fatal("cancelled follower must return an error")
	}
	if got := detachedRec.Outcome(); got != OutcomeDetached {
		t.Fatalf("detached outcome %q, want %q", got, OutcomeDetached)
	}

	// A live follower joins the leader's flight.
	followerCtx, followerRec := WithOutcomeRecorder(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := c.Get(followerCtx, digest, tr, opt)
		followerDone <- err
	}()
	// Wait until the follower is counted on the flight, then release.
	deadline := time.Now().Add(2 * time.Second)
	for {
		fl := c.Flights()
		if len(fl) == 1 && fl[0].Waiters >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(ext.release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if err := <-followerDone; err != nil {
		t.Fatal(err)
	}
	if got := leaderRec.Outcome(); got != OutcomeMiss {
		t.Fatalf("leader outcome %q, want %q", got, OutcomeMiss)
	}
	if got := followerRec.Outcome(); got != OutcomeCoalesced {
		t.Fatalf("follower outcome %q, want %q", got, OutcomeCoalesced)
	}
}

// TestFlightCarriesRequestID: the detached flight context inherits the
// leader's request ID, so extraction spans stay correlated with the
// request that launched them even after the requester detaches.
func TestFlightCarriesRequestID(t *testing.T) {
	tr, digest := testTrace(t)
	var seen string
	c, err := New(Config{
		Dir: t.TempDir(),
		Extract: func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
			seen = telemetry.RequestID(opt.Context)
			return core.Extract(tr, core.Options{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.WithRequestID(context.Background(), "req-42")
	if _, err := c.Get(ctx, digest, tr, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if seen != "req-42" {
		t.Fatalf("flight context carried request id %q, want req-42", seen)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var rec *OutcomeRecorder
	rec.Record(OutcomeMem) // must not panic
	if rec.Outcome() != "" {
		t.Fatal("nil recorder outcome")
	}
	// A context without a recorder ignores RecordOutcome.
	RecordOutcome(context.Background(), OutcomeMem)
}
