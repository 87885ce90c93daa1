package resultcache

import (
	"context"
	"sync/atomic"
)

// Cache outcomes, as reported per request through an OutcomeRecorder. The
// serving layer logs one per access-log line, which is what lets an
// operator tell a 2ms miss from a 1µs memory hit without correlating
// counters.
const (
	// OutcomeMiss: this request's flight ran a full extraction.
	OutcomeMiss = "miss"
	// OutcomeMem: served from the in-memory LRU.
	OutcomeMem = "mem"
	// OutcomeDisk: this request's flight decoded an on-disk entry.
	OutcomeDisk = "disk"
	// OutcomeCoalesced: served by another request's in-progress flight.
	OutcomeCoalesced = "coalesced"
	// OutcomeDetached: the caller's context expired and it detached from a
	// flight that kept running.
	OutcomeDetached = "detached"
	// OutcomePeer: this request's flight filled the entry from a cluster
	// peer's disk store instead of extracting.
	OutcomePeer = "peer"
)

// OutcomeRecorder receives the cache outcome of one request. Carried by
// context so the cache can report per-request outcomes without changing the
// Get/Lookup signatures; safe for concurrent use (last write wins, and a
// request makes at most one cache access per recorder).
type OutcomeRecorder struct{ v atomic.Value }

// Record stores the outcome. Safe on a nil recorder.
func (r *OutcomeRecorder) Record(outcome string) {
	if r != nil {
		r.v.Store(outcome)
	}
}

// Outcome returns the recorded outcome, or "" when the request never
// reached the cache (bad request, unknown digest, shed by admission).
func (r *OutcomeRecorder) Outcome() string {
	if r == nil {
		return ""
	}
	s, _ := r.v.Load().(string)
	return s
}

type outcomeKey struct{}

// WithOutcomeRecorder returns a context carrying a fresh recorder, and the
// recorder itself for reading after the request completes.
func WithOutcomeRecorder(ctx context.Context) (context.Context, *OutcomeRecorder) {
	rec := &OutcomeRecorder{}
	return context.WithValue(ctx, outcomeKey{}, rec), rec
}

// RecordOutcome stores the outcome on the context's recorder, if any. The
// serving layer uses it for the memory-hit fast path (Lookup), which
// deliberately takes no context.
func RecordOutcome(ctx context.Context, outcome string) {
	rec, _ := ctx.Value(outcomeKey{}).(*OutcomeRecorder)
	rec.Record(outcome)
}
