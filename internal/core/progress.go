package core

import (
	"sync/atomic"
	"time"
)

// Progress publishes an extraction's live position: the stage currently
// running, and how far through the stage's dominant loop it is (items
// scanned vs total — events for the dependency sweep, partitions for the
// per-partition scans, leaps for the overlap scan, phases for the ordering
// stage). It is the data source behind charmd's GET /debug/flights: the
// operator's answer to "why is this upload hanging".
//
// All fields are atomics, so the pipeline updates them lock-free — once per
// fixed block of the loop (sweepBlock events, leapBlock leaps, a partItems-th
// of the partitions, one phase), never per event, and the same at every worker
// count — and any goroutine may Snapshot concurrently. Like the Metrics
// sink, Progress only observes: an extraction's output is byte-identical
// with or without one attached, it is excluded from Options.Fingerprint, and
// every method is a no-op on a nil Progress, so the pipeline calls them
// unconditionally at the cost of one pointer check per block.
type Progress struct {
	start   time.Time
	stage   atomic.Pointer[string]
	scanned atomic.Int64
	total   atomic.Int64
}

// NewProgress returns a Progress whose clock starts now.
func NewProgress() *Progress { return &Progress{start: time.Now()} }

// SetStage records that the named stage began, resetting the loop counters.
// Exported so substituted extractors (resultcache.Config.Extract) can
// publish progress the same way core.Extract does.
func (p *Progress) SetStage(name string) {
	if p == nil {
		return
	}
	p.stage.Store(&name)
	p.scanned.Store(0)
	p.total.Store(0)
}

// StartLoop declares the current stage's dominant loop size.
func (p *Progress) StartLoop(total int64) {
	if p == nil {
		return
	}
	p.scanned.Store(0)
	p.total.Store(total)
}

// Add records n items completed in the current loop.
func (p *Progress) Add(n int64) {
	if p != nil {
		p.scanned.Add(n)
	}
}

// ProgressSnapshot is one consistent-enough read of a Progress: the fields
// are read individually (torn reads across a stage boundary can pair a new
// stage with an old counter for one poll), which is fine for an operator
// display and keeps the hot path free of locks.
type ProgressSnapshot struct {
	Stage   string        `json:"stage"`
	Scanned int64         `json:"scanned"`
	Total   int64         `json:"total"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Snapshot reads the current position. Safe on a nil Progress (zero value).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{
		Scanned: p.scanned.Load(),
		Total:   p.total.Load(),
		Elapsed: time.Since(p.start),
	}
	if name := p.stage.Load(); name != nil {
		s.Stage = *name
	}
	return s
}
