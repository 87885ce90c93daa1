// Package resultcache is a content-addressed cache of extraction results:
// the layer that turns core.Extract from a per-request cost into a
// mostly-amortized one for the charmd analysis server.
//
// Results are keyed by (trace digest, canonical Options fingerprint). The
// trace digest addresses the input bytes (tracefile.ReadAutoDigest); the
// fingerprint (core.Options.Fingerprint) canonicalizes every option that
// can change the recovered structure while deliberately excluding
// execution-only knobs like Parallelism — the pipeline is byte-identical at
// every worker count, so one cached result serves requests at any.
//
// Three layers, consulted in order:
//
//  1. an in-memory LRU of decoded *core.Structure values (bounded entry
//     count; hits are lock-then-return);
//  2. an on-disk store of binary-encoded results (core.EncodeStructure),
//     each a checksummed section appended to its trace's file
//     (internal/store), surviving process restarts;
//  3. extraction itself, guarded by request coalescing: N concurrent
//     requests for one uncached key trigger exactly one Extract, and the
//     followers share the leader's result (a singleflight).
//
// Flights are detached from their requesters: the extraction runs on a
// cache-owned goroutine with its own context, so a caller whose deadline
// expires gets its error immediately while the flight keeps running and
// populates the cache — a retry after a timeout coalesces onto the
// still-running flight (or hits). Config.DetachedTimeout is the hard cap
// after which an orphaned flight is itself cancelled (cooperatively, via
// core.Options.Context) instead of burning CPU forever, and Close drains or
// cancels outstanding flights for shutdown.
//
// A caller either brings the decoded trace (Get's tr) and gets structures
// that hold it, or brings none and lets the cache resolve the digest through
// Config.Table and Config.Trace — the table to decode a disk hit or a peer
// fill against, the trace only to extract — in which case resident entries
// hold a table and no trace (see Config.Trace).
//
// A resident entry also keeps the finished responses the serving layer
// rendered from it (StoreResponse, LookupResponse), within a budget of the
// entry's own bytes, and drops them when the entry is evicted.
//
// Cached structures are shared between requests and must be treated as
// read-only; everything the serving layer does (rendering, metrics,
// structdiff) only reads. Every layer's traffic is counted in a
// telemetry.Registry so /debug/stats can report hit rates and extraction
// latency. When Config.MaxDiskBytes is set, the disk layer is size-bounded:
// after each write the result sections of the least-recently-used traces
// are garbage-collected until the store fits.
package resultcache

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"charmtrace/internal/core"
	"charmtrace/internal/store"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
)

// DefaultMaxMemEntries bounds the in-memory LRU when Config leaves it zero.
const DefaultMaxMemEntries = 64

// DefaultDetachedTimeout caps a detached flight when Config leaves it zero.
const DefaultDetachedTimeout = 5 * time.Minute

// DefaultMaxEntryBytes bounds one encoded entry accepted from a cluster
// peer when Config leaves MaxEntryBytes zero.
const DefaultMaxEntryBytes = 64 << 20

// ErrClosed is returned by Get after Close: the cache is draining and
// accepts no new flights. The serving layer maps it to 503.
var ErrClosed = errors.New("resultcache: closed")

// Config configures a Cache.
type Config struct {
	// Dir is the root of the on-disk store (internal/store: one file per
	// trace digest, to which each result is appended as a section), created
	// if missing. Required: New refuses an empty Dir.
	Dir string
	// MaxMemEntries bounds the in-memory LRU (0 = DefaultMaxMemEntries,
	// negative = no memory layer).
	MaxMemEntries int
	// MaxDiskBytes bounds the result sections of the on-disk store: after
	// each write, every result of the least-recently-used trace is evicted,
	// trace after trace, until the total fits. 0 leaves the store unbounded.
	MaxDiskBytes int64
	// DetachedTimeout is the hard cap on one detached flight's extraction:
	// a flight every requester has abandoned is cancelled cooperatively
	// once the cap expires, counted in cache.cancelled. 0 selects
	// DefaultDetachedTimeout; negative disables the cap.
	DetachedTimeout time.Duration
	// Metrics receives the cache's counters and histograms. nil uses a
	// private registry (still queryable via Registry()).
	Metrics *telemetry.Registry
	// Extract computes a structure on a full miss. nil uses core.Extract;
	// tests substitute instrumented variants. The cache attaches the
	// flight's detached context via opt.Context; a well-behaved extractor
	// honors it (core.Extract does, once per fixed block of each loop).
	Extract func(tr *trace.Trace, opt core.Options) (*core.Structure, error)
	// Index and Aux are the cache's two derived-view builders: each derives
	// a read-only value from a cached structure (charmd installs the query
	// engine's index builder as Index and the LOD pyramid builder as Aux).
	// The two are independent instances of one mechanism (see view): built
	// lazily, at most once per memory-resident entry, and dropped with it on
	// eviction; bytes is the value's estimated footprint, reported in the
	// cache.index_bytes / cache.aux_bytes gauge. A nil builder makes
	// GetIndexed/LookupIndexed (resp. GetAux/LookupAux) return a nil view.
	// A value that can grow after it is built (the LOD pyramid builds its
	// levels on first use) reports its size through a Bytes() int64
	// method, which RefreshViewBytes re-reads.
	// Builders are funcs to avoid resultcache→query and resultcache→lod
	// dependencies.
	Index func(s *core.Structure) (val any, bytes int64)
	Aux   func(s *core.Structure) (val any, bytes int64)
	// PeerFetch asks cluster peers for an already-encoded entry before the
	// cache falls back to extraction on a full miss (charmd wires the
	// ring-successor client here). It receives the trace digest (the
	// routing key) and the entry's content address, and returns the
	// encoded-varint bytes a peer served from its disk store. Any error is
	// a peer-fill miss: the cache counts it and extracts locally. nil
	// disables peer fill. Kept as a func to avoid a resultcache→cluster
	// dependency.
	PeerFetch func(ctx context.Context, traceDigest, key string) (io.ReadCloser, error)
	// Trace and Table resolve a trace digest for a Get whose caller passed no
	// trace (tr == nil), each only when the cache needs it: Table on a disk
	// hit or peer fill, to decode the entry against; Trace on a true miss,
	// to extract from. ctx is the flight's detached context. charmd wires
	// its trace store here, which is what lets it keep no decoded trace
	// between extractions. Who supplied the trace decides who keeps it: a
	// structure extracted from or decoded against a caller-supplied trace
	// keeps Structure.Trace; one resolved through these hooks is inserted
	// holding its table and no trace, so a resident entry never pins one.
	Trace func(ctx context.Context, traceDigest string) (*trace.Trace, error)
	Table func(ctx context.Context, traceDigest string) (*trace.Table, error)
	// MaxEntryBytes bounds one encoded entry read from a cluster peer, so a
	// lying or corrupted peer cannot balloon a fill into an unbounded
	// allocation (0 = DefaultMaxEntryBytes, negative = unbounded).
	MaxEntryBytes int64
}

// Cache is the three-layer result cache. Safe for concurrent use.
type Cache struct {
	store           *store.Store
	maxEntries      int
	maxDiskBytes    int64
	detachedTimeout time.Duration
	extract         func(tr *trace.Trace, opt core.Options) (*core.Structure, error)
	peerFetch       func(ctx context.Context, traceDigest, key string) (io.ReadCloser, error)
	traceOf         func(ctx context.Context, traceDigest string) (*trace.Trace, error)
	tableOf         func(ctx context.Context, traceDigest string) (*trace.Table, error)
	maxEntryBytes   int64
	readResult      func(traceDigest, key string) ([]byte, error) // the store's read; swapped by fault-injection tests

	reg           *telemetry.Registry
	hits          *telemetry.Counter // total hits (memory + disk)
	memHits       *telemetry.Counter
	diskHits      *telemetry.Counter
	misses        *telemetry.Counter // full misses (extraction ran)
	coalesced     *telemetry.Counter // requests served by another request's flight
	cancelled     *telemetry.Counter // flights whose extraction was cancelled (hard cap / Close)
	evictions     *telemetry.Counter
	diskErrors    *telemetry.Counter // unreadable/corrupt disk entries (self-healed)
	diskRetries   *telemetry.Counter // transient disk-read failures that were retried
	diskEvictions *telemetry.Counter // result sections GCed to honor MaxDiskBytes
	peerHits      *telemetry.Counter // misses filled from a cluster peer (cache.peer_hits)
	peerMisses    *telemetry.Counter // peer fill attempted, fell back to extraction
	extractMS     *telemetry.Histogram
	memEntries    *telemetry.Gauge
	tableBytesG   *telemetry.Gauge   // tables held by resident trace-less entries (cache.table_bytes)
	flightsG      *telemetry.Gauge   // in-progress extraction flights (cache.flights)
	respHits      *telemetry.Counter // requests answered from a stored response (cache.response_hits)
	respStores    *telemetry.Counter // responses stored (cache.response_stores)
	respRefused   *telemetry.Counter // complete responses past their entry's room (cache.response_refused)
	respBytesG    *telemetry.Gauge   // stored responses' bytes (cache.response_bytes)

	mu      sync.Mutex
	closed  bool
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	flights map[string]*flight
	views   [numViews]view // the derived-view slots; each view.total is guarded by mu
	// tableBytes sums entry.tableBytes over the resident entries (an
	// estimate: entries of one trace under several option sets share a table
	// and are each counted).
	tableBytes int64
	// respBytes sums entry.respBytes over the resident entries.
	respBytes int64

	flightWG sync.WaitGroup // outstanding detached flights, for Close
}

// viewID names one derived-view slot. Adding a view is one constant here,
// one row in New, and the builder behind it.
type viewID int

const (
	viewIndex viewID = iota // Config.Index: charmd's query index
	viewAux                 // Config.Aux: charmd's LOD pyramid
	numViews
)

// view is one derived-view slot: the builder and the metrics that account
// for it — cache.<name>_builds (constructions), cache.<name>_hits (requests
// served by an already-built value) and the cache.<name>_bytes gauge, which
// mirrors total, the estimated bytes held by resident values only.
type view struct {
	build  func(s *core.Structure) (any, int64)
	builds *telemetry.Counter
	hits   *telemetry.Counter
	bytesG *telemetry.Gauge
	total  int64
}

func newView(reg *telemetry.Registry, name string, build func(s *core.Structure) (any, int64)) view {
	return view{
		build:  build,
		builds: reg.Counter("cache." + name + "_builds"),
		hits:   reg.Counter("cache." + name + "_hits"),
		bytesG: reg.Gauge("cache." + name + "_bytes"),
	}
}

// viewState is one entry's value of one view. It is built at most once
// (the Once), outside the cache lock; accounted records whether bytes was
// added to the view's gauge (an entry evicted mid-build never gets
// accounted, and an accounted one is subtracted on eviction). Once
// accounted, bytes is only written under the cache lock.
type viewState struct {
	once      sync.Once
	val       any
	bytes     int64
	accounted bool
}

// entry is one memory-resident result plus its lazily-built derived views
// and the responses stored from it.
type entry struct {
	id          string
	s           *core.Structure
	structBytes int64 // s.Bytes()
	tableBytes  int64 // s.Table().Bytes() when s holds its table and no trace, else 0
	views       [numViews]viewState

	// responses holds the stored responses by key, nil until the first
	// store; respBytes sums what they cost. Both are guarded by Cache.mu.
	responses map[string]*Response
	respBytes int64
}

// flight is one in-progress extraction other requests can join. The
// extraction runs on a cache-owned goroutine under its own detached
// context; cancel aborts it (the hard cap and Close both use it). The
// identity, start time, live Progress and waiter count feed Flights() —
// charmd's /debug/flights. outcome (OutcomeDisk or OutcomeMiss) is written
// by the flight goroutine before done closes, so readers past the channel
// see it race-free.
type flight struct {
	done    chan struct{}
	cancel  context.CancelFunc
	s       *core.Structure
	err     error
	outcome string

	digest  string
	fp      string
	start   time.Time
	prog    *core.Progress
	waiters atomic.Int64
}

// New opens a cache, opening (or creating) the disk store in cfg.Dir.
func New(cfg Config) (*Cache, error) {
	if cfg.Dir == "" {
		return nil, errors.New("resultcache: Config.Dir is empty: the cache needs a data directory")
	}
	st, err := store.Open(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	max := cfg.MaxMemEntries
	if max == 0 {
		max = DefaultMaxMemEntries
	}
	if max < 0 {
		max = 0
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	ext := cfg.Extract
	if ext == nil {
		ext = core.Extract
	}
	dt := cfg.DetachedTimeout
	if dt == 0 {
		dt = DefaultDetachedTimeout
	}
	if dt < 0 {
		dt = 0 // no cap
	}
	meb := cfg.MaxEntryBytes
	if meb == 0 {
		meb = DefaultMaxEntryBytes
	}
	if meb < 0 {
		meb = 0 // unbounded
	}
	c := &Cache{
		store:           st,
		maxEntries:      max,
		maxDiskBytes:    cfg.MaxDiskBytes,
		detachedTimeout: dt,
		extract:         ext,
		peerFetch:       cfg.PeerFetch,
		traceOf:         cfg.Trace,
		tableOf:         cfg.Table,
		maxEntryBytes:   meb,
		reg:             reg,
		hits:            reg.Counter("cache.hits"),
		memHits:         reg.Counter("cache.mem_hits"),
		diskHits:        reg.Counter("cache.disk_hits"),
		misses:          reg.Counter("cache.misses"),
		coalesced:       reg.Counter("cache.coalesced"),
		cancelled:       reg.Counter("cache.cancelled"),
		evictions:       reg.Counter("cache.evictions"),
		diskErrors:      reg.Counter("cache.disk_errors"),
		diskRetries:     reg.Counter("cache.disk_retries"),
		diskEvictions:   reg.Counter("cache.disk_evictions"),
		peerHits:        reg.Counter("cache.peer_hits"),
		peerMisses:      reg.Counter("cache.peer_misses"),
		extractMS:       reg.Histogram("cache.extract_ms"),
		memEntries:      reg.Gauge("cache.mem_entries"),
		tableBytesG:     reg.Gauge("cache.table_bytes"),
		flightsG:        reg.Gauge("cache.flights"),
		respHits:        reg.Counter("cache.response_hits"),
		respStores:      reg.Counter("cache.response_stores"),
		respRefused:     reg.Counter("cache.response_refused"),
		respBytesG:      reg.Gauge("cache.response_bytes"),
		entries:         make(map[string]*list.Element),
		lru:             list.New(),
		flights:         make(map[string]*flight),
		views: [numViews]view{
			viewIndex: newView(reg, "index", cfg.Index),
			viewAux:   newView(reg, "aux", cfg.Aux),
		},
	}
	c.readResult = func(traceDigest, key string) ([]byte, error) {
		return st.Read(traceDigest, store.Result, key)
	}
	return c, nil
}

// Store returns the cache's disk store. The serving layer keeps its traces
// and their tables in the same files.
func (c *Cache) Store() *store.Store { return c.store }

// Registry returns the registry the cache's metrics live in.
func (c *Cache) Registry() *telemetry.Registry { return c.reg }

// KeyID is the content address of one (trace, options) result:
// sha256(trace digest ‖ 0 ‖ options fingerprint), hex-encoded. Exported so
// the cluster layer (the nodes' internal endpoints) can name entries on the
// wire.
func KeyID(traceDigest, fingerprint string) string {
	h := sha256.New()
	h.Write([]byte(traceDigest))
	h.Write([]byte{0})
	h.Write([]byte(fingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// ValidKey reports whether key has the shape KeyID produces (64 lowercase
// hex characters) — the internal endpoints reject anything else before it
// can touch the filesystem. A trace digest has the same shape, and the
// server's digest routes check it before a peer fetch can route by one.
func ValidKey(key string) bool { return store.ValidDigest(key) }

// Len returns the number of memory-resident results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// resident returns the memory-resident entry for id, refreshing its
// recency and counting the hit like a Get memory hit, or nil.
func (c *Cache) resident(id string) *entry {
	c.mu.Lock()
	el, ok := c.entries[id]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		return nil
	}
	c.hits.Add(1)
	c.memHits.Add(1)
	return el.Value.(*entry)
}

// Lookup returns the memory-resident structure for (traceDigest, opt)
// without touching disk or starting a flight. It lets the serving layer
// bypass admission control for requests that do no extraction work. A hit
// counts like a Get memory hit.
func (c *Cache) Lookup(traceDigest string, opt core.Options) (*core.Structure, bool) {
	if e := c.resident(KeyID(traceDigest, opt.Fingerprint())); e != nil {
		return e.s, true
	}
	return nil, false
}

// LookupIndexed is Lookup plus the entry's Index view, building it on first
// use. The view is nil when Config.Index is unset.
func (c *Cache) LookupIndexed(traceDigest string, opt core.Options) (*core.Structure, any, bool) {
	return c.lookupView(viewIndex, traceDigest, opt)
}

// LookupAux is Lookup plus the entry's Aux view, building it on first use.
// The view is nil when Config.Aux is unset.
func (c *Cache) LookupAux(traceDigest string, opt core.Options) (*core.Structure, any, bool) {
	return c.lookupView(viewAux, traceDigest, opt)
}

// GetIndexed is Get plus the entry's Index view (nil when Config.Index is
// unset); see getView for the already-evicted case.
func (c *Cache) GetIndexed(ctx context.Context, traceDigest string, tr *trace.Trace, opt core.Options) (*core.Structure, any, error) {
	return c.getView(ctx, viewIndex, traceDigest, tr, opt)
}

// GetAux is Get plus the entry's Aux view (nil when Config.Aux is unset);
// see getView for the already-evicted case.
func (c *Cache) GetAux(ctx context.Context, traceDigest string, tr *trace.Trace, opt core.Options) (*core.Structure, any, error) {
	return c.getView(ctx, viewAux, traceDigest, tr, opt)
}

// lookupView is Lookup plus one derived view. Like Lookup it never touches
// disk or starts a flight.
func (c *Cache) lookupView(v viewID, traceDigest string, opt core.Options) (*core.Structure, any, bool) {
	e := c.resident(KeyID(traceDigest, opt.Fingerprint()))
	if e == nil {
		return nil, nil, false
	}
	return e.s, c.viewFor(v, e), true
}

// getView is Get plus one derived view. On a full miss the view is built
// against the freshly-inserted entry; if the entry was already evicted
// again (tiny MaxMemEntries under load, or no memory layer) a transient,
// unaccounted value is built for this caller alone.
func (c *Cache) getView(ctx context.Context, v viewID, traceDigest string, tr *trace.Trace, opt core.Options) (*core.Structure, any, error) {
	s, err := c.Get(ctx, traceDigest, tr, opt)
	if err != nil {
		return nil, nil, err
	}
	vw := &c.views[v]
	if vw.build == nil {
		return s, nil, nil
	}
	c.mu.Lock()
	el, ok := c.entries[KeyID(traceDigest, opt.Fingerprint())]
	c.mu.Unlock()
	if ok {
		return s, c.viewFor(v, el.Value.(*entry)), nil
	}
	vw.builds.Add(1)
	val, _ := vw.build(s)
	return s, val, nil
}

// viewFor returns the entry's value of one view, building it exactly once.
// The build runs outside c.mu (concurrent callers queue on the entry's
// Once, not on the cache); afterwards the bytes are accounted in the view's
// gauge only if the entry is still resident — an entry evicted mid-build is
// never accounted, and insertLocked subtracts accounted entries on
// eviction.
func (c *Cache) viewFor(v viewID, e *entry) any {
	vw, st := &c.views[v], &e.views[v]
	if vw.build == nil {
		return nil
	}
	built := false
	st.once.Do(func() {
		built = true
		st.val, st.bytes = vw.build(e.s)
		vw.builds.Add(1)
		c.mu.Lock()
		if el, ok := c.entries[e.id]; ok && el.Value.(*entry) == e {
			st.accounted = true
			vw.total += st.bytes
			vw.bytesG.Set(float64(vw.total))
		}
		c.mu.Unlock()
	})
	if !built {
		vw.hits.Add(1)
	}
	return st.val
}

// sizer is a view value whose size can change after it is built.
type sizer interface{ Bytes() int64 }

// RefreshViewBytes re-reads the size of every resident view value that can
// grow, so that the cache.<view>_bytes gauges are exact when sampled:
// charmd calls it before each /debug/stats or /metrics export, since a LOD
// pyramid grows while a query that already holds it builds a level.
// Eviction subtracts the size last read, which is what the gauge holds.
func (c *Cache) RefreshViewBytes() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.entries {
		e := el.Value.(*entry)
		for v := range e.views {
			st := &e.views[v]
			if !st.accounted { // then val may still be being built
				continue
			}
			if sz, ok := st.val.(sizer); ok {
				n, vw := sz.Bytes(), &c.views[v]
				vw.total += n - st.bytes
				st.bytes = n
				vw.bytesG.Set(float64(vw.total))
			}
		}
	}
}

// Get returns the recovered structure for (traceDigest, opt), serving from
// memory, then disk, then a coalesced extraction. tr is the decoded trace
// the digest addresses, or nil to have the cache resolve the digest through
// Config.Table / Config.Trace when — and only when — it needs one: the first
// request for a key carries the trace to the extractor, a disk hit or peer
// fill decodes against its table, and a memory hit needs neither.
//
// ctx bounds only this caller's wait. The extraction itself runs on a
// cache-owned goroutine under a detached context: a caller that times out
// (leader or follower alike) gets ctx.Err() immediately while the flight
// keeps running and populates the cache, so an immediate retry coalesces
// onto the same flight — it never starts a second extraction — and a later
// one hits. A flight only dies with the process, with Close, or at the
// DetachedTimeout hard cap. The returned structure is shared — treat it as
// read-only.
func (c *Cache) Get(ctx context.Context, traceDigest string, tr *trace.Trace, opt core.Options) (*core.Structure, error) {
	id := KeyID(traceDigest, opt.Fingerprint())

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if el, ok := c.entries[id]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		c.memHits.Add(1)
		RecordOutcome(ctx, OutcomeMem)
		return el.Value.(*entry).s, nil
	}
	fl, joined := c.flights[id]
	if !joined {
		fl = c.launchFlightLocked(ctx, id, traceDigest, tr, opt)
	}
	fl.waiters.Add(1)
	c.mu.Unlock()
	defer fl.waiters.Add(-1)
	if joined {
		c.coalesced.Add(1)
	}
	select {
	case <-fl.done:
		if fl.err == nil {
			if joined {
				RecordOutcome(ctx, OutcomeCoalesced)
			} else {
				RecordOutcome(ctx, fl.outcome)
			}
		}
		return fl.s, fl.err
	case <-ctx.Done():
		RecordOutcome(ctx, OutcomeDetached)
		return nil, ctx.Err()
	}
}

// launchFlightLocked registers and starts the detached flight for a key.
// Caller holds c.mu. callerCtx is the leader's request context: only its
// request id (if any) is copied onto the flight's detached context, so a
// peer fill the flight makes carries the X-Request-ID of the HTTP request
// that triggered it even after that request detaches.
func (c *Cache) launchFlightLocked(callerCtx context.Context, id, traceDigest string, tr *trace.Trace, opt core.Options) *flight {
	fctx := telemetry.WithRequestID(context.Background(), telemetry.RequestID(callerCtx))
	var cancel context.CancelFunc
	if c.detachedTimeout > 0 {
		fctx, cancel = context.WithTimeout(fctx, c.detachedTimeout)
	} else {
		fctx, cancel = context.WithCancel(fctx)
	}
	fl := &flight{
		done:   make(chan struct{}),
		cancel: cancel,
		digest: traceDigest,
		fp:     opt.Fingerprint(),
		start:  time.Now(),
		prog:   core.NewProgress(),
	}
	c.flights[id] = fl
	c.flightsG.Set(float64(len(c.flights)))
	c.flightWG.Add(1)
	go func() {
		defer c.flightWG.Done()
		defer cancel()
		fl.s, fl.outcome, fl.err = c.fill(fctx, id, traceDigest, fl.prog, tr, opt)
		c.mu.Lock()
		delete(c.flights, id)
		c.flightsG.Set(float64(len(c.flights)))
		if fl.err == nil {
			c.insertLocked(id, fl.s)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	return fl
}

// FlightInfo is one in-progress extraction flight as reported by Flights:
// its content address, how long it has been running, how many requests are
// waiting on it (0 = fully detached), and the pipeline's live position.
type FlightInfo struct {
	TraceDigest string                `json:"digest"`
	Fingerprint string                `json:"fingerprint"`
	ElapsedMS   float64               `json:"elapsed_ms"`
	Waiters     int64                 `json:"waiters"`
	Progress    core.ProgressSnapshot `json:"progress"`
}

// Flights reports every in-progress extraction, sorted by (digest,
// fingerprint) for stable output. This is the data behind charmd's
// GET /debug/flights.
func (c *Cache) Flights() []FlightInfo {
	c.mu.Lock()
	fls := make([]*flight, 0, len(c.flights))
	for _, fl := range c.flights {
		fls = append(fls, fl)
	}
	c.mu.Unlock()
	out := make([]FlightInfo, 0, len(fls))
	for _, fl := range fls {
		out = append(out, FlightInfo{
			TraceDigest: fl.digest,
			Fingerprint: fl.fp,
			ElapsedMS:   float64(time.Since(fl.start).Nanoseconds()) / 1e6,
			Waiters:     fl.waiters.Load(),
			Progress:    fl.prog.Snapshot(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TraceDigest != out[j].TraceDigest {
			return out[i].TraceDigest < out[j].TraceDigest
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Close drains the cache for shutdown: new Gets fail with ErrClosed, and
// outstanding flights get until ctx expires to finish populating the cache;
// past the deadline they are cancelled cooperatively and Close waits for
// them to unwind. Close returns nil when every flight drained cleanly.
func (c *Cache) Close(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	cancels := make([]context.CancelFunc, 0, len(c.flights))
	for _, fl := range c.flights {
		cancels = append(cancels, fl.cancel)
	}
	c.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		c.flightWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		for _, cancel := range cancels {
			cancel()
		}
		<-drained
		return ctx.Err()
	}
}

// fill resolves a memory miss as the flight leader: disk, then cluster
// peers, then extraction under the flight's detached context. The returned
// outcome (OutcomeDisk, OutcomePeer or OutcomeMiss) labels which layer
// answered.
func (c *Cache) fill(ctx context.Context, id, traceDigest string, prog *core.Progress, tr *trace.Trace, opt core.Options) (*core.Structure, string, error) {
	wantFP := opt.Fingerprint()
	if data, err := c.readDisk(traceDigest, id); err == nil {
		s, fp, err := c.decode(ctx, traceDigest, data, tr)
		if err == nil && fp == wantFP {
			c.hits.Add(1)
			c.diskHits.Add(1)
			c.store.Touch(traceDigest)
			return s, OutcomeDisk, nil
		}
		// A stale entry self-heals: count it, re-extract, append a
		// section that supersedes it.
		c.diskErrors.Add(1)
	} else if !errors.Is(err, store.ErrNotFound) {
		c.diskErrors.Add(1) // failed its checksum (or the disk failed twice)
	}

	if c.peerFetch != nil {
		if s, ok := c.peerFill(ctx, traceDigest, id, wantFP, tr); ok {
			return s, OutcomePeer, nil
		}
	}

	own := tr != nil
	if !own {
		if c.traceOf == nil {
			return nil, OutcomeMiss, errors.New("resultcache: no trace supplied and no Trace hook configured")
		}
		var err error
		if tr, err = c.traceOf(ctx, traceDigest); err != nil {
			return nil, OutcomeMiss, err
		}
	}
	c.misses.Add(1)
	start := time.Now()
	opt.Context = ctx
	opt.Progress = prog
	s, err := c.extract(tr, opt)
	if err != nil {
		if ctx.Err() != nil {
			// The detached flight itself was cancelled (hard cap or Close).
			c.cancelled.Add(1)
		}
		return nil, OutcomeMiss, fmt.Errorf("resultcache: extract: %w", err)
	}
	c.extractMS.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	var enc bytes.Buffer
	if err := core.EncodeStructure(&enc, s); err != nil {
		c.diskErrors.Add(1)
	} else {
		c.persist(traceDigest, id, enc.Bytes())
	}
	if !own {
		s = s.WithoutTrace()
	}
	return s, OutcomeMiss, nil
}

// decode parses an encoded entry against the caller's trace, or — for a
// caller that supplied none — against the table the Table hook resolves.
func (c *Cache) decode(ctx context.Context, traceDigest string, data []byte, tr *trace.Trace) (*core.Structure, string, error) {
	if tr != nil {
		return core.DecodeStructure(bytes.NewReader(data), tr)
	}
	if c.tableOf == nil {
		return nil, "", errors.New("resultcache: no trace supplied and no Table hook configured")
	}
	tab, err := c.tableOf(ctx, traceDigest)
	if err != nil {
		return nil, "", err
	}
	return core.DecodeStructureTable(data, tab)
}

// peerFill asks the cluster's peers for the encoded entry and, on success,
// decodes it against the local trace or table and persists the bytes so the next
// miss is a plain disk hit. Every failure (no peer has it, transport error,
// bytes that do not decode to the wanted fingerprint) is one peer-fill miss
// and the caller falls back to extraction — a lying or stale peer can cost
// a round trip, never correctness.
func (c *Cache) peerFill(ctx context.Context, traceDigest, id, wantFP string, tr *trace.Trace) (*core.Structure, bool) {
	rc, err := c.peerFetch(ctx, traceDigest, id)
	if err != nil {
		c.peerMisses.Add(1)
		return nil, false
	}
	// A peer streaming more than MaxEntryBytes is treated as a miss, not an
	// unbounded allocation.
	body := io.Reader(rc)
	if c.maxEntryBytes > 0 {
		body = io.LimitReader(rc, c.maxEntryBytes+1)
	}
	data, err := io.ReadAll(body)
	rc.Close()
	if err != nil || (c.maxEntryBytes > 0 && int64(len(data)) > c.maxEntryBytes) {
		c.peerMisses.Add(1)
		return nil, false
	}
	s, fp, err := c.decode(ctx, traceDigest, data, tr)
	if err != nil || fp != wantFP {
		c.peerMisses.Add(1)
		return nil, false
	}
	c.peerHits.Add(1)
	c.persist(traceDigest, id, data)
	return s, true
}

// persist appends one encoded entry to its trace's file, then holds the
// store to MaxDiskBytes. Disk persistence is an optimization: a failure is
// counted and the request still succeeds from memory.
func (c *Cache) persist(traceDigest, id string, data []byte) {
	if err := c.store.Append(traceDigest, store.Result, id, data); err != nil {
		c.diskErrors.Add(1)
	} else if c.maxDiskBytes > 0 {
		c.gcDisk()
	}
}

// readDisk reads a cache entry, retrying exactly once on a transient
// failure: a missing section is a plain miss and one that fails its
// checksum is gone for good, but an EIO/EMFILE-style error on a section
// that should be readable gets one more chance before the entry is
// declared unreadable and re-extracted.
func (c *Cache) readDisk(traceDigest, id string) ([]byte, error) {
	data, err := c.readResult(traceDigest, id)
	if err == nil || errors.Is(err, store.ErrNotFound) || errors.Is(err, store.ErrCorrupt) {
		return data, err
	}
	c.diskRetries.Add(1)
	return c.readResult(traceDigest, id)
}

// ErrNoEntry is returned by OpenEntry when the disk store has no entry for
// a key — because it was never written, was garbage-collected, or failed
// its checksum. The internal endpoint maps it to 404 and a peer-fill caller
// falls back to extraction.
var ErrNoEntry = errors.New("resultcache: no such entry")

// OpenEntry opens the raw encoded bytes of one disk entry, located by its
// trace's digest and its key, for serving without a decode: the section's
// checksum is verified first, then the caller streams it from the file.
// The returned reader stays valid even if the entry is garbage-collected
// mid-stream: the GC renames a new file over the old, and the open file
// keeps the inode it opened, so a concurrent sweep can never truncate a
// response half-way. Any failure to open is ErrNoEntry.
func (c *Cache) OpenEntry(traceDigest, key string) (io.ReadCloser, int64, error) {
	sec, err := c.store.Open(traceDigest, store.Result, key)
	if err != nil {
		return nil, 0, ErrNoEntry
	}
	if err := sec.Verify(); err != nil {
		sec.Close()
		c.diskErrors.Add(1)
		return nil, 0, ErrNoEntry
	}
	c.store.Touch(traceDigest)
	return entryReader{sec}, sec.Size(), nil
}

// entryReader streams a verified section through its CopyTo, which hands a
// socket the file itself.
type entryReader struct{ *store.Section }

func (e entryReader) Read(p []byte) (int, error)         { return e.Section.Read(p) }
func (e entryReader) WriteTo(w io.Writer) (int64, error) { return e.Section.CopyTo(w) }

// ReadSummary stream-decodes the phase-table summary of one disk entry —
// the serving path for phase-table queries: no trace attach, no per-event
// arrays kept, the rest of the section only read through its checksum. A
// decodable entry whose fingerprint matches counts as a disk hit and
// refreshes its trace's recency; an entry that is missing is ErrNoEntry,
// and one that is corrupt or stale is counted like any unreadable entry and
// also reported as ErrNoEntry so the caller falls back to the full
// (self-healing) path.
func (c *Cache) ReadSummary(traceDigest, fingerprint string) (*core.StructureSummary, error) {
	sum, err := c.PeekSummary(traceDigest, fingerprint)
	if err == nil {
		c.hits.Add(1)
		c.diskHits.Add(1)
		c.store.Touch(traceDigest)
	}
	return sum, err
}

// PeekSummary is ReadSummary without the use: it counts no hit and leaves
// the trace's recency alone, so that listing every trace neither inflates
// the hit ratio nor reorders the disk GC.
func (c *Cache) PeekSummary(traceDigest, fingerprint string) (*core.StructureSummary, error) {
	sec, err := c.store.Open(traceDigest, store.Result, KeyID(traceDigest, fingerprint))
	if err != nil {
		return nil, ErrNoEntry
	}
	defer sec.Close()
	sum, err := core.DecodeStructureSummary(sec)
	if err == nil {
		_, err = io.Copy(io.Discard, sec) // to the end, where the checksum is checked
	}
	if err != nil || sum.Fingerprint != fingerprint {
		c.diskErrors.Add(1)
		return nil, ErrNoEntry
	}
	return sum, nil
}

// gcDisk enforces MaxDiskBytes through the store's GC, which drops the
// result sections of the least-recently-used traces until the store fits.
func (c *Cache) gcDisk() {
	c.diskEvictions.Add(int64(c.store.GC(c.maxDiskBytes)))
}

// insertLocked adds a result to the memory LRU, evicting from the back.
// Caller holds c.mu. Re-inserting a resident id keeps the existing entry
// (the key is a content address, so the structures are interchangeable,
// and keeping the old one preserves its built views). Evicting an entry
// releases the bytes of its accounted views from their gauges.
func (c *Cache) insertLocked(id string, s *core.Structure) {
	if c.maxEntries == 0 {
		return
	}
	if el, ok := c.entries[id]; ok {
		c.lru.MoveToFront(el)
		return
	}
	e := &entry{id: id, s: s, structBytes: s.Bytes()}
	if s.Trace == nil {
		e.tableBytes = s.Table().Bytes()
	}
	c.tableBytes += e.tableBytes
	c.entries[id] = c.lru.PushFront(e)
	for c.lru.Len() > c.maxEntries {
		back := c.lru.Back()
		c.lru.Remove(back)
		e := back.Value.(*entry)
		delete(c.entries, e.id)
		c.tableBytes -= e.tableBytes
		c.respBytes -= e.respBytes
		for v := range e.views {
			if st := &e.views[v]; st.accounted {
				c.views[v].total -= st.bytes
				c.views[v].bytesG.Set(float64(c.views[v].total))
			}
		}
		c.evictions.Add(1)
	}
	c.memEntries.Set(float64(c.lru.Len()))
	c.tableBytesG.Set(float64(c.tableBytes))
	c.respBytesG.Set(float64(c.respBytes))
}
