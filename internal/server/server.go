// Package server implements charmd's HTTP/JSON API: trace upload,
// structure and step retrieval, per-chare §4 metrics, structure diffing,
// and the observability endpoints — all on top of the content-addressed
// resultcache, so a hot answer never re-runs the extraction pipeline.
//
// Design constraints, in order:
//
//   - Determinism is load-bearing: every analysis response is rendered only
//     from state the structure codec preserves, so a cache hit (memory,
//     disk, or coalesced flight) is byte-identical to the response a fresh
//     extraction would have produced.
//   - Robustness: uploads are streamed and size-limited, malformed traces
//     map to 4xx via tracefile.ErrMalformed (never 5xx), analysis requests
//     carry a per-request timeout, and Shutdown drains in-flight work.
//   - Observability: request latency histograms, an in-flight gauge, cache
//     hit/miss/evict counters and per-stage pipeline metrics all land in
//     one telemetry.Registry, exported at /debug/stats in the versioned
//     StatsExport schema.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"charmtrace/internal/core"
	"charmtrace/internal/lod"
	"charmtrace/internal/metrics"
	"charmtrace/internal/query"
	"charmtrace/internal/resultcache"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// Config configures a Server.
type Config struct {
	// DataDir holds the persistent state, one file per uploaded trace
	// (internal/store): its raw bytes, then its event table and its encoded
	// results as they are made. Required: New refuses an empty DataDir (an
	// ephemeral node passes a temporary directory).
	DataDir string
	// MaxMemEntries bounds the result cache's in-memory LRU
	// (0 = resultcache.DefaultMaxMemEntries).
	MaxMemEntries int
	// MaxUploadBytes bounds one trace upload (0 = 256 MiB).
	MaxUploadBytes int64
	// RequestTimeout bounds one analysis request's wait, including any
	// extraction it joins (0 = 60s). The extraction itself always runs to
	// completion to populate the cache (see resultcache's detached flights).
	RequestTimeout time.Duration
	// MaxConcurrentExtractions bounds how many analysis requests may hold an
	// extraction slot at once (0 = GOMAXPROCS; negative = unlimited).
	// Requests beyond the bound queue for QueueWait, then are shed with 429
	// and a Retry-After hint. Memory-cache hits bypass admission entirely.
	MaxConcurrentExtractions int
	// QueueWait is how long an analysis request may wait for an extraction
	// slot before being shed (0 = 1s).
	QueueWait time.Duration
	// MaxResultBytes bounds the results and spilled responses on disk
	// together; past it, the results and responses of the
	// least-recently-used traces are garbage-collected (0 = unbounded).
	MaxResultBytes int64
	// Metrics is the server-wide registry (nil = a private one).
	Metrics *telemetry.Registry
	// AccessLog receives one structured line per completed request (nil
	// disables access logging). cmd/charmd wires a JSON slog logger by
	// default; see -log-format.
	AccessLog *slog.Logger

	// NodeName identifies this node in a cluster: stamped on every response
	// (X-Charmd-Node), on access-log lines, in /debug payloads, and as the
	// node label on /metrics. Empty runs the server unnamed (single-node).
	NodeName string
	// PeerFetch asks cluster siblings for an already-encoded result entry
	// before a cache miss falls back to extraction (cmd/charmd wires
	// cluster.Peers.FetchResult). nil disables peer cache-fill.
	PeerFetch func(ctx context.Context, traceDigest, key string) (io.ReadCloser, error)
	// TraceFetch pulls a raw trace from cluster siblings when a request
	// names a digest this node has never seen — what lets any node serve a
	// read after failover. nil disables (unknown digests 404).
	TraceFetch func(ctx context.Context, digest string) (io.ReadCloser, error)

	// extract substitutes the cache's extraction function in tests
	// (instrumented stubs that block or count). nil = core.Extract.
	extract func(tr *trace.Trace, opt core.Options) (*core.Structure, error)
}

// Server is the charmd request handler. Create with New, mount anywhere
// (it implements http.Handler), and call Close on shutdown.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	cache  *resultcache.Cache
	engine *query.Engine
	mux    *http.ServeMux

	mu     sync.RWMutex
	traces map[string]*traceEntry

	// sem is the extraction-admission semaphore (nil = unlimited); closing
	// flips on Shutdown, after which every request gets 503.
	sem     chan struct{}
	closing atomic.Bool

	inflight       atomic.Int64
	inflightG      *telemetry.Gauge
	requests       *telemetry.Counter
	uploads        *telemetry.Counter
	shed           *telemetry.Counter   // requests rejected with 429 (server.shed)
	queueWaitMS    *telemetry.Histogram // time spent waiting for a slot (server.queue_wait_ms)
	tracePeerFills *telemetry.Counter   // traces pulled from cluster siblings (server.trace_peer_fills)
	traceDecodes   *telemetry.Counter   // traces re-decoded from the data directory (server.trace_decodes)
	tableBuilds    *telemetry.Counter   // tables built from a decoded trace (server.table_builds)
	tableDiskLoads *telemetry.Counter   // tables read from a table section (server.table_disk_loads)
	tableErrors    *telemetry.Counter   // table sections that failed to load or to append (server.table_errors)
	tracesDecodedG *telemetry.Gauge     // decoded traces alive at the last scrape (server.traces_decoded)
	traceBytesG    *telemetry.Gauge     // their estimated bytes (server.trace_resident_bytes)

	statusClass   telemetry.StatusClasses // server.status.<n>xx
	renderAborted *telemetry.Counter      // row responses cut short by a gone client or a deadline (server.render_aborted)
}

// New builds a server, opening the store in DataDir and indexing any traces
// a previous process left there.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("server: Config.DataDir is empty: charmd keeps its state in a data directory (-data-dir)")
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 256 << 20
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.MaxConcurrentExtractions == 0 {
		cfg.MaxConcurrentExtractions = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = time.Second
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	engine := query.NewEngine(reg)
	s := &Server{
		cfg:            cfg,
		reg:            reg,
		engine:         engine,
		traces:         make(map[string]*traceEntry),
		inflightG:      reg.Gauge("server.inflight"),
		requests:       reg.Counter("server.requests"),
		uploads:        reg.Counter("server.uploads"),
		shed:           reg.Counter("server.shed"),
		queueWaitMS:    reg.Histogram("server.queue_wait_ms"),
		tracePeerFills: reg.Counter("server.trace_peer_fills"),
		traceDecodes:   reg.Counter("server.trace_decodes"),
		tableBuilds:    reg.Counter("server.table_builds"),
		tableDiskLoads: reg.Counter("server.table_disk_loads"),
		tableErrors:    reg.Counter("server.table_errors"),
		tracesDecodedG: reg.Gauge("server.traces_decoded"),
		traceBytesG:    reg.Gauge("server.trace_resident_bytes"),
	}
	s.renderAborted = reg.Counter("server.render_aborted")
	s.statusClass = reg.StatusClasses("server.status")
	var err error
	s.cache, err = resultcache.New(resultcache.Config{
		Dir:           cfg.DataDir,
		MaxMemEntries: cfg.MaxMemEntries,
		MaxDiskBytes:  cfg.MaxResultBytes,
		Metrics:       reg,
		Extract:       cfg.extract,
		PeerFetch:     cfg.PeerFetch,
		Trace: func(ctx context.Context, digest string) (*trace.Trace, error) {
			return withEntry(ctx, s, digest, s.traceOf)
		},
		Table: func(ctx context.Context, digest string) (*trace.Table, error) {
			return withEntry(ctx, s, digest, s.tableOf)
		},
		Index: func(st *core.Structure) (any, int64) {
			idx := engine.Index(st)
			return idx, idx.Bytes()
		},
		Aux: func(st *core.Structure) (any, int64) {
			p := lod.Build(st, metrics.Shared(st))
			return p, p.Bytes()
		},
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.MaxConcurrentExtractions > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrentExtractions)
	}
	for _, t := range s.cache.Store().Traces() { // registered without decoding
		s.traces[t.Digest] = &traceEntry{sum: traceSummary{Digest: t.Digest, Bytes: t.Bytes}}
	}
	s.routes()
	return s, nil
}

// Registry returns the server's metrics registry (the /debug/stats source).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// errUnknownTrace maps to 404.
var errUnknownTrace = errors.New("unknown trace digest")

// DigestRoute is one digest-scoped endpoint: a mux pattern whose path
// carries the {digest} it reads, the route label its metrics and log lines
// use, and how a Server answers it. All of them are read-only, and the POST
// forms carry a small JSON spec. The cluster gateway mounts the same rows —
// routing each by its digest, buffering a POST body so it can be resent —
// which is what makes a new endpoint one row here and nothing there.
type DigestRoute struct {
	Pattern string
	Label   string
	handler func(*Server) http.HandlerFunc
}

// DigestRoutes is the table of digest-scoped endpoints.
var DigestRoutes = []DigestRoute{
	{"GET /v1/traces/{digest}", "trace", func(s *Server) http.HandlerFunc { return s.handleTrace }},
	{"GET /v1/traces/{digest}/structure", "structure", func(s *Server) http.HandlerFunc {
		return s.retrofit(query.SelectStructure, s.serveStructure)
	}},
	{"GET /v1/traces/{digest}/steps", "steps", func(s *Server) http.HandlerFunc {
		return s.retrofit(query.SelectSteps, s.serveSteps)
	}},
	{"GET /v1/traces/{digest}/metrics", "metrics", func(s *Server) http.HandlerFunc {
		return s.retrofit(query.SelectMetrics, s.serveMetrics)
	}},
	{"POST /v1/traces/{digest}/query", "query", func(s *Server) http.HandlerFunc {
		return analysis(s, func(w http.ResponseWriter, r *http.Request) (query.Spec, error) {
			return query.ParseSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		}, s.serveQuery)
	}},
	{"GET /v1/traces/{digest}/lod", "lod", func(s *Server) http.HandlerFunc {
		return analysis(s, func(_ http.ResponseWriter, r *http.Request) (lod.Spec, error) {
			return lod.SpecFromParams(r.URL.Query())
		}, s.serveLod)
	}},
	{"POST /v1/traces/{digest}/lod", "lod_post", func(s *Server) http.HandlerFunc {
		return analysis(s, func(w http.ResponseWriter, r *http.Request) (lod.Spec, error) {
			return lod.ParseSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		}, s.serveLod)
	}},
}

// routes mounts every endpoint behind the instrument middleware.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.instrument(route, h))
	}
	handle("POST /v1/traces", "upload", s.handleUpload)
	handle("GET /v1/traces", "list", s.handleList)
	for _, rt := range DigestRoutes {
		handle(rt.Pattern, rt.Label, rt.handler(s))
	}
	handle("GET /v1/structdiff", "structdiff", s.handleStructDiff)
	handle("GET /metrics", "prom", s.handleProm)
	handle("GET /debug/stats", "stats", s.handleStats)
	handle("GET /debug/flights", "flights", s.handleFlights)
	handle("GET /v1/internal/results/{key}", "internal_result", s.handleInternalResultGet)
	handle("GET /v1/internal/traces/{digest}", "internal_trace", s.handleInternalTraceGet)
	handle("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	handle("GET /readyz", "readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness differs from liveness exactly during drain: a closing
		// node answers /healthz but tells a load balancer to route around
		// it here.
		w.Header().Set("Content-Type", "application/json")
		if s.closing.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"draining"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
}

// ServeHTTP dispatches to the mounted routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// maxSpecBytes bounds a POST /query or /lod body; a spec is a few hundred
// bytes, so anything past this is garbage.
const maxSpecBytes = 1 << 20

// analysis adapts one digest-scoped analysis endpoint. It owns the preamble
// every such endpoint shares, in the order that fixes error precedence: the
// extraction options (bad option → 400), then the endpoint's spec decoder
// (bad spec → 400 with the field named), then — for the URL-addressed
// GET/HEAD forms, whose response is immutable per (digest, options,
// parameters) — the ETag/304 validator, then the response stored for the
// request with the resident cache entry (serveStored), and only then serve.
// A GET's stored response is keyed by its ETag. A POST carries its spec in
// the body, which the URL-derived ETag cannot cover: it gets no validator,
// and its stored response is keyed by specKey, a hash of the decoded spec.
func analysis[S any](s *Server, decode func(http.ResponseWriter, *http.Request) (S, error),
	serve func(w http.ResponseWriter, r *http.Request, digest string, opt core.Options, spec S)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		digest := r.PathValue("digest")
		opt, err := s.extractOptions(r)
		if err != nil {
			httpError(w, err)
			return
		}
		spec, err := decode(w, r)
		if err != nil {
			httpError(w, err)
			return
		}
		fp := opt.Fingerprint()
		var key string
		if r.Method == http.MethodPost {
			key = specKey(r, fp, spec)
		} else {
			etag, done := s.notModified(w, r, digest, fp)
			if done {
				return
			}
			if r.Method == http.MethodGet {
				key = etag
			}
		}
		if key != "" && s.serveStored(w, r, digest, fp, key) {
			return
		}
		serve(w, r, digest, opt, spec)
	}
}

// retrofit is analysis for the three legacy GET endpoints: a request with
// any query-engine parameter (?phase=, ?steps=, ?limit=, …) runs as a query
// with the given select kind; without one, full serves the endpoint's
// original whole-trace response.
func (s *Server) retrofit(sel string, full func(w http.ResponseWriter, r *http.Request, digest string, opt core.Options)) http.HandlerFunc {
	return analysis(s, func(_ http.ResponseWriter, r *http.Request) (*query.Spec, error) {
		spec, used, err := query.SpecFromParams(sel, r.URL.Query())
		if err != nil || !used {
			return nil, err
		}
		return &spec, nil
	}, func(w http.ResponseWriter, r *http.Request, digest string, opt core.Options, spec *query.Spec) {
		if spec != nil {
			s.serveQuery(w, r, digest, opt, *spec)
			return
		}
		full(w, r, digest, opt)
	})
}

// instrument wraps a handler with the serving telemetry (request counter,
// in-flight gauge, per-route latency histogram, status-class counters, body
// bytes before compression and wire bytes after it),
// request correlation (X-Request-ID honored or minted, echoed, and carried
// by context onto access-log lines and peer fills), the per-request
// timeout context, and transparent response compression. Every response
// carries Vary: Accept-Encoding because its transfer encoding depends on
// that request header; the body bytes fed into the compressor are identical
// to the uncompressed response. Once the handler returns, a response
// serveStored armed for capture is stored if it completed.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	latency := s.reg.Histogram("server.latency_ms." + route)
	bodyBytes := s.reg.Counter("server.body_bytes." + route)
	wireBytes := s.reg.Counter("server.wire_bytes." + route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Vary", "Accept-Encoding")
		reqID := telemetry.RequestIDFor(r.Header.Get("X-Request-ID"))
		w.Header().Set("X-Request-ID", reqID)
		if s.cfg.NodeName != "" {
			w.Header().Set("X-Charmd-Node", s.cfg.NodeName)
		}
		rctx := telemetry.WithRequestID(r.Context(), reqID)
		rctx, outcome := resultcache.WithOutcomeRecorder(rctx)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK, rec: outcome}
		start := time.Now()
		if s.closing.Load() {
			sw.Header().Set("Content-Type", "application/json")
			sw.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(sw).Encode(map[string]string{"error": "server shutting down"})
			sw.body = sw.bytes
			s.logAccess(r, route, reqID, outcome, sw, time.Since(start))
			return
		}
		s.requests.Add(1)
		s.inflightG.Set(float64(s.inflight.Add(1)))
		defer func() { s.inflightG.Set(float64(s.inflight.Add(-1))) }()

		ctx, cancel := context.WithTimeout(rctx, s.cfg.RequestTimeout)
		defer cancel()
		gz := &gzipResponseWriter{ResponseWriter: sw, passthrough: !acceptsGzip(r)}
		r = r.WithContext(ctx)
		h(gz, r)
		gz.Close()
		gz.storeKept(ctx, s.cache)
		sw.body = gz.body
		elapsed := time.Since(start)
		latency.Observe(float64(elapsed.Nanoseconds()) / 1e6)
		s.statusClass.Count(sw.code)
		bodyBytes.Add(sw.body)
		wireBytes.Add(sw.bytes)
		s.logAccess(r, route, reqID, outcome, sw, elapsed)
	})
}

// statusWriter records the response code and byte counts for the
// status-class and byte counters and the access log. With compression
// enabled it sits under the gzip writer, so bytes counts what went on the
// wire; body, filled in once the handler returns, is what the handler wrote
// before compression. At
// the first WriteHeader it stamps which cache layer answered
// (X-Charmd-Cache) from the request's outcome recorder: that is not known
// until the handler has resolved the request, yet must precede the body.
// The gateway counts cluster-wide peer fills and extractions from it.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	body  int64
	wrote bool
	rec   *resultcache.OutcomeRecorder
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
		if o := w.rec.Outcome(); o != "" {
			w.Header().Set("X-Charmd-Cache", o)
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// overloadError reports a request shed by admission control, carrying the
// Retry-After hint httpError renders alongside the 429.
type overloadError struct{ retryAfter time.Duration }

func (e *overloadError) Error() string {
	return fmt.Sprintf("server overloaded: no extraction slot within %v", e.retryAfter)
}

// httpError writes a JSON error body with the status mapped from err:
// unknown digests are 404, malformed traces, bad parameters and invalid
// query specs 400 (specs with the offending field named), oversized
// uploads 413, shed requests 429 (with Retry-After), timeouts 504, a
// draining server 503, everything else 500.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	body := map[string]string{"error": err.Error()}
	var maxBytes *http.MaxBytesError
	var overload *overloadError
	var specErr *query.Error
	var lodErr *lod.Error
	switch {
	case errors.As(err, &maxBytes):
		code = http.StatusRequestEntityTooLarge
	case errors.As(err, &overload):
		code = http.StatusTooManyRequests
		secs := int(overload.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case errors.As(err, &specErr):
		code = http.StatusBadRequest
		body["field"] = specErr.Field
	case errors.As(err, &lodErr):
		code = http.StatusBadRequest
		body["field"] = lodErr.Field
	case errors.Is(err, errUnknownTrace):
		code = http.StatusNotFound
	case errors.Is(err, tracefile.ErrMalformed), errors.Is(err, errBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, resultcache.ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// errBadRequest tags parameter-validation failures.
var errBadRequest = errors.New("bad request")

// writeJSON renders a response deterministically: encoding/json is stable
// for struct-typed values, which is what keeps cache-hit responses
// byte-identical to fresh ones.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeJSONCompact is writeJSON without indentation — for the LOD
// responses, whose whole point is minimal bytes on the wire.
func writeJSONCompact(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// extractOptions resolves the analysis options for a request: a preset
// (charm or mp) plus optional boolean overrides, with the server's metrics
// registry attached (Parallelism stays 0: all cores). The semantic subset
// is what the cache keys on.
func (s *Server) extractOptions(r *http.Request) (core.Options, error) {
	q := r.URL.Query()
	opt := core.DefaultOptions()
	switch preset := q.Get("preset"); preset {
	case "", "charm":
	case "mp":
		opt = core.MessagePassingOptions()
	default:
		return opt, fmt.Errorf("%w: unknown preset %q (want charm or mp)", errBadRequest, preset)
	}
	// A slice, not a map: with several invalid booleans the 400 must name
	// the same one every time.
	for _, p := range []struct {
		name string
		dst  *bool
	}{
		{"reorder", &opt.Reorder},
		{"infer", &opt.InferDependencies},
		{"nsmerge", &opt.NeighborSerialMerge},
		{"procorder", &opt.ProcessOrderDeps},
	} {
		switch v := q.Get(p.name); v {
		case "":
		case "true", "1":
			*p.dst = true
		case "false", "0":
			*p.dst = false
		default:
			return opt, fmt.Errorf("%w: parameter %s=%q is not a boolean", errBadRequest, p.name, v)
		}
	}
	opt.Metrics = s.reg
	return opt, nil
}

// acquireSlot admits an analysis request to the extraction path: it waits
// up to QueueWait (bounded also by the request context) for a semaphore
// slot, records the wait in server.queue_wait_ms, and sheds with a 429-
// mapped overloadError when the queue deadline passes first. The returned
// release func is non-nil exactly when a slot was taken.
func (s *Server) acquireSlot(ctx context.Context) (release func(), err error) {
	if s.sem == nil {
		return func() {}, nil
	}
	start := time.Now()
	defer func() {
		s.queueWaitMS.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	}()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-timer.C:
		s.shed.Add(1)
		return nil, &overloadError{retryAfter: s.cfg.QueueWait}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// want names what a request needs resolved beside the structure itself:
// nothing, or one of the cache's derived views.
type want int

const (
	wantStructure want = iota
	wantIndex          // the per-entry *query.Index (resultcache's Index view)
	wantPyramid        // the per-entry *lod.Pyramid (resultcache's Aux view)
)

// resolve is the one path from (digest, request options) to a cached
// structure and, per want, its derived view. A memory hit — view resident
// or built in place: milliseconds against extraction's seconds — is served
// without touching admission control, which keeps hot paging requests from
// queueing behind extractions; everything else (disk read, coalesced wait,
// extraction) holds an extraction slot, and a caller whose context dies
// releases the slot immediately — the detached flight keeps running
// without it. view is nil for wantStructure. resolve itself touches neither
// the trace nor its table: the cache asks for the one it needs (traceOf,
// tableOf) once it knows which. A digest not shaped like one is unknown
// before the cache's peer fill or trace fetch can route by it.
func (s *Server) resolve(ctx context.Context, digest string, opt core.Options, w want) (st *core.Structure, view any, err error) {
	var ok bool
	switch w {
	case wantIndex:
		st, view, ok = s.cache.LookupIndexed(digest, opt)
	case wantPyramid:
		st, view, ok = s.cache.LookupAux(digest, opt)
	default:
		st, ok = s.cache.Lookup(digest, opt)
	}
	if ok {
		resultcache.RecordOutcome(ctx, resultcache.OutcomeMem)
		return st, view, nil
	}
	if !resultcache.ValidKey(digest) || (s.entryFor(digest) == nil && s.cfg.TraceFetch == nil) {
		return nil, nil, errUnknownTrace // before a slot is taken or a flight launched for it
	}
	release, err := s.acquireSlot(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	switch w {
	case wantIndex:
		return s.cache.GetIndexed(ctx, digest, nil, opt)
	case wantPyramid:
		return s.cache.GetAux(ctx, digest, nil, opt)
	}
	st, err = s.cache.Get(ctx, digest, nil, opt)
	return st, nil, err
}

// Shutdown drains the server: new requests are refused with 503, in-flight
// handlers get until ctx expires to finish, and then the result cache is
// closed — outstanding detached flights drain too (or are cancelled
// cooperatively past the deadline). Safe to call once; the HTTP listener
// drain itself is the owner http.Server's job (see cmd/charmd).
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return s.cache.Close(ctx)
		case <-tick.C:
		}
	}
	return s.cache.Close(ctx)
}
