package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"charmtrace/internal/telemetry"
	"charmtrace/internal/tracefile"
)

// Gateway defaults.
const (
	DefaultReplication    = 2
	DefaultMaxUploadBytes = 256 << 20
	DefaultMaxEntryBytes  = 64 << 20
	DefaultHedgeMin       = 10 * time.Millisecond
	DefaultHedgeMax       = 2 * time.Second
	// hedgeWarmup is how many proxied requests the adaptive hedge delay
	// wants before trusting its latency histogram; below it the delay stays
	// at HedgeMax (hedge late rather than double every request while cold).
	hedgeWarmup = 20
)

// GatewayConfig configures a Gateway.
type GatewayConfig struct {
	// Members is the cluster the gateway fronts.
	Members []Member
	// Replication is how many ring successors hold each trace and its
	// results (R). 0 = DefaultReplication; clamped to len(Members).
	Replication int
	// VirtualNodes tunes the ring (0 = DefaultVirtualNodes). Must match the
	// nodes' peer clients.
	VirtualNodes int
	// HedgeAfter, when positive, fixes the hedge delay. Zero selects the
	// adaptive delay: the upper bound of the proxy-latency histogram bucket
	// holding the 95th percentile, clamped to [HedgeMin, HedgeMax].
	HedgeAfter time.Duration
	// HedgeMin/HedgeMax clamp the adaptive delay (0 = defaults). HedgeMax
	// < 0 disables hedging entirely.
	HedgeMin, HedgeMax time.Duration
	// MaxUploadBytes bounds one trace upload (0 = 256 MiB). Uploads are
	// buffered in the gateway to compute the routing digest before any node
	// sees a byte.
	MaxUploadBytes int64
	// MaxEntryBytes bounds one replicated result entry (0 = 64 MiB).
	MaxEntryBytes int64
	// ProbeInterval is the health-probe period (0 = DefaultProbeInterval).
	ProbeInterval time.Duration
	// Client is the HTTP client used for proxying (nil = a private one with
	// no global timeout; proxied requests are bounded by their inbound
	// request contexts).
	Client *http.Client
	// Metrics receives the gateway's counters (nil = a private registry).
	Metrics *telemetry.Registry
	// AccessLog receives one structured line per completed request with
	// hop="gateway" (nil disables).
	AccessLog *slog.Logger
}

// Gateway is the cluster front end: an http.Handler that consistent-hash
// routes the charmd API across the member nodes, replicates uploads and
// extraction results to R ring successors, fails over on dead nodes, and
// hedges slow idempotent reads. Create with NewGateway, mount anywhere,
// and call Close on shutdown.
type Gateway struct {
	cfg    GatewayConfig
	ring   *Ring
	health *Health
	client *http.Client
	reg    *telemetry.Registry
	mux    *http.ServeMux

	requests      *telemetry.Counter   // gateway.requests
	uploads       *telemetry.Counter   // gateway.uploads
	failovers     *telemetry.Counter   // gateway.failovers
	hedgeFired    *telemetry.Counter   // gateway.hedge_fired
	hedgeWon      *telemetry.Counter   // gateway.hedge_won
	hedgeCanceled *telemetry.Counter   // gateway.hedge_cancelled
	peerFillHits  *telemetry.Counter   // gateway.peer_fill_hits (node answered from a peer's entry)
	peerFillMiss  *telemetry.Counter   // gateway.peer_fill_misses (cluster-wide miss: an extraction ran)
	replicaPushes *telemetry.Counter   // gateway.replica_pushes (result entries pushed to successors)
	replicaErrors *telemetry.Counter   // gateway.replica_errors
	traceReplicas *telemetry.Counter   // gateway.trace_replicas (upload fan-out copies)
	exhausted     *telemetry.Counter   // gateway.exhausted (every candidate failed -> 502)
	proxyMS       *telemetry.Histogram // gateway.proxy_ms

	probeCancel context.CancelFunc
	probeDone   chan struct{}
	repWG       sync.WaitGroup // in-flight async replications (Quiesce/Close wait)
}

// NewGateway builds the gateway and starts its health prober.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	ring, err := NewRing(cfg.Members, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.Replication > len(cfg.Members) {
		cfg.Replication = len(cfg.Members)
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if cfg.MaxEntryBytes <= 0 {
		cfg.MaxEntryBytes = DefaultMaxEntryBytes
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = DefaultHedgeMin
	}
	if cfg.HedgeMax == 0 {
		cfg.HedgeMax = DefaultHedgeMax
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	g := &Gateway{
		cfg:           cfg,
		ring:          ring,
		health:        NewHealth(cfg.Members, client, reg),
		client:        client,
		reg:           reg,
		requests:      reg.Counter("gateway.requests"),
		uploads:       reg.Counter("gateway.uploads"),
		failovers:     reg.Counter("gateway.failovers"),
		hedgeFired:    reg.Counter("gateway.hedge_fired"),
		hedgeWon:      reg.Counter("gateway.hedge_won"),
		hedgeCanceled: reg.Counter("gateway.hedge_cancelled"),
		peerFillHits:  reg.Counter("gateway.peer_fill_hits"),
		peerFillMiss:  reg.Counter("gateway.peer_fill_misses"),
		replicaPushes: reg.Counter("gateway.replica_pushes"),
		replicaErrors: reg.Counter("gateway.replica_errors"),
		traceReplicas: reg.Counter("gateway.trace_replicas"),
		exhausted:     reg.Counter("gateway.exhausted"),
		proxyMS:       reg.Histogram("gateway.proxy_ms"),
		probeDone:     make(chan struct{}),
	}
	g.routes()
	ctx, cancel := context.WithCancel(context.Background())
	g.probeCancel = cancel
	go func() {
		defer close(g.probeDone)
		g.health.Run(ctx, cfg.ProbeInterval)
	}()
	return g, nil
}

// Registry returns the gateway's metrics registry.
func (g *Gateway) Registry() *telemetry.Registry { return g.reg }

// Health returns the gateway's member-liveness tracker.
func (g *Gateway) Health() *Health { return g.health }

// Quiesce blocks until every in-flight async replication has finished —
// the E2E harness's way of asserting on replica state without sleeping.
func (g *Gateway) Quiesce() { g.repWG.Wait() }

// Close stops the health prober and waits for async replication to drain.
func (g *Gateway) Close() {
	g.probeCancel()
	<-g.probeDone
	g.repWG.Wait()
}

// routes mounts the gateway endpoints.
func (g *Gateway) routes() {
	g.mux = http.NewServeMux()
	handle := func(pattern, route string, h func(w http.ResponseWriter, r *http.Request, route string)) {
		g.mux.Handle(pattern, g.instrument(route, h))
	}
	handle("POST /v1/traces", "upload", g.handleUpload)
	handle("GET /v1/traces", "list", g.handleList)
	handle("GET /v1/traces/{digest}", "trace", g.handleDigestRead)
	handle("GET /v1/traces/{digest}/structure", "structure", g.handleDigestRead)
	handle("GET /v1/traces/{digest}/steps", "steps", g.handleDigestRead)
	handle("GET /v1/traces/{digest}/metrics", "metrics", g.handleDigestRead)
	handle("POST /v1/traces/{digest}/query", "query", g.handleQuery)
	handle("GET /v1/traces/{digest}/lod", "lod", g.handleDigestRead)
	handle("POST /v1/traces/{digest}/lod", "lod_post", g.handleQuery)
	handle("GET /v1/structdiff", "structdiff", g.handleStructDiff)
	handle("GET /metrics", "prom", g.handleProm)
	handle("GET /cluster", "cluster", g.handleCluster)
	handle("GET /nodes/{node}/{rest...}", "nodes", g.handleNodePassthrough)
	handle("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request, _ string) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	handle("GET /readyz", "readyz", func(w http.ResponseWriter, r *http.Request, _ string) {
		w.Header().Set("Content-Type", "application/json")
		if g.health.AliveCount() == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"no members alive"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
}

// ServeHTTP dispatches to the mounted routes.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// instrument wraps a route with the request counter, per-route counter,
// status tracking, request-id minting and the hop="gateway" access log.
func (g *Gateway) instrument(route string, h func(w http.ResponseWriter, r *http.Request, route string)) http.Handler {
	routed := g.reg.Counter("gateway.route." + route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.requests.Add(1)
		routed.Add(1)
		reqID := telemetry.RequestIDFor(r.Header.Get("X-Request-ID"))
		w.Header().Set("X-Request-ID", reqID)
		r = r.WithContext(telemetry.WithRequestID(r.Context(), reqID))
		sw := &gwStatusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r, route)
		elapsed := time.Since(start)
		g.reg.Counter(fmt.Sprintf("gateway.status.%dxx", sw.code/100)).Add(1)
		g.logAccess(r, route, reqID, sw, elapsed)
	})
}

// gwStatusWriter records the proxied status and byte count.
type gwStatusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	wrote bool
	node  string // which member answered, for the access log
}

func (w *gwStatusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *gwStatusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (g *Gateway) logAccess(r *http.Request, route, reqID string, sw *gwStatusWriter, elapsed time.Duration) {
	log := g.cfg.AccessLog
	if log == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("id", reqID),
		slog.String("hop", "gateway"),
		slog.String("route", route),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
	}
	if sw.node != "" {
		attrs = append(attrs, slog.String("node", sw.node))
	}
	attrs = append(attrs,
		slog.Int("status", sw.code),
		slog.Float64("latency_ms", float64(elapsed.Nanoseconds())/1e6),
		slog.Int64("bytes", sw.bytes),
	)
	level := slog.LevelInfo
	switch {
	case sw.code >= 500:
		level = slog.LevelError
	case sw.code >= 400:
		level = slog.LevelWarn
	}
	log.LogAttrs(context.Background(), level, "request", attrs...)
}

// gwError writes a gateway-originated JSON error.
func gwError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// candidates returns the preference-ordered members for a routing key: the
// key's R owners first (healthy before dead within the replica set, ring
// order preserved otherwise), then the remaining ring successors as a last
// resort — a read can be served by any node because nodes pull missing
// traces from their peers.
func (g *Gateway) candidates(key string) []Member {
	succ := g.ring.Successors(key, g.ring.Len())
	owners := succ[:min(g.cfg.Replication, len(succ))]
	rest := succ[len(owners):]
	out := make([]Member, 0, len(succ))
	for _, m := range owners {
		if g.health.Alive(m.Name) {
			out = append(out, m)
		}
	}
	for _, m := range owners {
		if !g.health.Alive(m.Name) {
			out = append(out, m)
		}
	}
	for _, m := range rest {
		if g.health.Alive(m.Name) {
			out = append(out, m)
		}
	}
	return out
}

// hedgeDelay picks how long the primary read gets before a hedge fires:
// the configured fixed delay, or the latency histogram's ~p95 bucket bound
// clamped to [HedgeMin, HedgeMax]. With a cold histogram it stays at
// HedgeMax — hedging is a tail-latency rescue, not a default second
// request.
func (g *Gateway) hedgeDelay() time.Duration {
	if g.cfg.HedgeAfter > 0 {
		return g.cfg.HedgeAfter
	}
	snap := g.reg.Snapshot().Histograms["gateway.proxy_ms"]
	if snap.Count < hedgeWarmup {
		return g.cfg.HedgeMax
	}
	target := (snap.Count*95 + 99) / 100
	var cum int64
	bound := snap.Max
	for _, b := range snap.Buckets {
		cum += b.Count
		if cum >= target {
			bound = b.UpperBound
			break
		}
	}
	d := time.Duration(bound * float64(time.Millisecond))
	if d < g.cfg.HedgeMin {
		d = g.cfg.HedgeMin
	}
	if d > g.cfg.HedgeMax {
		d = g.cfg.HedgeMax
	}
	return d
}

// attemptResult is one proxied attempt's outcome.
type attemptResult struct {
	member Member
	resp   *http.Response
	err    error
	cancel context.CancelFunc
	hedged bool
}

// sendTo launches one proxied attempt on its own cancellable context and
// delivers the outcome on results.
func (g *Gateway) sendTo(r *http.Request, m Member, body []byte, hedged bool, results chan<- *attemptResult) context.CancelFunc {
	actx, cancel := context.WithCancel(r.Context())
	go func() {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(actx, r.Method, m.URL+r.URL.RequestURI(), rd)
		if err != nil {
			results <- &attemptResult{member: m, err: err, cancel: cancel, hedged: hedged}
			return
		}
		copyProxyHeaders(req.Header, r.Header)
		req.Header.Set("X-Request-ID", telemetry.RequestID(r.Context()))
		req.Header.Set("X-Charmd-Hop", "gateway")
		resp, err := g.client.Do(req)
		results <- &attemptResult{member: m, resp: resp, err: err, cancel: cancel, hedged: hedged}
	}()
	return cancel
}

// copyProxyHeaders forwards end-to-end request headers, dropping the
// hop-by-hop set.
func copyProxyHeaders(dst, src http.Header) {
	for k, vs := range src {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Te", "Trailer", "Transfer-Encoding", "Upgrade", "Host", "Content-Length":
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// countNode attributes one answered request to (route, member) — the
// gateway.node_requests.<route>.<node> series that /cluster renders as the
// per-member request table, so per-route traffic (LOD included) is
// attributable per node.
func (g *Gateway) countNode(route, node string) {
	g.reg.Counter("gateway.node_requests." + route + "." + node).Add(1)
}

// proxy routes one request across the key's candidates with sequential
// failover (a transport error marks the node dead and tries the next) and,
// for hedgeable requests, one tail-latency hedge: after hedgeDelay with no
// answer, a second identical request races the first; the first usable
// response wins and the loser's context is cancelled. The winner's body
// streams to the client unbuffered. route labels the answering node's
// request counter.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, route, key, digest string, body []byte, hedgeable bool) {
	candidates := g.candidates(key)
	if len(candidates) == 0 {
		g.exhausted.Add(1)
		gwError(w, http.StatusBadGateway, "cluster: no members")
		return
	}
	if g.cfg.HedgeMax < 0 {
		hedgeable = false
	}
	results := make(chan *attemptResult, len(candidates))
	next := 0
	inflight := 0
	launch := func(hedged bool) bool {
		if next >= len(candidates) {
			return false
		}
		g.sendTo(r, candidates[next], body, hedged, results)
		next++
		inflight++
		return true
	}
	start := time.Now()
	launch(false)

	var hedgeC <-chan time.Time
	if hedgeable && len(candidates) > 1 {
		t := time.NewTimer(g.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}

	var winner *attemptResult
	lastErr := "unreachable"
	for winner == nil {
		select {
		case <-hedgeC:
			hedgeC = nil
			if launch(true) {
				g.hedgeFired.Add(1)
			}
		case a := <-results:
			inflight--
			if a.err != nil {
				a.cancel()
				// A cancelled hedge loser is not a failover; a real
				// transport error is, and the member sits out until the
				// prober readmits it.
				if r.Context().Err() == nil && !errors.Is(a.err, context.Canceled) {
					g.health.MarkDead(a.member.Name)
					g.failovers.Add(1)
					lastErr = a.err.Error()
				}
				if inflight == 0 && !launch(a.hedged) {
					g.exhausted.Add(1)
					gwError(w, http.StatusBadGateway, "cluster: all candidates failed: "+lastErr)
					return
				}
				continue
			}
			if a.resp.StatusCode >= 500 {
				// A draining or broken node: fail over without declaring it
				// dead (it answered; the prober owns liveness).
				lastErr = fmt.Sprintf("%s: %s", a.member.Name, a.resp.Status)
				io.Copy(io.Discard, io.LimitReader(a.resp.Body, 4096))
				a.resp.Body.Close()
				a.cancel()
				g.failovers.Add(1)
				if inflight == 0 && !launch(a.hedged) {
					g.exhausted.Add(1)
					gwError(w, http.StatusBadGateway, "cluster: all candidates failed: "+lastErr)
					return
				}
				continue
			}
			winner = a
		case <-r.Context().Done():
			// Client gone; in-flight attempts die with the request context.
			for inflight > 0 {
				a := <-results
				inflight--
				if a.resp != nil {
					a.resp.Body.Close()
				}
				a.cancel()
			}
			return
		}
	}

	// Cancel the losing attempt(s); drain their results off-path so their
	// transports can reuse connections.
	if inflight > 0 {
		g.hedgeCanceled.Add(int64(inflight))
		if winner.hedged {
			g.hedgeWon.Add(1)
		}
		remaining := inflight
		go func() {
			for i := 0; i < remaining; i++ {
				a := <-results
				if a.resp != nil {
					io.Copy(io.Discard, io.LimitReader(a.resp.Body, 4096))
					a.resp.Body.Close()
				}
				a.cancel()
			}
		}()
		// The loser's context must actually be cancelled: every launched
		// attempt shares the request context, so cancel just the ones that
		// lost via their own cancels, delivered through the drain above.
	}

	g.relay(w, r, winner, route, digest)
	g.proxyMS.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
}

// relay streams the winning response to the client and feeds the cluster
// bookkeeping: peer-fill counters from the node's X-Charmd-Cache header,
// and async result replication when the answer came from a fresh
// extraction (a cluster-wide miss).
func (g *Gateway) relay(w http.ResponseWriter, r *http.Request, a *attemptResult, route, digest string) {
	defer a.cancel()
	defer a.resp.Body.Close()
	if sw, ok := w.(*gwStatusWriter); ok {
		sw.node = a.member.Name
	}
	g.countNode(route, a.member.Name)
	h := w.Header()
	for k, vs := range a.resp.Header {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Te", "Trailer", "Transfer-Encoding", "Upgrade":
			continue
		case "X-Request-Id":
			continue // ours is already set and identical
		}
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	outcome := a.resp.Header.Get("X-Charmd-Cache")
	key := a.resp.Header.Get("X-Charmd-Result-Key")
	switch outcome {
	case "peer":
		g.peerFillHits.Add(1)
	case "miss":
		g.peerFillMiss.Add(1)
	}
	if outcome == "miss" && key != "" && digest != "" && g.cfg.Replication > 1 && a.resp.StatusCode < 300 {
		g.replicateResult(digest, key, a.member, telemetry.RequestID(r.Context()))
	}
	w.WriteHeader(a.resp.StatusCode)
	io.Copy(w, a.resp.Body)
}

// replicateResult asynchronously copies the encoded result entry from the
// node that just extracted it to the other members of the trace's replica
// set, so their next request for this key is a disk hit instead of a peer
// round trip or a second extraction.
func (g *Gateway) replicateResult(digest, key string, src Member, reqID string) {
	targets := make([]Member, 0, g.cfg.Replication-1)
	for _, m := range g.ring.Successors(digest, g.cfg.Replication) {
		if m.Name != src.Name && g.health.Alive(m.Name) {
			targets = append(targets, m)
		}
	}
	if len(targets) == 0 {
		return
	}
	g.repWG.Add(1)
	go func() {
		defer g.repWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		entry, err := g.fetchEntry(ctx, src, key, reqID)
		if err != nil {
			g.replicaErrors.Add(1)
			return
		}
		for _, m := range targets {
			req, err := http.NewRequestWithContext(ctx, http.MethodPut,
				m.URL+"/v1/internal/results/"+key, bytes.NewReader(entry))
			if err != nil {
				g.replicaErrors.Add(1)
				continue
			}
			req.Header.Set("X-Request-ID", reqID)
			req.Header.Set("X-Charmd-Hop", "gateway")
			req.Header.Set("Content-Type", "application/octet-stream")
			resp, err := g.client.Do(req)
			if err != nil {
				g.replicaErrors.Add(1)
				continue
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode/100 == 2 {
				g.replicaPushes.Add(1)
			} else {
				g.replicaErrors.Add(1)
			}
		}
	}()
}

// fetchEntry pulls one encoded entry from a node's internal endpoint.
func (g *Gateway) fetchEntry(ctx context.Context, m Member, key, reqID string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/v1/internal/results/"+key, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-ID", reqID)
	req.Header.Set("X-Charmd-Hop", "gateway")
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: fetch entry from %s: %s", m.Name, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxEntryBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > g.cfg.MaxEntryBytes {
		return nil, fmt.Errorf("cluster: entry %s exceeds %d bytes", key, g.cfg.MaxEntryBytes)
	}
	return data, nil
}

// handleDigestRead proxies the digest-scoped idempotent reads (trace
// summary, structure, steps, metrics) with failover and hedging.
func (g *Gateway) handleDigestRead(w http.ResponseWriter, r *http.Request, route string) {
	digest := r.PathValue("digest")
	g.proxy(w, r, route, digest, digest, nil, true)
}

// handleQuery proxies the digest-scoped POST analysis requests (query and
// LOD specs alike — the proxied path is the inbound one). The body is
// buffered (bounded) so a failover can resend it; these are read-only but
// POST, so they fail over without hedging.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request, route string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		gwError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	digest := r.PathValue("digest")
	g.proxy(w, r, route, digest, digest, body, false)
}

// handleStructDiff routes by the a-side digest: with R >= 2 and upload
// fan-out both sides are usually resident there, and any node pulls a
// missing trace from its peers before answering.
func (g *Gateway) handleStructDiff(w http.ResponseWriter, r *http.Request, route string) {
	a := r.URL.Query().Get("a")
	if a == "" {
		gwError(w, http.StatusBadRequest, "need a=<digest> and b=<digest>")
		return
	}
	g.proxy(w, r, route, a, "", nil, true)
}

// handleUpload ingests one trace through the gateway: the body is buffered,
// content-addressed, posted to the digest's owner, and fanned out to the
// rest of the replica set asynchronously. The owner's response (including
// its digest — which the gateway independently computed — and summary) is
// relayed verbatim.
func (g *Gateway) handleUpload(w http.ResponseWriter, r *http.Request, route string) {
	g.uploads.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxUploadBytes))
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			gwError(w, http.StatusRequestEntityTooLarge, err.Error())
			return
		}
		gwError(w, http.StatusBadRequest, err.Error())
		return
	}
	digest := tracefile.DigestBytes(body)
	owners := g.ring.Successors(digest, g.cfg.Replication)
	ordered := make([]Member, 0, len(owners))
	for _, m := range owners {
		if g.health.Alive(m.Name) {
			ordered = append(ordered, m)
		}
	}
	for _, m := range owners {
		if !g.health.Alive(m.Name) {
			ordered = append(ordered, m)
		}
	}
	reqID := telemetry.RequestID(r.Context())
	var winner *http.Response
	var winnerName string
	for _, m := range ordered {
		resp, err := g.postTrace(r.Context(), m, body, reqID, r.Header.Get("Content-Type"))
		if err != nil {
			g.health.MarkDead(m.Name)
			g.failovers.Add(1)
			continue
		}
		if resp.StatusCode >= 500 {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			g.failovers.Add(1)
			continue
		}
		winner = resp
		winnerName = m.Name
		break
	}
	if winner == nil {
		g.exhausted.Add(1)
		gwError(w, http.StatusBadGateway, "cluster: no owner accepted the upload")
		return
	}
	defer winner.Body.Close()
	if sw, ok := w.(*gwStatusWriter); ok {
		sw.node = winnerName
	}
	g.countNode(route, winnerName)
	// Fan the accepted trace out to the rest of the replica set so peer
	// fill and failover find the bytes everywhere they should be.
	if winner.StatusCode < 300 {
		for _, m := range owners {
			if m.Name == winnerName {
				continue
			}
			g.repWG.Add(1)
			go func(m Member) {
				defer g.repWG.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				resp, err := g.postTrace(ctx, m, body, reqID, "")
				if err != nil {
					g.replicaErrors.Add(1)
					return
				}
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				if resp.StatusCode < 300 {
					g.traceReplicas.Add(1)
				} else {
					g.replicaErrors.Add(1)
				}
			}(m)
		}
	}
	for k, vs := range winner.Header {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Te", "Trailer", "Transfer-Encoding", "Upgrade", "X-Request-Id":
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(winner.StatusCode)
	io.Copy(w, winner.Body)
}

func (g *Gateway) postTrace(ctx context.Context, m Member, body []byte, reqID, contentType string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+"/v1/traces", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-ID", reqID)
	req.Header.Set("X-Charmd-Hop", "gateway")
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return g.client.Do(req)
}

// handleList fans GET /v1/traces out to every live member and merges the
// results: the union of all traces, deduplicated by digest, sorted. The
// entry shape mirrors charmd's (bytes plus the summary-tier structure
// fields); when members disagree — only some hold a cached result — the
// merge prefers an entry that carries the structure fields.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request, route string) {
	type listEntry struct {
		Digest    string `json:"digest"`
		Bytes     int64  `json:"bytes"`
		NumPhases *int   `json:"num_phases,omitempty"`
		MaxStep   *int32 `json:"max_step,omitempty"`
		Events    *int   `json:"events,omitempty"`
	}
	type listResp struct {
		Traces []listEntry `json:"traces"`
	}
	reqID := telemetry.RequestID(r.Context())
	var mu sync.Mutex
	merged := make(map[string]listEntry)
	var wg sync.WaitGroup
	answered := false
	for _, m := range g.ring.Members() {
		if !g.health.Alive(m.Name) {
			continue
		}
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, m.URL+"/v1/traces", nil)
			if err != nil {
				return
			}
			req.Header.Set("X-Request-ID", reqID)
			req.Header.Set("X-Charmd-Hop", "gateway")
			resp, err := g.client.Do(req)
			if err != nil {
				g.health.MarkDead(m.Name)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var lr listResp
			if json.NewDecoder(resp.Body).Decode(&lr) != nil {
				return
			}
			g.countNode(route, m.Name)
			mu.Lock()
			answered = true
			for _, e := range lr.Traces {
				if old, ok := merged[e.Digest]; !ok || (old.NumPhases == nil && e.NumPhases != nil) {
					merged[e.Digest] = e
				}
			}
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	if !answered {
		g.exhausted.Add(1)
		gwError(w, http.StatusBadGateway, "cluster: no member answered the listing")
		return
	}
	digests := make([]string, 0, len(merged))
	for d := range merged {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	out := listResp{Traces: make([]listEntry, 0, len(digests))}
	for _, d := range digests {
		out.Traces = append(out.Traces, merged[d])
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// handleProm serves the gateway's own metrics with node="gateway", so one
// scrape config covers the whole cluster with distinguishable series.
func (g *Gateway) handleProm(w http.ResponseWriter, r *http.Request, route string) {
	w.Header().Set("Content-Type", telemetry.PromContentType)
	telemetry.WritePrometheusLabels(w, g.reg, map[string]string{"node": "gateway"})
	telemetry.WriteGoRuntimeMetrics(w)
}

// handleCluster describes the cluster: members with liveness, replication
// factor, each member's share of a synthetic keyspace (a quick ring-
// balance sanity check for operators), the gateway's per-route request
// counts, and each member's answered requests broken down by route — the
// table that makes per-route traffic (LOD included) attributable per node.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request, route string) {
	shares := make(map[string]int, g.ring.Len())
	const probes = 1024
	for i := 0; i < probes; i++ {
		shares[g.ring.Owner(fmt.Sprintf("share-probe-%d", i)).Name]++
	}
	routes := make(map[string]int64)
	byNode := make(map[string]map[string]int64)
	for name, v := range g.reg.Snapshot().Counters {
		if rt, ok := strings.CutPrefix(name, "gateway.route."); ok {
			routes[rt] = v
			continue
		}
		rest, ok := strings.CutPrefix(name, "gateway.node_requests.")
		if !ok {
			continue
		}
		rt, node, ok := strings.Cut(rest, ".")
		if !ok {
			continue
		}
		if byNode[node] == nil {
			byNode[node] = make(map[string]int64)
		}
		byNode[node][rt] += v
	}
	status := g.health.Snapshot()
	type memberJSON struct {
		Name            string           `json:"name"`
		URL             string           `json:"url"`
		Alive           bool             `json:"alive"`
		OwnedShare      float64          `json:"owned_share"`
		Requests        int64            `json:"requests"`
		RequestsByRoute map[string]int64 `json:"requests_by_route,omitempty"`
	}
	out := struct {
		Replication int              `json:"replication"`
		Routes      map[string]int64 `json:"routes"`
		Members     []memberJSON     `json:"members"`
	}{Replication: g.cfg.Replication, Routes: routes}
	for _, ms := range status {
		var total int64
		for _, v := range byNode[ms.Name] {
			total += v
		}
		out.Members = append(out.Members, memberJSON{
			Name: ms.Name, URL: ms.URL, Alive: ms.Alive,
			OwnedShare:      float64(shares[ms.Name]) / probes,
			Requests:        total,
			RequestsByRoute: byNode[ms.Name],
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// handleNodePassthrough proxies /nodes/{name}/... to one named member's
// observability surface — debug endpoints, metrics, health — so an
// operator can inspect any node through the gateway without knowing its
// address. Only read-only observability paths pass through.
func (g *Gateway) handleNodePassthrough(w http.ResponseWriter, r *http.Request, route string) {
	name := r.PathValue("node")
	rest := r.PathValue("rest")
	allowed := rest == "metrics" || rest == "healthz" || rest == "readyz" ||
		strings.HasPrefix(rest, "debug/")
	if !allowed {
		gwError(w, http.StatusNotFound, "only /debug/, /metrics, /healthz and /readyz pass through")
		return
	}
	var target *Member
	for _, m := range g.ring.Members() {
		if m.Name == name {
			target = &m
			break
		}
	}
	if target == nil {
		gwError(w, http.StatusNotFound, fmt.Sprintf("unknown node %q", name))
		return
	}
	url := target.URL + "/" + rest
	if q := r.URL.RawQuery; q != "" {
		url += "?" + q
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		gwError(w, http.StatusInternalServerError, err.Error())
		return
	}
	copyProxyHeaders(req.Header, r.Header)
	req.Header.Set("X-Request-ID", telemetry.RequestID(r.Context()))
	req.Header.Set("X-Charmd-Hop", "gateway")
	resp, err := g.client.Do(req)
	if err != nil {
		g.health.MarkDead(name)
		gwError(w, http.StatusBadGateway, err.Error())
		return
	}
	defer resp.Body.Close()
	if sw, ok := w.(*gwStatusWriter); ok {
		sw.node = name
	}
	g.countNode(route, name)
	for k, vs := range resp.Header {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Te", "Trailer", "Transfer-Encoding", "Upgrade", "X-Request-Id":
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
