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

	"charmtrace/internal/server"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/tracefile"
)

// Gateway defaults.
const (
	DefaultReplication    = 2
	DefaultMaxUploadBytes = 256 << 20
	// maxSpecBytes bounds a buffered POST analysis body (a query or LOD
	// spec; the nodes themselves reject anything past 1 MiB).
	maxSpecBytes = 4 << 20
)

// GatewayConfig configures a Gateway.
type GatewayConfig struct {
	// Members is the cluster the gateway fronts.
	Members []Member
	// Replication is how many ring successors hold each trace (R).
	// 0 = DefaultReplication; clamped to len(Members).
	Replication int
	// MaxUploadBytes bounds one trace upload (0 = 256 MiB). Uploads are
	// buffered in the gateway to compute the routing digest before any node
	// sees a byte.
	MaxUploadBytes int64
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
// routes the charmd API across the member nodes, fails over in ring order
// when a node is dead or draining, and copies each uploaded trace to its R
// ring successors so a failover finds the bytes. It sends one request at a
// time and never moves results: an encoded result reaches another node only
// when that node pulls it (peer fill). Create with NewGateway, mount
// anywhere, and call Close on shutdown.
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
	peerFillHits  *telemetry.Counter   // gateway.peer_fill_hits (node answered from a peer's entry)
	peerFillMiss  *telemetry.Counter   // gateway.peer_fill_misses (cluster-wide miss: an extraction ran)
	traceReplicas *telemetry.Counter   // gateway.trace_replicas (upload fan-out copies)
	replicaErrors *telemetry.Counter   // gateway.replica_errors (fan-out copies that failed)
	exhausted     *telemetry.Counter   // gateway.exhausted (every candidate failed -> 502)
	proxyMS       *telemetry.Histogram // gateway.proxy_ms

	statusClass telemetry.StatusClasses // gateway.status.<n>xx

	probeCancel context.CancelFunc
	probeDone   chan struct{}
	fanWG       sync.WaitGroup // in-flight upload fan-out copies (Quiesce/Close wait)
}

// NewGateway builds the gateway and starts its health prober.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	ring, err := NewRing(cfg.Members)
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
		peerFillHits:  reg.Counter("gateway.peer_fill_hits"),
		peerFillMiss:  reg.Counter("gateway.peer_fill_misses"),
		traceReplicas: reg.Counter("gateway.trace_replicas"),
		replicaErrors: reg.Counter("gateway.replica_errors"),
		exhausted:     reg.Counter("gateway.exhausted"),
		proxyMS:       reg.Histogram("gateway.proxy_ms"),
		statusClass:   reg.StatusClasses("gateway.status"),
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

// Quiesce blocks until every in-flight upload fan-out copy has finished —
// the E2E harness's way of asserting on replica state without sleeping.
func (g *Gateway) Quiesce() { g.fanWG.Wait() }

// Close stops the health prober and waits for the upload fan-out to drain.
func (g *Gateway) Close() {
	g.probeCancel()
	<-g.probeDone
	g.fanWG.Wait()
}

// gwHandler is one gateway endpoint; route is its metrics and log label.
type gwHandler func(w *gwStatusWriter, r *http.Request, route string)

// routes mounts the gateway endpoints. The digest-scoped analysis endpoints
// come from the server's own table, so an endpoint added there is routed
// here without a second list.
func (g *Gateway) routes() {
	g.mux = http.NewServeMux()
	handle := func(pattern, route string, h gwHandler) {
		g.mux.Handle(pattern, g.instrument(route, h))
	}
	handle("POST /v1/traces", "upload", g.handleUpload)
	handle("GET /v1/traces", "list", g.handleList)
	for _, rt := range server.DigestRoutes {
		handle(rt.Pattern, rt.Label, g.handleDigest)
	}
	handle("GET /v1/structdiff", "structdiff", g.handleStructDiff)
	handle("GET /metrics", "prom", g.handleProm)
	handle("GET /cluster", "cluster", g.handleCluster)
	handle("GET /nodes/{node}/{rest...}", "nodes", g.handleNodePassthrough)
	handle("GET /healthz", "healthz", func(w *gwStatusWriter, r *http.Request, _ string) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	handle("GET /readyz", "readyz", func(w *gwStatusWriter, r *http.Request, _ string) {
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
func (g *Gateway) instrument(route string, h gwHandler) http.Handler {
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
		g.statusClass.Count(sw.code)
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

// aliveFirst returns ms with the members believed alive moved to the
// front, ring order preserved within each group.
func (g *Gateway) aliveFirst(ms []Member) []Member {
	out := make([]Member, 0, len(ms))
	for _, alive := range []bool{true, false} {
		for _, m := range ms {
			if g.health.Alive(m.Name) == alive {
				out = append(out, m)
			}
		}
	}
	return out
}

// candidates returns the preference-ordered members for a read: the key's R
// owners alive-first, then the live remainder of the ring as a last resort
// — a read can be served by any node because nodes pull missing traces and
// results from their peers.
func (g *Gateway) candidates(key string) []Member {
	succ := g.ring.Successors(key, g.ring.Len())
	out := g.aliveFirst(succ[:g.cfg.Replication])
	for _, m := range succ[g.cfg.Replication:] {
		if g.health.Alive(m.Name) {
			out = append(out, m)
		}
	}
	return out
}

// send issues one gateway-to-member request: the member's base URL plus
// uri, the inbound request's end-to-end headers (in may be nil), the request
// id ctx carries, and the hop marker the node's access log reads.
func (g *Gateway) send(ctx context.Context, method string, m Member, uri string, in http.Header, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, m.URL+uri, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyEndToEnd(req.Header, in)
	req.Header.Set("X-Request-ID", telemetry.RequestID(ctx))
	req.Header.Set("X-Charmd-Hop", "gateway")
	return g.client.Do(req)
}

// copyEndToEnd copies headers across the proxy in either direction, leaving
// out the hop-by-hop set, X-Request-ID, which each side stamps itself, and
// Expect, which the gateway has already met by buffering the body — sent on,
// it makes a node's early 4xx to a large upload look like a transport error.
// (Host and Content-Length need no entry: net/http writes a client
// request's own and ignores the header map's.)
func copyEndToEnd(dst, src http.Header) {
	for k, vs := range src {
		k = http.CanonicalHeaderKey(k)
		switch k {
		case "Connection", "Keep-Alive", "Te", "Trailer", "Transfer-Encoding", "Upgrade", "X-Request-Id", "Expect":
			continue
		}
		dst[k] = append(dst[k], vs...)
	}
}

// discard drains and closes a response the gateway will not relay, so the
// transport can reuse its connection.
func discard(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}

// countNode attributes one answered request to (route, member) — the
// gateway.node_requests.<route>.<node> series that /cluster renders as the
// per-member request table, so per-route traffic (LOD included) is
// attributable per node.
func (g *Gateway) countNode(route, node string) {
	g.reg.Counter("gateway.node_requests." + route + "." + node).Add(1)
}

// forward is the gateway's one failover loop: it sends the inbound request
// (body resent intact, so it must be buffered) to each candidate in turn on
// the request's own context and returns the first response below 500. A
// transport error marks the member dead until the prober readmits it; a 5xx
// fails over without that (a draining or broken node answered, and the
// prober owns liveness). When every candidate failed it answers 502 itself
// and returns a nil response, as it does — silently — when the client has
// gone away.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, candidates []Member, body []byte) (*http.Response, Member) {
	lastErr := "no members"
	for _, m := range candidates {
		resp, err := g.send(r.Context(), r.Method, m, r.URL.RequestURI(), r.Header, body)
		switch {
		case err != nil:
			if r.Context().Err() != nil {
				return nil, Member{}
			}
			g.health.MarkDead(m.Name)
			lastErr = err.Error()
		case resp.StatusCode >= 500:
			lastErr = m.Name + ": " + resp.Status
			discard(resp)
		default:
			return resp, m
		}
		g.failovers.Add(1)
	}
	g.exhausted.Add(1)
	gwError(w, http.StatusBadGateway, "cluster: all candidates failed: "+lastErr)
	return nil, Member{}
}

// relay streams a member's response to the client unbuffered and counts it:
// the (route, member) request table, and the cluster-wide peer-fill
// counters from the node's X-Charmd-Cache header.
func (g *Gateway) relay(w *gwStatusWriter, resp *http.Response, m Member, route string) {
	defer resp.Body.Close()
	w.node = m.Name
	g.countNode(route, m.Name)
	switch resp.Header.Get("X-Charmd-Cache") {
	case "peer":
		g.peerFillHits.Add(1)
	case "miss":
		g.peerFillMiss.Add(1)
	}
	copyEndToEnd(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// proxy routes one read across the key's candidates and relays the answer.
func (g *Gateway) proxy(w *gwStatusWriter, r *http.Request, route, key string, body []byte) {
	start := time.Now()
	if resp, m := g.forward(w, r, g.candidates(key), body); resp != nil {
		g.relay(w, resp, m, route)
		g.proxyMS.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	}
}

// bufferBody reads a bounded request body whole, so a failover can resend
// it. On failure it answers — 413 past the bound, 400 otherwise — and
// reports false.
func bufferBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		code := http.StatusBadRequest
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			code = http.StatusRequestEntityTooLarge
		}
		gwError(w, code, err.Error())
		return nil, false
	}
	return body, true
}

// handleDigest proxies every digest-scoped analysis endpoint, routed by
// the digest in the path. The POST forms (query and LOD specs) are
// read-only too; their small bodies are buffered for the failover loop.
func (g *Gateway) handleDigest(w *gwStatusWriter, r *http.Request, route string) {
	var body []byte
	if r.Method == http.MethodPost {
		var ok bool
		if body, ok = bufferBody(w, r, maxSpecBytes); !ok {
			return
		}
	}
	g.proxy(w, r, route, r.PathValue("digest"), body)
}

// handleStructDiff routes by the a-side digest: with R >= 2 and upload
// fan-out both sides are usually resident there, and any node pulls a
// missing trace from its peers before answering.
func (g *Gateway) handleStructDiff(w *gwStatusWriter, r *http.Request, route string) {
	a := r.URL.Query().Get("a")
	if a == "" {
		gwError(w, http.StatusBadRequest, "need a=<digest> and b=<digest>")
		return
	}
	g.proxy(w, r, route, a, nil)
}

// handleUpload ingests one trace through the gateway: the body is buffered,
// content-addressed, posted to the digest's owners through the failover
// loop (owners only — a trace is never placed outside its replica set), and
// copied to the rest of the replica set in the background, so peer fill and
// failover find the bytes everywhere they should be. The accepting owner's
// response is relayed verbatim.
func (g *Gateway) handleUpload(w *gwStatusWriter, r *http.Request, route string) {
	g.uploads.Add(1)
	body, ok := bufferBody(w, r, g.cfg.MaxUploadBytes)
	if !ok {
		return
	}
	owners := g.ring.Successors(tracefile.DigestBytes(body), g.cfg.Replication)
	resp, winner := g.forward(w, r, g.aliveFirst(owners), body)
	if resp == nil {
		return
	}
	if resp.StatusCode < 300 {
		// Started before the relay, so a client that has its answer can
		// Quiesce and find every copy accounted for.
		reqID := telemetry.RequestID(r.Context())
		for _, m := range owners {
			if m.Name == winner.Name {
				continue
			}
			g.fanWG.Add(1)
			go func() {
				defer g.fanWG.Done()
				ctx, cancel := context.WithTimeout(telemetry.WithRequestID(context.Background(), reqID), 60*time.Second)
				defer cancel()
				cp, err := g.send(ctx, http.MethodPost, m, "/v1/traces", nil, body)
				if err == nil {
					discard(cp)
				}
				if err != nil || cp.StatusCode >= 300 {
					g.replicaErrors.Add(1)
					return
				}
				g.traceReplicas.Add(1)
			}()
		}
	}
	g.relay(w, resp, winner, route)
}

// handleList fans GET /v1/traces out to every live member and merges the
// results: the union of all traces, deduplicated by digest, sorted. The
// entry shape mirrors charmd's (bytes plus the summary-tier structure
// fields); when members disagree — only some hold a cached result — the
// merge prefers an entry that carries the structure fields.
func (g *Gateway) handleList(w *gwStatusWriter, r *http.Request, route string) {
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
	var mu sync.Mutex
	merged := make(map[string]listEntry)
	var wg sync.WaitGroup
	answered := false
	for _, m := range g.ring.Members() {
		if !g.health.Alive(m.Name) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := g.send(r.Context(), http.MethodGet, m, "/v1/traces", nil, nil)
			if err != nil {
				g.health.MarkDead(m.Name)
				return
			}
			defer resp.Body.Close()
			var lr listResp
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&lr) != nil {
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
		}()
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
func (g *Gateway) handleProm(w *gwStatusWriter, r *http.Request, route string) {
	w.Header().Set("Content-Type", telemetry.PromContentType)
	telemetry.WritePrometheusLabels(w, g.reg, map[string]string{"node": "gateway"})
	telemetry.WriteGoRuntimeMetrics(w)
}

// handleCluster describes the cluster: members with liveness, replication
// factor, each member's share of a synthetic keyspace (a quick ring-
// balance sanity check for operators), the gateway's per-route request
// counts, and each member's answered requests broken down by route — the
// table that makes per-route traffic (LOD included) attributable per node.
func (g *Gateway) handleCluster(w *gwStatusWriter, r *http.Request, route string) {
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
func (g *Gateway) handleNodePassthrough(w *gwStatusWriter, r *http.Request, route string) {
	name := r.PathValue("node")
	rest := r.PathValue("rest")
	allowed := rest == "metrics" || rest == "healthz" || rest == "readyz" ||
		strings.HasPrefix(rest, "debug/")
	if !allowed {
		gwError(w, http.StatusNotFound, "only /debug/, /metrics, /healthz and /readyz pass through")
		return
	}
	var target Member
	for _, m := range g.ring.Members() {
		if m.Name == name {
			target = m
		}
	}
	if target.Name == "" {
		gwError(w, http.StatusNotFound, fmt.Sprintf("unknown node %q", name))
		return
	}
	uri := "/" + rest
	if q := r.URL.RawQuery; q != "" {
		uri += "?" + q
	}
	resp, err := g.send(r.Context(), http.MethodGet, target, uri, r.Header, nil)
	if err != nil {
		g.health.MarkDead(name)
		gwError(w, http.StatusBadGateway, err.Error())
		return
	}
	g.relay(w, resp, target, route)
}
