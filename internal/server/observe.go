package server

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"charmtrace/internal/resultcache"
	"charmtrace/internal/telemetry"
)

// This file is charmd's request-correlation and exposition layer: the
// request-ID contract, the structured access log, the Prometheus endpoint
// and the live flight listing. Everything here observes; none of it changes
// response bytes (the determinism invariant the cache depends on).

// logAccess emits one structured line per completed request: correlation id,
// route, digest and cache outcome when the request had them, status, wall
// latency, bytes on the wire and body bytes before compression. 5xx log at
// error, 4xx at warn (429 lines carry the Retry-After hint the client saw),
// everything else at info.
func (s *Server) logAccess(r *http.Request, route, reqID string, outcome *resultcache.OutcomeRecorder, sw *statusWriter, elapsed time.Duration) {
	log := s.cfg.AccessLog
	if log == nil {
		return
	}
	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("id", reqID),
		slog.String("route", route),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
	)
	if s.cfg.NodeName != "" {
		attrs = append(attrs, slog.String("node", s.cfg.NodeName))
	}
	if hop := r.Header.Get("X-Charmd-Hop"); hop != "" {
		attrs = append(attrs, slog.String("hop", hop))
	}
	if d := r.PathValue("digest"); d != "" {
		attrs = append(attrs, slog.String("digest", d))
	}
	if o := outcome.Outcome(); o != "" {
		attrs = append(attrs, slog.String("cache", o))
	}
	attrs = append(attrs,
		slog.Int("status", sw.code),
		slog.Float64("latency_ms", float64(elapsed.Nanoseconds())/1e6),
		slog.Int64("bytes", sw.bytes),
		slog.Int64("body_bytes", sw.body),
	)
	if sw.code == http.StatusTooManyRequests {
		if ra := sw.Header().Get("Retry-After"); ra != "" {
			attrs = append(attrs, slog.String("retry_after", ra))
		}
	}
	level := slog.LevelInfo
	switch {
	case sw.code >= 500:
		level = slog.LevelError
	case sw.code >= 400:
		level = slog.LevelWarn
	}
	log.LogAttrs(context.Background(), level, "request", attrs...)
}

// handleProm serves the registry — the same one behind /debug/stats — in
// the Prometheus text exposition format, followed by the Go runtime
// families.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.PromContentType)
	var labels map[string]string
	if s.cfg.NodeName != "" {
		labels = map[string]string{"node": s.cfg.NodeName}
	}
	s.residency()
	telemetry.WritePrometheusLabels(w, s.reg, labels)
	telemetry.WriteGoRuntimeMetrics(w)
}

// handleFlights lists every in-progress extraction flight with its live
// per-stage progress — which trace, which option fingerprint, how far the
// current stage has scanned, and how many requests are waiting on it.
func (s *Server) handleFlights(w http.ResponseWriter, r *http.Request) {
	flights := s.cache.Flights()
	if flights == nil {
		flights = []resultcache.FlightInfo{}
	}
	writeJSON(w, struct {
		Node    string                   `json:"node,omitempty"`
		Flights []resultcache.FlightInfo `json:"flights"`
	}{Node: s.cfg.NodeName, Flights: flights})
}
