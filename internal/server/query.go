package server

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/url"
	"strings"

	"charmtrace/internal/core"
	"charmtrace/internal/query"
)

// queryResponse wraps one executed query page with the request's content
// address, mirroring the other analysis responses.
type queryResponse struct {
	Digest      string `json:"digest"`
	Fingerprint string `json:"fingerprint"`
	*query.Result
}

// serveQuery executes one query spec — POST /query's JSON body or the GET
// parameter retrofit — against the trace's recovered structure through the
// per-entry index: resolve the index, run one page, render. Execution
// shares the cache and admission path of the other analysis endpoints.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, digest string, opt core.Options, spec query.Spec) {
	_, idx, err := s.resolve(r.Context(), digest, opt, wantIndex)
	if err != nil {
		httpError(w, err)
		return
	}
	res, err := s.engine.Run(r.Context(), idx.(*query.Index), spec)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, queryResponse{Digest: digest, Fingerprint: opt.Fingerprint(), Result: res})
}

// ---- conditional requests ---------------------------------------------

// optionParams are the URL parameters already canonicalized into the
// options fingerprint; every other parameter can change response bytes and
// therefore feeds the ETag.
var optionParams = map[string]bool{
	"preset": true, "reorder": true, "infer": true, "nsmerge": true, "procorder": true,
}

// responseParams canonicalizes the response-shaping parameters (the query
// retrofit set, legacy ?chare=, anything future) into a stable string:
// url.Values.Encode sorts by key.
func responseParams(q url.Values) string {
	v := url.Values{}
	for k, vals := range q {
		if !optionParams[k] {
			v[k] = vals
		}
	}
	return v.Encode()
}

// strongETag is the content address of one analysis response:
// sha256(trace digest ‖ options fingerprint ‖ canonical request params).
// Every input is known before extraction runs, so a revalidation hit never
// touches the pipeline.
func strongETag(digest, fingerprint, params string) string {
	h := sha256.New()
	io.WriteString(h, digest)
	h.Write([]byte{0})
	io.WriteString(h, fingerprint)
	h.Write([]byte{0})
	io.WriteString(h, params)
	return `"` + hex.EncodeToString(h.Sum(nil)) + `"`
}

// notModified stamps the caching headers of an immutable digest-addressed
// response (strong ETag, long-lived Cache-Control) and reports whether
// If-None-Match already matched — in which case it has written the 304 and
// the handler is done, having skipped extraction entirely. Unknown
// digests get no validator and fall through to the usual 404.
func (s *Server) notModified(w http.ResponseWriter, r *http.Request, digest, fingerprint string) bool {
	if s.entryFor(digest) == nil {
		return false
	}
	etag := strongETag(digest, fingerprint, responseParams(r.URL.Query()))
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// etagMatch implements the If-None-Match comparison: a comma-separated
// list of entity tags, compared weakly (a W/ prefix is ignored — for a
// 304 the weak comparison is the correct one), with "*" matching any.
func etagMatch(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}

// ---- response compression ---------------------------------------------

// acceptsGzip reports whether the client advertised gzip support.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, q, _ := strings.Cut(strings.TrimSpace(part), ";")
		if (enc == "gzip" || enc == "*") && strings.TrimSpace(q) != "q=0" {
			return true
		}
	}
	return false
}

// gzipResponseWriter compresses the response body lazily: the encoder and
// the Content-Encoding header appear only when a compressible status is
// written, so 304/204 responses (no body by definition) pass through
// byte-free and error paths stay inspectable. The JSON bytes fed into the
// encoder are exactly the uncompressed response — compression never
// changes response identity, only transfer encoding.
type gzipResponseWriter struct {
	http.ResponseWriter
	zw          *gzip.Writer
	wroteHeader bool
	passthrough bool
}

func (g *gzipResponseWriter) WriteHeader(code int) {
	if !g.wroteHeader {
		g.wroteHeader = true
		if code == http.StatusNoContent || code == http.StatusNotModified ||
			g.Header().Get("Content-Encoding") != "" {
			g.passthrough = true
		} else {
			g.Header().Set("Content-Encoding", "gzip")
			g.Header().Del("Content-Length")
		}
	}
	g.ResponseWriter.WriteHeader(code)
}

func (g *gzipResponseWriter) Write(p []byte) (int, error) {
	if !g.wroteHeader {
		g.WriteHeader(http.StatusOK)
	}
	if g.passthrough {
		return g.ResponseWriter.Write(p)
	}
	if g.zw == nil {
		g.zw = gzip.NewWriter(g.ResponseWriter)
	}
	return g.zw.Write(p)
}

// Close flushes the compressed stream; a writer that never saw a body
// emits nothing.
func (g *gzipResponseWriter) Close() {
	if g.zw != nil {
		g.zw.Close()
	}
}
