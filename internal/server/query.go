package server

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"charmtrace/internal/core"
	"charmtrace/internal/query"
)

// serveQuery executes one query spec — POST /query's JSON body or the GET
// parameter retrofit — against the trace's recovered structure through the
// per-entry index: resolve the index, run one page, render its columns.
// Execution shares the cache and admission path of the other analysis
// endpoints.
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
	s.render(w, r, digest, opt, res.RenderFields)
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

// acceptsGzip reports whether the client will take a gzip-coded response
// (RFC 9110 §12.5.3): gzip listed with a positive weight, or — gzip not
// listed — "*" with one. A weight of zero, however spelt, is an explicit
// refusal, and so is one that does not parse as a qvalue (0–1, at most three
// decimals): the uncompressed answer is always acceptable.
func acceptsGzip(r *http.Request) bool {
	var star, gz, listed bool
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(part, ";")
		ok := true
		for _, param := range strings.Split(params, ";") {
			if k, v, _ := strings.Cut(param, "="); strings.EqualFold(strings.TrimSpace(k), "q") {
				v = strings.TrimSpace(v)
				q, err := strconv.ParseFloat(v, 64)
				ok = err == nil && q > 0 && q <= 1 && len(v) <= len("0.000")
			}
		}
		switch coding = strings.TrimSpace(coding); {
		case strings.EqualFold(coding, "gzip"):
			gz, listed = ok, true
		case coding == "*":
			star = ok
		}
	}
	return gz || star && !listed
}

// gzipPool holds idle compressors: a gzip.Writer's deflate state is about a
// megabyte, allocated and zeroed by its constructor, and Reset reuses it.
// The level is a constant — on indented JSON, BestSpeed gives up 13–65 % of
// wire size against the default for about half the compression time, on a
// server that is CPU-bound long before it is network-bound (DESIGN.md §3c
// "The wire path" records both sides of the trade).
var gzipPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed) // the level is valid
	return zw
}}

// gzipResponseWriter counts the body the handler writes and, unless built as
// a passthrough for a client that refused gzip, compresses it lazily: a
// compressor leaves the pool and Content-Encoding is set only when a
// compressible status is written, so 304/204 responses (no body by
// definition) pass through byte-free and error paths stay inspectable. The
// bytes fed to the encoder are exactly the uncompressed response —
// compression never changes response identity, only transfer encoding.
type gzipResponseWriter struct {
	http.ResponseWriter
	zw          *gzip.Writer
	body        int64 // bytes written by the handler, before compression
	wroteHeader bool
	passthrough bool
}

func (g *gzipResponseWriter) WriteHeader(code int) {
	if !g.wroteHeader {
		g.wroteHeader = true
		if g.passthrough || code == http.StatusNoContent || code == http.StatusNotModified ||
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
	g.body += int64(len(p))
	if g.passthrough {
		return g.ResponseWriter.Write(p)
	}
	if g.zw == nil {
		g.zw = gzipPool.Get().(*gzip.Writer)
		g.zw.Reset(g.ResponseWriter)
	}
	return g.zw.Write(p)
}

// Close flushes the compressed stream and returns the compressor to the
// pool, detached from this response; a writer that never saw a body emits
// nothing.
func (g *gzipResponseWriter) Close() {
	if g.zw != nil {
		g.zw.Close() // a failed flush is the client's loss, already counted by the handler's own writes
		g.zw.Reset(io.Discard)
		gzipPool.Put(g.zw)
		g.zw = nil
	}
}
