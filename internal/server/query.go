package server

import (
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"charmtrace/internal/core"
	"charmtrace/internal/query"
	"charmtrace/internal/resultcache"
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
// sha256(request path ‖ options fingerprint ‖ canonical request params).
// The path names both the trace digest and the route, so no two routes of
// one trace share a validator. Every input is known before extraction
// runs, so a revalidation hit never touches the pipeline.
func strongETag(path, fingerprint, params string) string {
	h := sha256.New()
	io.WriteString(h, path)
	h.Write([]byte{0})
	io.WriteString(h, fingerprint)
	h.Write([]byte{0})
	io.WriteString(h, params)
	return `"` + hex.EncodeToString(h.Sum(nil)) + `"`
}

// specKey is the content address of one POST analysis response, the key
// its stored response is kept under: strongETag's hash with the method and
// the decoded spec, re-encoded by json.Marshal, as the parameters. Hashing
// the decoded spec rather than the body lets bodies that differ only in key
// order or whitespace share one stored response; the method keeps a POST
// apart from a GET of the same path (a GET's encoded parameters never hold
// a space). It is "" — nothing is stored — if the spec does not encode.
func specKey(r *http.Request, fingerprint string, spec any) string {
	b, err := json.Marshal(spec)
	if err != nil {
		return ""
	}
	return strongETag(r.URL.Path, fingerprint, r.Method+" "+string(b))
}

// notModified stamps the caching headers of an immutable digest-addressed
// response (strong ETag, long-lived Cache-Control), returns the ETag, and
// reports whether If-None-Match already matched — in which case it has
// written the 304 and the handler is done, having skipped extraction
// entirely. Unknown digests get no validator (etag is "") and fall through
// to the usual 404.
func (s *Server) notModified(w http.ResponseWriter, r *http.Request, digest, fingerprint string) (etag string, done bool) {
	if s.entryFor(digest) == nil {
		return "", false
	}
	etag = strongETag(r.URL.Path, fingerprint, responseParams(r.URL.Query()))
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return etag, true
	}
	return etag, false
}

// ---- stored responses ---------------------------------------------------

// serveStored answers an analysis request from the response stored for it,
// if there is one — with the resident cache entry, or in the trace's file
// once that entry was evicted (X-Charmd-Cache mem or disk) — and reports
// whether it did: the stored bytes in one write, with no render, no
// compression, no query or LOD call, and from disk no decode or view
// build. The key is addr, which addresses the body — a GET's strong ETag
// (a hash of the path, options and parameters) or a POST's specKey (of the
// method, path, options and decoded spec) — and the response's content
// coding, the one other input to the bytes on the wire. Otherwise it arms
// w to capture the response the route is about to render, up to the room
// its entry has left; instrument stores it once it is known complete
// (gzipResponseWriter.storeKept).
func (s *Server) serveStored(w http.ResponseWriter, r *http.Request, digest, fingerprint, addr string) bool {
	g, ok := w.(*gzipResponseWriter)
	if !ok || r.Context().Err() != nil {
		return false // a request already past its deadline or gone fails in the render, as before
	}
	coding := "gzip"
	if g.passthrough {
		coding = "identity"
	}
	key := addr + " " + coding
	if resp, outcome := s.cache.LookupResponse(digest, fingerprint, key); resp != nil {
		resultcache.RecordOutcome(r.Context(), outcome)
		g.writeStored(resp)
		return true
	}
	g.keep = &capture{cache: s.cache, limit: -1, digest: digest, fp: fingerprint, key: key}
	return false
}

// capture is a copy of the wire bytes of a response that may be stored,
// kept in pooled fixed-size chunks and only up to limit, the room the
// response's cache entry has left: the copy of a response that outgrows it
// is dropped at once (over remembers that, for cache.response_refused), and
// one that is not stored leaves its chunks to the next capture, so the copy
// never holds more than the entry could keep, nor a buffer that outlives
// the request.
type capture struct {
	chunks          []*[captureChunk]byte
	n               int
	limit           int  // -1 until the first write
	over            bool // the response outgrew limit: nothing is kept
	cache           *resultcache.Cache
	digest, fp, key string // where the response is stored
}

const captureChunk = 32 << 10

var chunkPool = sync.Pool{New: func() any { return new([captureChunk]byte) }}

// write appends p, or drops the copy once it would pass the limit.
func (c *capture) write(p []byte) {
	if c.over {
		return
	}
	if c.limit < 0 {
		// By its first byte the route has resolved the entry — made it
		// resident and built the views it reads — so its room is known.
		c.limit = int(min(c.cache.ResponseRoom(c.digest, c.fp, c.key), math.MaxInt))
	}
	if c.n+len(p) > c.limit {
		c.release()
		c.over = true
		return
	}
	for len(p) > 0 {
		off := c.n % captureChunk
		if off == 0 {
			c.chunks = append(c.chunks, chunkPool.Get().(*[captureChunk]byte))
		}
		k := copy(c.chunks[len(c.chunks)-1][off:], p)
		p, c.n = p[k:], c.n+k
	}
}

// bytes returns the captured bytes in one slice of their exact size.
func (c *capture) bytes() []byte {
	b := make([]byte, 0, c.n)
	for i, ch := range c.chunks {
		b = append(b, ch[:min(captureChunk, c.n-i*captureChunk)]...)
	}
	return b
}

// release returns the chunks to the pool.
func (c *capture) release() {
	for _, ch := range c.chunks {
		chunkPool.Put(ch)
	}
	c.chunks = nil
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
//
// Armed by serveStored (keep set), it also copies every byte it sends
// downstream — the compressed stream, or the body itself under passthrough —
// so that the response can be stored once it is known complete.
type gzipResponseWriter struct {
	http.ResponseWriter
	zw          *gzip.Writer
	body        int64 // bytes written by the handler, before compression
	code        int
	wroteHeader bool
	passthrough bool

	keep   *capture // nil when not armed, or once the response may be neither stored nor counted refused
	failed bool     // a downstream write failed
}

func (g *gzipResponseWriter) WriteHeader(code int) {
	if !g.wroteHeader {
		g.wroteHeader, g.code = true, code
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
		return g.down(p)
	}
	if g.zw == nil {
		g.zw = gzipPool.Get().(*gzip.Writer)
		g.zw.Reset(downstream{g})
	}
	return g.zw.Write(p)
}

// down sends bytes to the connection, copying them into the capture when
// armed.
func (g *gzipResponseWriter) down(p []byte) (int, error) {
	n, err := g.ResponseWriter.Write(p)
	if err != nil {
		g.failed = true
	}
	if g.keep != nil {
		g.keep.write(p[:n])
	}
	return n, err
}

// dropCapture disarms the capture: the response will not be stored.
func (g *gzipResponseWriter) dropCapture() {
	if g.keep != nil {
		g.keep.release()
		g.keep = nil
	}
}

// downstream is the compressor's destination: the writer's down.
type downstream struct{ g *gzipResponseWriter }

func (d downstream) Write(p []byte) (int, error) { return d.g.down(p) }

// writeStored sends a stored response: its entity headers, a 200, and its
// wire bytes in one write, past the compressor — they are already coded.
func (g *gzipResponseWriter) writeStored(resp *resultcache.Response) {
	g.Header().Set("Content-Type", resp.ContentType)
	if resp.ContentEncoding != "" {
		g.Header().Set("Content-Encoding", resp.ContentEncoding)
	}
	g.wroteHeader, g.code, g.passthrough = true, http.StatusOK, true
	g.body = resp.BodyBytes
	g.ResponseWriter.WriteHeader(http.StatusOK)
	g.ResponseWriter.Write(resp.Wire) // a failed write is the client's loss, as for a rendered body
}

// storeKept stores the captured response with its cache entry if it may be
// stored: a 200 whose render completed (s.render drops the capture when
// jsonw.Close reports an error) and whose every byte was delivered, within
// the capture's limit, while ctx — the request's — stayed live. Such a
// response past the limit is counted as refused. It releases the capture
// either way. Call it after Close, which writes the compressed stream's
// tail.
func (g *gzipResponseWriter) storeKept(ctx context.Context, cache *resultcache.Cache) {
	c := g.keep
	if c == nil {
		return
	}
	defer g.dropCapture()
	if g.failed || g.code != http.StatusOK || ctx.Err() != nil {
		return
	}
	if c.over {
		cache.RefuseResponse(c.digest, c.fp, c.key)
		return
	}
	cache.StoreResponse(c.digest, c.fp, c.key, &resultcache.Response{
		ContentType:     g.Header().Get("Content-Type"),
		ContentEncoding: g.Header().Get("Content-Encoding"),
		Wire:            c.bytes(),
		BodyBytes:       g.body,
	})
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
