package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/cli"
	"charmtrace/internal/tracefile"
)

// TestAcceptsGzipWeights: a coding is accepted at any positive weight and
// refused at zero however zero is spelt (RFC 9110 §12.4.2), names are
// case-insensitive, and gzip named outranks "*".
func TestAcceptsGzipWeights(t *testing.T) {
	for header, want := range map[string]bool{
		"":                            false,
		"gzip":                        true,
		"GZIP":                        true,
		"deflate, gzip;q=0.5":         true,
		"gzip;q=1":                    true,
		"gzip;q=1.000":                true,
		"gzip; q=0.001":               true,
		"gzip;Q=0.3":                  true,
		"gzip;q=0":                    false,
		"gzip;q=0.0":                  false,
		"gzip; q=0.000":               false,
		"gzip;Q=0":                    false,
		"gzip ; q = 0":                false,
		"identity":                    false,
		"identity;q=1, *;q=0":         false,
		"*":                           true,
		"*;q=0":                       false,
		"*;q=0.1":                     true,
		"gzip;q=0, *":                 false,
		"*, gzip;q=0":                 false,
		"*;q=0, gzip":                 true,
		"br;q=1.0, gzip;q=0.8, *;q=0": true,
		"gzip;q=1.5":                  false, // not a qvalue
		"gzip;q=0.1234":               false,
		"gzip;q=":                     false,
		"gzip;q=abc":                  false,
		"gzip;level=9":                true, // a parameter that is not a weight
		"gzipx":                       false,
	} {
		r := httptest.NewRequest("GET", "/", nil)
		if header != "" {
			r.Header.Set("Accept-Encoding", header)
		}
		if got := acceptsGzip(r); got != want {
			t.Errorf("Accept-Encoding %q: acceptsGzip = %v, want %v", header, got, want)
		}
	}
}

// jacobiScaled encodes a jacobi run of the given grid and iteration count.
func jacobiScaled(t testing.TB, grid, iters int) []byte {
	t.Helper()
	cfg := jacobi.DefaultConfig()
	cfg.Grid, cfg.Iterations = grid, iters
	var buf bytes.Buffer
	if err := tracefile.WriteBinary(&buf, jacobi.MustTrace(cfg)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// residentDigest uploads a trace in-process and reads /steps once, so later
// reads are memory hits with the index built.
func residentDigest(t testing.TB, srv *Server, enc []byte) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/traces", bytes.NewReader(enc)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body)
	}
	digest := tracefile.DigestBytes(enc)
	for _, path := range []string{"/steps?steps=0..1", "/steps"} {
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/traces/"+digest+path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("warm %s: %d %s", path, rec.Code, rec.Body)
		}
	}
	return digest
}

// brittleWriter is a client connection that breaks: it takes limit body
// bytes and fails every write after, or (cancel set) stays up but cancels
// the request's context at that point.
type brittleWriter struct {
	hdr    http.Header
	limit  int
	cancel context.CancelFunc

	codes       []int
	got         int
	writesAfter int // Write calls after the break
	broken      bool
}

func (b *brittleWriter) Header() http.Header  { return b.hdr }
func (b *brittleWriter) WriteHeader(code int) { b.codes = append(b.codes, code) }
func (b *brittleWriter) Write(p []byte) (int, error) {
	if b.broken {
		b.writesAfter++
		if b.cancel == nil {
			return 0, errors.New("write: broken pipe")
		}
	}
	if b.got += len(p); b.got >= b.limit && !b.broken {
		b.broken = true
		if b.cancel == nil {
			return 0, errors.New("write: broken pipe")
		}
		b.cancel()
	}
	return len(p), nil
}

// TestRenderStopsForAGoneClient: a full /steps body several flushes long,
// written to a connection that breaks — or for a request whose context is
// cancelled — part-way, stops there: one 200 and no error status stacked on
// it, the abort counted, nothing counted as a 5xx. Compressed or not.
func TestRenderStopsForAGoneClient(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	digest := residentDigest(t, srv, jacobiScaled(t, 8, 12))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/traces/"+digest+"/steps", nil))
	full := rec.Body.Len()
	if full < 400_000 {
		t.Fatalf("/steps body is %d bytes; the test wants several flushes", full)
	}
	aborted := srv.Registry().Counter("server.render_aborted")
	stores := srv.Registry().Counter("cache.response_stores")
	storedBefore := stores.Value()
	for i, tc := range []struct {
		name     string
		gzip     bool
		byCancel bool
		limit    int
	}{
		{"broken pipe", false, false, full / 4},
		{"broken pipe, gzip", true, false, 2000},
		{"cancelled", false, true, full / 4},
		{"cancelled, gzip", true, true, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := aborted.Value()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := &brittleWriter{hdr: http.Header{}, limit: tc.limit}
			if tc.byCancel {
				w.cancel = cancel
			}
			// A URL of its own (the parameter changes nothing in the body):
			// a repeat of one already answered would be served from the
			// stored response, without a render to cut short.
			url := "/v1/traces/" + digest + "/steps?attempt=" + strconv.Itoa(i)
			req := httptest.NewRequest("GET", url, nil).WithContext(ctx)
			if tc.gzip {
				req.Header.Set("Accept-Encoding", "gzip")
			}
			srv.ServeHTTP(w, req)
			if !w.broken {
				t.Fatalf("the connection never broke: %d bytes taken", w.got)
			}
			if len(w.codes) != 1 || w.codes[0] != http.StatusOK {
				t.Errorf("status lines written: %v, want one 200", w.codes)
			}
			// A failed write is not retried. After a cancel the connection
			// still takes what was in flight — the write that cancelled, and
			// the compressor closing its current block (in deflate's 240-byte
			// writes) — and that is all: a fraction of one flush.
			if !tc.byCancel && w.writesAfter > 2 {
				t.Errorf("%d writes after the one that failed", w.writesAfter)
			}
			if past := w.got - tc.limit; past > 40<<10 {
				t.Errorf("%d bytes written past the break at %d (the body is %d)", past, tc.limit, full)
			}
			if got := aborted.Value() - before; got != 1 {
				t.Errorf("server.render_aborted moved by %d, want 1", got)
			}
		})
	}
	if n := stores.Value() - storedBefore; n != 0 {
		t.Errorf("cache.response_stores moved by %d: an aborted render is never stored", n)
	}
	if n := srv.Registry().Counter("server.status.5xx").Value(); n != 0 {
		t.Errorf("%d responses counted 5xx", n)
	}

	// Before the first byte there is still a status line to choose: a
	// request already past its deadline gets the timeout's, and no body.
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/traces/"+digest+"/steps", nil).WithContext(ctx))
	if rec.Code != http.StatusGatewayTimeout || strings.Contains(rec.Body.String(), `"chares"`) {
		t.Errorf("expired request: status %d, %d body bytes", rec.Code, rec.Body.Len())
	}
}

// discardWriter is a ResponseWriter that keeps nothing and allocates
// nothing per request.
type discardWriter struct{ hdr http.Header }

func (d *discardWriter) Header() http.Header         { return d.hdr }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func (d *discardWriter) serve(srv *Server, req *http.Request) {
	clear(d.hdr)
	srv.ServeHTTP(d, req)
}

// render serves a full /steps request the way instrument and analysis do,
// through the compressing writer, but calls the route's serve function
// itself: every call renders, where a repeat through ServeHTTP would be
// served from the stored response.
func (d *discardWriter) render(srv *Server, req *http.Request) {
	clear(d.hdr)
	opt, err := srv.extractOptions(req)
	if err != nil {
		panic(err)
	}
	gz := &gzipResponseWriter{ResponseWriter: d, passthrough: !acceptsGzip(req)}
	srv.serveSteps(gz, req, req.PathValue("digest"), opt)
	gz.Close()
}

// TestRenderAllocationsDoNotScaleWithRows: rendering full /steps for a trace
// with ten times the events allocates no more objects than for the small
// one — rows are appended to one buffer, never built — and a compressed
// response takes its compressor from the pool: well under 64 KB allocated,
// where constructing one costs over a megabyte. It renders through the
// route's serve function (discardWriter.render): storing a response copies
// it, which is the point of storing, not a cost of the render.
func TestRenderAllocationsDoNotScaleWithRows(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	small := residentDigest(t, srv, jacobiScaled(t, 4, 4))
	large := residentDigest(t, srv, jacobiScaled(t, 4, 40))
	w := &discardWriter{hdr: http.Header{}}
	allocs := func(digest string) float64 {
		req := httptest.NewRequest("GET", "/v1/traces/"+digest+"/steps", nil)
		return testing.AllocsPerRun(20, func() { w.render(srv, req) })
	}
	if s, l := allocs(small), allocs(large); l > s+8 {
		t.Errorf("full /steps: %.0f allocations for the 10x trace, %.0f for the small one", l, s)
	}

	req := httptest.NewRequest("GET", "/v1/traces/"+large+"/steps", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	// Measure what a response costs when the pool has a compressor, as it
	// does under load. A collection empties sync.Pools, so hold it off; and
	// a Put lands in the current P's private slot, so run on one P: a
	// goroutine that moved to another P would find that P's slot empty and
	// build a compressor (a megabyte) inside the loop.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w.render(srv, req) // fill the pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		w.render(srv, req)
	}
	runtime.ReadMemStats(&after)
	if w.hdr.Get("Content-Encoding") != "gzip" {
		t.Fatal("response was not compressed")
	}
	if perResp := (after.TotalAlloc - before.TotalAlloc) / runs; perResp > 64<<10 && !raceEnabled {
		t.Errorf("a compressed response allocates %d bytes; want < 64 KB (is the compressor pooled?)", perResp)
	}
}

// TestAllocationsStayBoundedWhenNotStored: a response too large for
// its entry's room costs no copy that grows with it. Through ServeHTTP, the
// uncompressed full /steps of the 10x trace, over twice its entry's bytes
// and so never stored, renders on every repeat and allocates well under its
// own size: the capture stops at the room and its chunks are pooled. Each
// repeat counts in cache.response_refused.
func TestAllocationsStayBoundedWhenNotStored(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	large := residentDigest(t, srv, jacobiScaled(t, 4, 40))
	w := &discardWriter{hdr: http.Header{}}
	req := httptest.NewRequest("GET", "/v1/traces/"+large+"/steps", nil)
	reg := srv.Registry()
	stores, body := reg.Counter("cache.response_stores"), reg.Counter("server.body_bytes.steps")
	refused := reg.Counter("cache.response_refused")
	// As in TestRenderAllocationsDoNotScaleWithRows: no collection to empty
	// the pools, and one P, whose private pool slot the loop reuses.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w.serve(srv, req) // fill the pools
	const runs = 20
	s0, b0, r0 := stores.Value(), body.Value(), refused.Value()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		w.serve(srv, req)
	}
	runtime.ReadMemStats(&after)
	if n := stores.Value() - s0; n != 0 {
		t.Fatalf("%d responses stored; the test wants one over its entry's room", n)
	}
	if n := refused.Value() - r0; n != runs {
		t.Errorf("cache.response_refused moved by %d over %d complete responses past their room", n, runs)
	}
	size := (body.Value() - b0) / runs
	perResp := int64(after.TotalAlloc-before.TotalAlloc) / runs
	if perResp > 64<<10 && !raceEnabled {
		t.Errorf("a %d-byte response that is not stored allocates %d bytes; want < 64 KB", size, perResp)
	}
	if size < 256<<10 {
		t.Errorf("the response is %d bytes; the test wants one several times its 64 KB allocation bound", size)
	}
}

// TestBodyAndWireByteCounters: server.body_bytes.<route> counts what the
// handler rendered, server.wire_bytes.<route> what left after compression,
// and the access log line carries both.
func TestBodyAndWireByteCounters(t *testing.T) {
	logBuf := &syncBuffer{}
	srv, ts := newTestServer(t, Config{AccessLog: slog.New(slog.NewJSONHandler(logBuf, nil))})
	digest := upload(t, ts, encodedJacobi(t, 0))
	path := "/v1/traces/" + digest + "/steps"
	plain := rawGet(t, ts, path, nil)
	plainBody, _ := io.ReadAll(plain.Body)
	reg := srv.Registry()
	body, wire := reg.Counter("server.body_bytes.steps"), reg.Counter("server.wire_bytes.steps")
	if b, w := body.Value(), wire.Value(); b != int64(len(plainBody)) || w != b {
		t.Fatalf("identity response of %d bytes: body_bytes %d, wire_bytes %d", len(plainBody), b, w)
	}
	zipped := rawGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"})
	zippedBody, _ := io.ReadAll(zipped.Body)
	if b, w := body.Value()-int64(len(plainBody)), wire.Value()-int64(len(plainBody)); b != int64(len(plainBody)) || w != int64(len(zippedBody)) {
		t.Errorf("gzip response (%d body, %d wire): body_bytes +%d, wire_bytes +%d", len(plainBody), len(zippedBody), b, w)
	}
	line := logBuf.lineFor(t, "steps")
	if line["body_bytes"] != float64(len(plainBody)) || line["bytes"] != float64(len(zippedBody)) {
		t.Errorf("access log: bytes=%v body_bytes=%v, want %d and %d", line["bytes"], line["body_bytes"], len(zippedBody), len(plainBody))
	}
	zr, err := gzip.NewReader(bytes.NewReader(zippedBody))
	if err != nil {
		t.Fatal(err)
	}
	if unzipped, _ := io.ReadAll(zr); !bytes.Equal(unzipped, plainBody) {
		t.Error("decompressed body differs from the identity body")
	}
	code, stats := get(t, ts, "/debug/stats")
	if code != http.StatusOK || !bytes.Contains(stats, []byte(`"server.body_bytes.steps"`)) || !bytes.Contains(stats, []byte(`"server.wire_bytes.steps"`)) {
		t.Errorf("/debug/stats (%d) lacks the byte counters", code)
	}
	_, prom := get(t, ts, "/metrics")
	if !bytes.Contains(prom, []byte("server_body_bytes_steps")) || !bytes.Contains(prom, []byte("server_wire_bytes_steps")) {
		t.Errorf("/metrics lacks the byte counters")
	}
}

// ---- render benchmarks (make bench-wire) ----------------------------------

// benchServer is a server holding app's trace, resident and warm.
func benchServer(b *testing.B, app string, p cli.Params) (*Server, string) {
	tr, _, err := cli.Generate(app, p)
	if err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	if err := tracefile.WriteBinary(&enc, tr); err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	return srv, residentDigest(b, srv, enc.Bytes())
}

// benchRender serves one warm request per iteration to a discarding
// connection, compressed as the repository benchmark's clients ask, and
// reports time and bytes per row beside the usual columns. path is a GET
// URL; with spec set the request is a POST of spec(i). Every iteration
// renders (see below); BenchmarkServeStored times a repeat.
func benchRender(b *testing.B, app string, p cli.Params, path string, spec func(i int) string, rows func(body []byte) int) {
	srv, digest := benchServer(b, app, p)
	method, body := "GET", func(int) string { return "" }
	if spec != nil {
		method, body = "POST", spec
	}
	rec := serveIn(srv, method, "/v1/traces/"+digest+path, body(-1), false)
	if rec.Code != http.StatusOK {
		b.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
	}
	n := rows(rec.Body.Bytes())
	// Each iteration asks for a URL or a spec of its own — a parameter that
	// changes nothing in the body — so that it renders, compresses and
	// stores the response, as a first request does, instead of serving a
	// stored one.
	if spec == nil {
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		path += sep + "n="
	}
	req := httptest.NewRequest(method, "/v1/traces/"+digest+path, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	w := &discardWriter{hdr: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if spec == nil {
			req.URL.RawQuery = req.URL.RawQuery[:strings.LastIndexByte(req.URL.RawQuery, '=')+1] + strconv.Itoa(i)
		} else {
			req.Body = io.NopCloser(strings.NewReader(spec(i)))
		}
		w.serve(srv, req)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
	b.ReportMetric(float64(rec.Body.Len())/float64(n), "B/row")
}

func countOf(marker string) func([]byte) int {
	return func(body []byte) int { return max(1, bytes.Count(body, []byte(marker))) }
}

var benchJacobi = cli.Params{Scale: 8, Iterations: 12} // the medium jacobi of make bench-lod

func BenchmarkRenderStepsFull(b *testing.B) {
	benchRender(b, "jacobi", benchJacobi, "/steps", nil, countOf(`"event":`))
}

func BenchmarkRenderStepsWindow(b *testing.B) {
	benchRender(b, "jacobi", benchJacobi, "/steps?steps=0..20", nil, countOf(`"event":`))
}

func BenchmarkRenderMetricsGrouped(b *testing.B) {
	benchRender(b, "jacobi", benchJacobi, "/metrics?group_by=chare", nil, countOf(`"chare":`))
}

func BenchmarkRenderStructure(b *testing.B) {
	benchRender(b, "jacobi", benchJacobi, "/structure", nil, countOf(`"id":`))
}

// BenchmarkRenderQueryPost is the repository benchmark's POST /query shape,
// a steps query over a block of four chares; each iteration's step window
// ends at a step of its own past the last, which changes nothing in the
// body.
func BenchmarkRenderQueryPost(b *testing.B) {
	benchRender(b, "jacobi", benchJacobi, "/query", queryPostSpec, countOf(`"event":`))
}

func queryPostSpec(i int) string {
	return `{"select":"steps","filter":{"chares":[0,1,2,3],"steps":{"from":0,"to":` + strconv.Itoa(1<<20+i) + `}}}`
}

// BenchmarkServeStored times a repeat served from the stored response's
// bytes, written in one call — no render, no compression, no query: of a
// full /steps GET and of a POST /query.
func BenchmarkServeStored(b *testing.B) {
	srv, digest := benchServer(b, "jacobi", benchJacobi)
	for _, rq := range []struct{ name, method, path, body string }{
		{"steps", "GET", "/steps", ""},
		{"query", "POST", "/query", queryPostSpec(0)},
	} {
		b.Run(rq.name, func(b *testing.B) {
			req := httptest.NewRequest(rq.method, "/v1/traces/"+digest+rq.path, nil)
			req.Header.Set("Accept-Encoding", "gzip")
			serve := func(w *discardWriter) {
				if rq.body != "" {
					req.Body = io.NopCloser(strings.NewReader(rq.body))
				}
				w.serve(srv, req)
			}
			w := &discardWriter{hdr: http.Header{}}
			serve(w) // renders and stores the compressed response
			hits := srv.Registry().Counter("cache.response_hits")
			before := hits.Value()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(w)
			}
			b.StopTimer()
			if got := hits.Value() - before; got != int64(b.N) {
				b.Fatalf("%d of %d requests served from the stored response", got, b.N)
			}
		})
	}
}
