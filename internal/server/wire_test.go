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
	for _, tc := range []struct {
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
			req := httptest.NewRequest("GET", "/v1/traces/"+digest+"/steps", nil).WithContext(ctx)
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

// TestRenderAllocationsDoNotScaleWithRows: serving full /steps for a trace
// with ten times the events allocates no more objects than for the small
// one — rows are appended to one buffer, never built — and a compressed
// response takes its compressor from the pool: well under 64 KB allocated,
// where constructing one costs over a megabyte.
func TestRenderAllocationsDoNotScaleWithRows(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	small := residentDigest(t, srv, jacobiScaled(t, 4, 4))
	large := residentDigest(t, srv, jacobiScaled(t, 4, 40))
	w := &discardWriter{hdr: http.Header{}}
	allocs := func(digest string) float64 {
		req := httptest.NewRequest("GET", "/v1/traces/"+digest+"/steps", nil)
		return testing.AllocsPerRun(20, func() { w.serve(srv, req) })
	}
	if s, l := allocs(small), allocs(large); l > s+8 {
		t.Errorf("full /steps: %.0f allocations for the 10x trace, %.0f for the small one", l, s)
	}

	req := httptest.NewRequest("GET", "/v1/traces/"+large+"/steps", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	// A collection empties sync.Pools; hold it off while measuring what a
	// response costs when the pool has a compressor, as it does under load.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w.serve(srv, req) // fill the pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		w.serve(srv, req)
	}
	runtime.ReadMemStats(&after)
	if w.hdr.Get("Content-Encoding") != "gzip" {
		t.Fatal("response was not compressed")
	}
	if perResp := (after.TotalAlloc - before.TotalAlloc) / runs; perResp > 64<<10 && !raceEnabled {
		t.Errorf("a compressed response allocates %d bytes; want < 64 KB (is the compressor pooled?)", perResp)
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

// benchRender serves one warm request per iteration to a discarding
// connection, compressed as the repository benchmark's clients ask, and
// reports time and bytes per row beside the usual columns.
func benchRender(b *testing.B, app string, p cli.Params, path string, rows func(body []byte) int) {
	tr, _, err := cli.Generate(app, p)
	if err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	if err := tracefile.WriteBinary(&enc, tr); err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	digest := residentDigest(b, srv, enc.Bytes())
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/traces/"+digest+path, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	n := rows(rec.Body.Bytes())
	req := httptest.NewRequest("GET", "/v1/traces/"+digest+path, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	w := &discardWriter{hdr: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
	benchRender(b, "jacobi", benchJacobi, "/steps", countOf(`"event":`))
}

func BenchmarkRenderStepsWindow(b *testing.B) {
	benchRender(b, "jacobi", benchJacobi, "/steps?steps=0..20", countOf(`"event":`))
}

func BenchmarkRenderMetricsGrouped(b *testing.B) {
	benchRender(b, "jacobi", benchJacobi, "/metrics?group_by=chare", countOf(`"chare":`))
}

func BenchmarkRenderStructure(b *testing.B) {
	benchRender(b, "jacobi", benchJacobi, "/structure", countOf(`"id":`))
}
