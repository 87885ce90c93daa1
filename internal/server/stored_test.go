package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charmtrace/internal/conformance"
	"charmtrace/internal/core"
	"charmtrace/internal/jsonw"
	"charmtrace/internal/lod"
	"charmtrace/internal/metrics"
	"charmtrace/internal/query"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// storedGets are the GET analysis requests whose responses are stored:
// every route in its full form and through the query engine — /structure,
// /steps full, windowed and for one chare, /metrics with and without
// group_by, /lod at the default and two other shapes, and the query
// retrofits of all three row routes.
var storedGets = []string{
	"/structure",
	"/structure?phase=0",
	"/structure?steps=0..4&limit=2",
	"/steps",
	"/steps?steps=0..3",
	"/steps?chare=1",
	"/steps?phase=0&chares=0,1&limit=5",
	"/metrics",
	"/metrics?group_by=chare",
	"/metrics?group_by=phase&aggs=sum,mean,count",
	"/metrics?steps=1..4&fields=event,imbalance,sub_dur",
	"/lod",
	"/lod?resolution=64",
	"/lod?resolution=256&steps=0..8&max_rows=16&max_edges=4",
}

// serveIn answers one request in-process.
func serveIn(srv *Server, method, path, body string, gzip bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// sameResponse reports how b differs from a in what a client sees of a
// response: its status, entity headers and body bytes ("" when it does not).
func sameResponse(a, b *httptest.ResponseRecorder) string {
	if a.Code != b.Code {
		return "status " + http.StatusText(a.Code) + " vs " + http.StatusText(b.Code)
	}
	for _, h := range []string{"ETag", "Cache-Control", "Vary", "Content-Type", "Content-Encoding"} {
		if a.Header().Get(h) != b.Header().Get(h) {
			return h + ": " + a.Header().Get(h) + " vs " + b.Header().Get(h)
		}
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		return "body bytes"
	}
	return ""
}

// TestStoredResponsesAreByteIdentical: on each of the nine zoo traces,
// compressed and not, every GET analysis route answers its repeat from the
// stored response — one store on the first request, one hit on the second —
// with the status, entity headers and body bytes of the response that was
// rendered. A response is refused only when it does not fit the room its
// entry has left (its bound is the entry's own bytes, and a small zoo entry
// fills it); its repeat renders again, the same bytes. Every route is
// stored, in both codings, on some trace — but for the uncompressed full
// /steps, which is 1.9 to 2.4 times its entry's bytes on the zoo traces.
func TestStoredResponsesAreByteIdentical(t *testing.T) {
	srv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	reg := srv.Registry()
	stores, hits := reg.Counter("cache.response_stores"), reg.Counter("cache.response_hits")
	fp := core.DefaultOptions().Fingerprint()
	storedOnce := map[string]bool{}
	for i, enc := range encodeZoo(t) {
		if rec := serveIn(srv, "POST", "/v1/traces", string(enc), false); rec.Code != http.StatusCreated {
			t.Fatalf("upload: %d %s", rec.Code, rec.Body)
		}
		digest := tracefile.DigestBytes(enc)
		base := "/v1/traces/" + digest
		// The coding asked first alternates, so that each gets the room of
		// a fresh entry on some traces.
		for _, gzip := range []bool{i%2 == 0, i%2 == 1} {
			coding := map[bool]string{true: "gzip", false: "identity"}[gzip]
			for _, path := range storedGets {
				s0, h0 := stores.Value(), hits.Value()
				rendered := serveIn(srv, "GET", base+path, "", gzip)
				if rendered.Code != http.StatusOK {
					t.Fatalf("GET %s: %d %s", path, rendered.Code, rendered.Body)
				}
				if hits.Value() != h0 {
					t.Fatalf("GET %s (%s): the first request was a stored-response hit", path, coding)
				}
				want := stores.Value() - s0
				if want == 0 {
					route, _, _ := strings.Cut(path, "?")
					key := base + route + " " + rendered.Header().Get("ETag") + " " + coding
					if room := srv.cache.ResponseRoom(digest, fp, key); int64(rendered.Body.Len()) <= room {
						t.Fatalf("GET %s (%s, %d bytes): not stored, though its entry has room for %d", path, coding, rendered.Body.Len(), room)
					}
				} else {
					storedOnce[path+" "+coding] = true
				}
				stored := serveIn(srv, "GET", base+path, "", gzip)
				if hits.Value() != h0+want || stores.Value() != s0+want {
					t.Fatalf("repeat of GET %s (%s): %d hits, %d stores, want %d and %d", path, coding, hits.Value()-h0, stores.Value()-s0, want, want)
				}
				if diff := sameResponse(rendered, stored); diff != "" {
					t.Errorf("GET %s (%s): stored response differs from the rendered one: %s", path, coding, diff)
				}
				if c := stored.Header().Get("X-Charmd-Cache"); want == 1 && c != "mem" {
					t.Errorf("GET %s: stored response says X-Charmd-Cache %q, want mem", path, c)
				}
			}
		}
	}
	for _, path := range storedGets {
		for _, coding := range []string{"gzip", "identity"} {
			if !storedOnce[path+" "+coding] && path+" "+coding != "/steps identity" {
				t.Errorf("GET %s (%s) was stored on none of the zoo traces", path, coding)
			}
		}
	}
	t.Logf("%d of %d responses stored", stores.Value(), 2*len(storedGets)*len(conformance.Zoo()))
}

// TestNothingStoredUnlessComplete: only a 200 whose render completed, for a
// GET, on a resident entry, is stored — not an aborted render (client gone,
// context cancelled, deadline passed), not a 4xx, 429, 5xx or 504, not a
// POST, and nothing on a server whose entries are never resident.
func TestNothingStoredUnlessComplete(t *testing.T) {
	enc := jacobiScaled(t, 8, 12)
	stored := func(t *testing.T, srv *Server, do func()) int64 {
		t.Helper()
		c := srv.Registry().Counter("cache.response_stores")
		before := c.Value()
		do()
		return c.Value() - before
	}

	t.Run("aborted", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{})
		digest := residentDigest(t, srv, enc)
		for _, byCancel := range []bool{false, true} {
			url := "/v1/traces/" + digest + "/steps?aborted=1"
			n := stored(t, srv, func() {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				w := &brittleWriter{hdr: http.Header{}, limit: 4000}
				if byCancel {
					w.cancel = cancel
				}
				srv.ServeHTTP(w, httptest.NewRequest("GET", url, nil).WithContext(ctx))
				if !w.broken {
					t.Fatal("the connection never broke")
				}
			})
			if n != 0 {
				t.Errorf("cancelled %v: an aborted render was stored", byCancel)
			}
		}
		// A request past its deadline is a 504 even for a URL whose
		// response is stored, as it was before there were stored responses.
		if rec := serveIn(srv, "GET", "/v1/traces/"+digest+"/structure", "", false); rec.Code != http.StatusOK {
			t.Fatalf("GET /structure: %d", rec.Code)
		}
		for _, path := range []string{"/structure?late=1", "/structure"} {
			n := stored(t, srv, func() {
				ctx, cancel := context.WithTimeout(context.Background(), 0)
				defer cancel()
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/traces/"+digest+path, nil).WithContext(ctx))
				if rec.Code != http.StatusGatewayTimeout {
					t.Errorf("%s past its deadline: %d, want 504", path, rec.Code)
				}
			})
			if n != 0 {
				t.Errorf("%s: a 504 was stored", path)
			}
		}
	})

	t.Run("4xx", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{})
		digest := residentDigest(t, srv, enc)
		n := stored(t, srv, func() {
			for _, path := range []string{"/steps?chare=100000", "/steps?limit=x", "/lod?resolution=-1", "/metrics?group_by=nothing"} {
				for i := 0; i < 2; i++ {
					if rec := serveIn(srv, "GET", "/v1/traces/"+digest+path, "", true); rec.Code != http.StatusBadRequest {
						t.Errorf("GET %s: %d, want 400", path, rec.Code)
					}
				}
			}
			if rec := serveIn(srv, "GET", "/v1/traces/"+strings.Repeat("0", 64)+"/structure", "", true); rec.Code != http.StatusNotFound {
				t.Errorf("unknown digest: %d, want 404", rec.Code)
			}
		})
		if n != 0 {
			t.Errorf("%d error responses stored", n)
		}
	})

	t.Run("5xx", func(t *testing.T) {
		cfg := Config{}
		cfg.extract = func(*trace.Trace, core.Options) (*core.Structure, error) { return nil, errors.New("extractor broke") }
		srv, _ := newTestServer(t, cfg)
		if rec := serveIn(srv, "POST", "/v1/traces", string(enc), false); rec.Code != http.StatusCreated {
			t.Fatalf("upload: %d", rec.Code)
		}
		n := stored(t, srv, func() {
			for i := 0; i < 2; i++ {
				if rec := serveIn(srv, "GET", "/v1/traces/"+tracefile.DigestBytes(enc)+"/structure", "", true); rec.Code != http.StatusInternalServerError {
					t.Errorf("failed extraction: %d, want 500", rec.Code)
				}
			}
		})
		if n != 0 {
			t.Error("a 500 was stored")
		}
	})

	t.Run("429 and 504", func(t *testing.T) {
		entered := make(chan struct{}, 4)
		gate := make(chan struct{})
		cfg := Config{MaxConcurrentExtractions: 1, QueueWait: 20 * time.Millisecond, RequestTimeout: 200 * time.Millisecond}
		cfg.extract = gatedExtract(entered, gate, nil)
		srv, _ := newTestServer(t, cfg)
		if rec := serveIn(srv, "POST", "/v1/traces", string(enc), false); rec.Code != http.StatusCreated {
			t.Fatalf("upload: %d", rec.Code)
		}
		base := "/v1/traces/" + tracefile.DigestBytes(enc)
		n := stored(t, srv, func() {
			holder := make(chan int, 1)
			go func() { holder <- serveIn(srv, "GET", base+"/structure", "", true).Code }()
			<-entered
			if rec := serveIn(srv, "GET", base+"/structure?infer=false", "", true); rec.Code != http.StatusTooManyRequests {
				t.Errorf("saturated: %d, want 429", rec.Code)
			}
			if code := <-holder; code != http.StatusGatewayTimeout {
				t.Errorf("request outlived by its extraction: %d, want 504", code)
			}
		})
		close(gate)
		if n != 0 {
			t.Errorf("%d shed or timed-out responses stored", n)
		}
	})

	t.Run("POST", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{})
		digest := residentDigest(t, srv, enc)
		n := stored(t, srv, func() {
			for i := 0; i < 2; i++ {
				if rec := serveIn(srv, "POST", "/v1/traces/"+digest+"/query", `{"select":"steps","limit":5}`, true); rec.Code != http.StatusOK {
					t.Errorf("POST /query: %d", rec.Code)
				}
				if rec := serveIn(srv, "POST", "/v1/traces/"+digest+"/lod", `{"resolution":8}`, true); rec.Code != http.StatusOK {
					t.Errorf("POST /lod: %d", rec.Code)
				}
			}
		})
		if n != 0 {
			t.Errorf("%d POST responses stored", n)
		}
	})

	t.Run("not resident", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{DataDir: t.TempDir(), MaxMemEntries: -1})
		if rec := serveIn(srv, "POST", "/v1/traces", string(enc), false); rec.Code != http.StatusCreated {
			t.Fatalf("upload: %d", rec.Code)
		}
		n := stored(t, srv, func() {
			for _, path := range storedGets {
				for i := 0; i < 2; i++ {
					if rec := serveIn(srv, "GET", "/v1/traces/"+tracefile.DigestBytes(enc)+path, "", true); rec.Code != http.StatusOK {
						t.Errorf("GET %s: %d", path, rec.Code)
					}
				}
			}
		})
		if n != 0 {
			t.Errorf("%d responses stored with no resident entry", n)
		}
	})
}

// TestRenderErrorIsNotStored: a render that jsonw.Close reports failed is
// not stored, even with every byte it wrote delivered and the request live —
// here a NaN after the first flush, which no route produces today, cuts a
// 200 short.
func TestRenderErrorIsNotStored(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	digest := residentDigest(t, srv, jacobiScaled(t, 4, 40))
	opt := core.DefaultOptions()
	req := httptest.NewRequest("GET", "/v1/traces/"+digest+"/steps?nan=1", nil)
	rec := httptest.NewRecorder()
	g := &gzipResponseWriter{ResponseWriter: rec, passthrough: true}
	if srv.serveStored(g, req, digest, opt.Fingerprint(), `"etag"`) {
		t.Fatal("answered from a stored response")
	}
	srv.render(g, req, digest, opt, func(jw *jsonw.Writer) {
		jw.Key("pad").Str(strings.Repeat("x", 40<<10))
		jw.Key("next").Int(1) // flushes the pad
		jw.Key("bad").Float(math.NaN())
	})
	g.Close()
	if rec.Code != http.StatusOK || rec.Body.Len() < 40<<10 {
		t.Fatalf("status %d, %d bytes: the test wants a 200 cut short after its first flush", rec.Code, rec.Body.Len())
	}
	if room := srv.cache.ResponseRoom(digest, opt.Fingerprint(), req.URL.Path+` "etag" identity`); int64(rec.Body.Len()) > room {
		t.Fatalf("the %d bytes written are over the entry's room, %d: the test wants them within it", rec.Body.Len(), room)
	}
	stores := srv.Registry().Counter("cache.response_stores")
	before := stores.Value()
	g.storeKept(req.Context(), srv.cache)
	if n := stores.Value() - before; n != 0 {
		t.Errorf("a render that failed was stored (%d stores)", n)
	}
}

// TestStoredResponsesLeaveWithTheirEntry: when the entry a response was
// stored with is evicted, cache.response_bytes returns to 0 and the next
// request renders again — the same bytes.
func TestStoredResponsesLeaveWithTheirEntry(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxMemEntries: 1})
	a := residentDigest(t, srv, jacobiScaled(t, 4, 4))
	reg := srv.Registry()
	gauge, hits := reg.Gauge("cache.response_bytes"), reg.Counter("cache.response_hits")
	if gauge.Value() == 0 {
		t.Fatal("the warm-up reads stored nothing")
	}
	first := serveIn(srv, "GET", "/v1/traces/"+a+"/steps?steps=0..1", "", false)
	h := hits.Value()
	if h == 0 {
		t.Fatal("the repeat was not served from the stored response")
	}
	// Reading b evicts a's entry (one entry fits), and a POST on a — which
	// stores nothing — evicts b's with the responses b stored: the one
	// entry left has none.
	b := residentDigest(t, srv, jacobiScaled(t, 4, 5))
	if rec := serveIn(srv, "POST", "/v1/traces/"+b+"/query", `{"select":"steps","limit":5}`, true); rec.Code != http.StatusOK {
		t.Fatalf("POST /query: %d", rec.Code)
	}
	if rec := serveIn(srv, "POST", "/v1/traces/"+a+"/query", `{"select":"steps","limit":5}`, true); rec.Code != http.StatusOK {
		t.Fatalf("POST /query: %d", rec.Code)
	}
	if got := gauge.Value(); got != 0 {
		t.Errorf("cache.response_bytes = %v with only a re-resolved entry resident, want 0", got)
	}
	again := serveIn(srv, "GET", "/v1/traces/"+a+"/steps?steps=0..1", "", false)
	if hits.Value() != h {
		t.Error("a response outlived its entry")
	}
	if diff := sameResponse(first, again); diff != "" {
		t.Errorf("re-rendered response differs from the stored one: %s", diff)
	}
}

// TestConcurrentReadsWhileEvicted: many goroutines read one URL, compressed
// and not, while other requests evict its entry over and over: every answer
// is a 200 with the bytes of the first. Run under -race by make verify.
func TestConcurrentReadsWhileEvicted(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxMemEntries: 1})
	a := residentDigest(t, srv, jacobiScaled(t, 4, 4))
	b := residentDigest(t, srv, jacobiScaled(t, 4, 5))
	url := "/v1/traces/" + a + "/lod?resolution=64"
	want := map[bool]*httptest.ResponseRecorder{}
	for _, gzip := range []bool{true, false} {
		want[gzip] = serveIn(srv, "GET", url, "", gzip)
	}
	const readers, reads = 8, 25
	var wg sync.WaitGroup
	var done atomic.Bool
	wg.Add(1)
	go func() { // the evictor
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			d := b
			if i%2 == 1 {
				d = a
			}
			serveIn(srv, "GET", "/v1/traces/"+d+"/structure?evict=1", "", true)
		}
	}()
	var readersWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(gzip bool) {
			defer readersWG.Done()
			for i := 0; i < reads; i++ {
				if diff := sameResponse(want[gzip], serveIn(srv, "GET", url, "", gzip)); diff != "" {
					t.Errorf("gzip %v: %s", gzip, diff)
					return
				}
			}
		}(r%2 == 0)
	}
	readersWG.Wait()
	done.Store(true)
	wg.Wait()
	if srv.Registry().Counter("cache.evictions").Value() == 0 {
		t.Error("the entry was never evicted")
	}
}

// TestPyramidSharesIndexReport: a resident entry computes the §4 report
// once — its query index reads the structure's shared report, and its LOD
// pyramid is built over that same structure, whose levels read that report
// (lod's TestLevelsReadTheSharedReport).
func TestPyramidSharesIndexReport(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	digest := residentDigest(t, srv, jacobiScaled(t, 4, 4))
	for _, path := range []string{"/lod?resolution=8", "/lod?resolution=256"} {
		if rec := serveIn(srv, "GET", "/v1/traces/"+digest+path, "", true); rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
	}
	opt := core.DefaultOptions()
	_, iv, ok := srv.cache.LookupIndexed(digest, opt)
	if !ok {
		t.Fatal("entry not resident")
	}
	_, pv, _ := srv.cache.LookupAux(digest, opt)
	idx, pyr := iv.(*query.Index), pv.(*lod.Pyramid)
	if pyr.S != idx.S {
		t.Fatal("the pyramid and the index were built over different structures")
	}
	if rep := metrics.Shared(idx.S); rep != idx.Report {
		t.Errorf("the structure's shared report is %p, the index reads %p", rep, idx.Report)
	}
}
