package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// storedPosts are the POST analysis requests whose responses are stored:
// /query with every select kind — /structure's phase table, a filtered
// steps window, grouped and projected metrics, the viz rows — and the
// second page of a paged spec (%s is the first page's cursor), and /lod at
// the default and one other shape.
var storedPosts = []struct{ path, body string }{
	{"/query", `{"select":"structure"}`},
	{"/query", `{"select":"steps","filter":{"chares":[0,1],"steps":{"from":0,"to":8}}}`},
	{"/query", `{"select":"metrics","group_by":"chare","aggregates":["sum","max"]}`},
	{"/query", `{"select":"metrics","fields":["event","imbalance"],"limit":4}`},
	{"/query", `{"select":"viz","filter":{"steps":{"from":0,"to":8}}}`},
	{"/query", `{"select":"steps","limit":3,"cursor":"%s"}`},
	{"/lod", `{}`},
	{"/lod", `{"resolution":256,"steps":{"from":0,"to":8},"max_rows":16,"max_edges":4}`},
}

// firstCursor is the next_cursor of the first page of storedPosts' paged
// spec on one trace.
func firstCursor(t *testing.T, srv *Server, base string) string {
	t.Helper()
	rec := serveIn(srv, "POST", base+"/query", `{"select":"steps","limit":3}`, false)
	var page struct {
		NextCursor string `json:"next_cursor"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); rec.Code != http.StatusOK || err != nil || page.NextCursor == "" {
		t.Fatalf("first page: %d %s", rec.Code, rec.Body)
	}
	return page.NextCursor
}

// TestStoredResponsesAreByteIdentical: on each of the nine zoo traces,
// compressed and not, every GET analysis route and every POST /query and
// /lod spec answers its repeat from the stored response — one store on the
// first request, one hit on the second — with the status, entity headers
// and body bytes of the response that was rendered, and a POST with no
// ETag. A response is refused only when it does not fit the room its entry
// has left (its bound is the entry's own bytes, and a small zoo entry
// fills it); its repeat renders again, the same bytes. Every request is
// stored, in both codings, on some trace — but for the uncompressed full
// /steps, which is 1.9 to 2.4 times its entry's bytes on the zoo traces.
//
// One entry fits in memory, so moving to the next trace evicts the last
// one's entry and spills its stored responses into its trace's file. Once
// the last entry is evicted too, every stored response is repeated again:
// each is served from its spilled section (X-Charmd-Cache disk), with the
// status, entity headers and body bytes of the response that was rendered.
func TestStoredResponsesAreByteIdentical(t *testing.T) {
	type request struct{ method, path, body string }
	var gets, posts []request
	for _, path := range storedGets {
		gets = append(gets, request{"GET", path, ""})
	}
	for _, p := range storedPosts {
		posts = append(posts, request{"POST", p.path, p.body})
	}
	name := func(rq request) string { return strings.TrimSpace(rq.method + " " + rq.path + " " + rq.body) }
	zoo := encodeZoo(t)
	fp := core.DefaultOptions().Fingerprint()
	// The GETs and the POSTs each get a server of their own, so that each
	// gets the room of a fresh entry on every trace.
	for _, requests := range [][]request{gets, posts} {
		srv, err := New(Config{DataDir: t.TempDir(), MaxMemEntries: 1})
		if err != nil {
			t.Fatal(err)
		}
		reg := srv.Registry()
		stores, hits := reg.Counter("cache.response_stores"), reg.Counter("cache.response_hits")
		storedOnce := map[string]bool{}
		type repeat struct {
			method, path, body string
			gzip               bool
			rendered           *httptest.ResponseRecorder
		}
		var repeats []repeat // every stored response, for the pass after eviction
		for i, enc := range zoo {
			if rec := serveIn(srv, "POST", "/v1/traces", string(enc), false); rec.Code != http.StatusCreated {
				t.Fatalf("upload: %d %s", rec.Code, rec.Body)
			}
			digest := tracefile.DigestBytes(enc)
			base := "/v1/traces/" + digest
			cursor := ""
			if requests[0].method == "POST" {
				cursor = firstCursor(t, srv, base)
			}
			// The coding asked first alternates, so that each gets the room
			// of a fresh entry on some traces.
			for _, gzip := range []bool{i%2 == 0, i%2 == 1} {
				coding := map[bool]string{true: "gzip", false: "identity"}[gzip]
				for _, rq := range requests {
					body := strings.Replace(rq.body, "%s", cursor, 1)
					s0, h0 := stores.Value(), hits.Value()
					rendered := serveIn(srv, rq.method, base+rq.path, body, gzip)
					if rendered.Code != http.StatusOK {
						t.Fatalf("%s: %d %s", name(rq), rendered.Code, rendered.Body)
					}
					if hits.Value() != h0 {
						t.Fatalf("%s (%s): the first request was a stored-response hit", name(rq), coding)
					}
					if rq.method == "POST" && rendered.Header().Get("ETag") != "" {
						t.Errorf("%s: a POST answered with an ETag", name(rq))
					}
					want := stores.Value() - s0
					if want == 0 {
						if room := srv.cache.ResponseRoom(digest, fp, "not stored"); int64(rendered.Body.Len()) <= room {
							t.Fatalf("%s (%s, %d bytes): not stored, though its entry has room for %d", name(rq), coding, rendered.Body.Len(), room)
						}
					} else {
						storedOnce[name(rq)+" "+coding] = true
						repeats = append(repeats, repeat{rq.method, base + rq.path, body, gzip, rendered})
					}
					stored := serveIn(srv, rq.method, base+rq.path, body, gzip)
					if hits.Value() != h0+want || stores.Value() != s0+want {
						t.Fatalf("repeat of %s (%s): %d hits, %d stores, want %d and %d", name(rq), coding, hits.Value()-h0, stores.Value()-s0, want, want)
					}
					if diff := sameResponse(rendered, stored); diff != "" {
						t.Errorf("%s (%s): stored response differs from the rendered one: %s", name(rq), coding, diff)
					}
					if c := stored.Header().Get("X-Charmd-Cache"); want == 1 && c != "mem" {
						t.Errorf("%s: stored response says X-Charmd-Cache %q, want mem", name(rq), c)
					}
				}
			}
		}
		for _, rq := range requests {
			for _, coding := range []string{"gzip", "identity"} {
				if !storedOnce[name(rq)+" "+coding] && name(rq)+" "+coding != "GET /steps identity" {
					t.Errorf("%s (%s) was stored on none of the zoo traces", name(rq), coding)
				}
			}
		}
		t.Logf("%s: %d of %d responses stored", requests[0].method, stores.Value(), 2*len(requests)*len(zoo))

		// A read of the first trace under other options evicts the last
		// entry: then every stored response has been spilled, once.
		stored := stores.Value()
		if rec := serveIn(srv, "GET", "/v1/traces/"+tracefile.DigestBytes(zoo[0])+"/structure?infer=false", "", false); rec.Code != http.StatusOK {
			t.Fatalf("evicting read: %d", rec.Code)
		}
		waitSpills(t, srv, stored)
		if got := reg.Counter("cache.response_spills").Value(); got != stored {
			t.Fatalf("%d responses spilled, want the %d stored", got, stored)
		}
		s0 := stores.Value()
		for _, rp := range repeats {
			h0 := hits.Value()
			spilled := serveIn(srv, rp.method, rp.path, rp.body, rp.gzip)
			what := fmt.Sprintf("%s %s %s (gzip %v)", rp.method, rp.path, rp.body, rp.gzip)
			if hits.Value() != h0+1 {
				t.Fatalf("%s: after eviction, not served from its spilled response", what)
			}
			if c := spilled.Header().Get("X-Charmd-Cache"); c != "disk" {
				t.Errorf("%s: spilled response says X-Charmd-Cache %q, want disk", what, c)
			}
			if diff := sameResponse(rp.rendered, spilled); diff != "" {
				t.Errorf("%s: spilled response differs from the rendered one: %s", what, diff)
			}
		}
		if stores.Value() != s0 {
			t.Errorf("serving spilled responses stored %d", stores.Value()-s0)
		}
	}
}

// TestNothingStoredUnlessComplete: only a 200 whose render completed, on a
// resident entry, is stored — not an aborted render (client gone, context
// cancelled, deadline passed), not a 4xx, 429, 5xx or 504, of a GET or a
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

	// An extraction is held at its gate while other requests ask: a second
	// option set is shed (429) and the holder outlives its deadline (504),
	// once with a GET holding the slot and once with a POST.
	t.Run("429 and 504", func(t *testing.T) {
		for _, holder := range []struct{ method, path, body string }{
			{"GET", "/structure", ""},
			{"POST", "/query", `{"select":"steps","limit":5}`},
		} {
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
				code := make(chan int, 1)
				go func() { code <- serveIn(srv, holder.method, base+holder.path, holder.body, true).Code }()
				<-entered
				for _, shed := range []struct{ method, path, body string }{
					{"GET", "/structure?infer=false", ""},
					{"POST", "/query?infer=false", `{"select":"steps","limit":5}`},
					{"POST", "/lod?infer=false", `{"resolution":8}`},
				} {
					if rec := serveIn(srv, shed.method, base+shed.path, shed.body, true); rec.Code != http.StatusTooManyRequests {
						t.Errorf("saturated %s %s: %d, want 429", shed.method, shed.path, rec.Code)
					}
				}
				if c := <-code; c != http.StatusGatewayTimeout {
					t.Errorf("%s %s outlived by its extraction: %d, want 504", holder.method, holder.path, c)
				}
			})
			close(gate)
			if n != 0 {
				t.Errorf("%s holder: %d shed or timed-out responses stored", holder.method, n)
			}
		}
	})

	// A POST's 200 is stored once, keyed by its spec; a POST that fails is
	// not: a bad spec, a cursor minted for another spec, an unknown digest,
	// a body past maxSpecBytes, or a request past its deadline.
	t.Run("POST", func(t *testing.T) {
		srv, _ := newTestServer(t, Config{})
		digest := residentDigest(t, srv, enc)
		base := "/v1/traces/" + digest
		n := stored(t, srv, func() {
			for i := 0; i < 2; i++ {
				if rec := serveIn(srv, "POST", base+"/query", `{"select":"steps","limit":5}`, true); rec.Code != http.StatusOK {
					t.Errorf("POST /query: %d", rec.Code)
				}
				if rec := serveIn(srv, "POST", base+"/lod", `{"resolution":8}`, true); rec.Code != http.StatusOK {
					t.Errorf("POST /lod: %d", rec.Code)
				}
			}
		})
		if n != 2 {
			t.Errorf("%d POST responses stored, want one per spec", n)
		}
		cursor := firstCursor(t, srv, base)
		unknown := "/v1/traces/" + strings.Repeat("0", 64)
		n = stored(t, srv, func() {
			for _, tc := range []struct {
				path, body string
				code       int
			}{
				{base + "/query", `{"select":"bogus"}`, http.StatusBadRequest},
				{base + "/lod", `{"resolution":-1}`, http.StatusBadRequest},
				{base + "/query", `{"select":"metrics","limit":3,"cursor":"` + cursor + `"}`, http.StatusBadRequest},
				{unknown + "/query", `{"select":"steps","limit":5}`, http.StatusNotFound},
				{unknown + "/lod", `{"resolution":8}`, http.StatusNotFound},
				{base + "/query", `{"select":"steps","fields":["` + strings.Repeat("x", maxSpecBytes) + `"]}`, http.StatusBadRequest},
			} {
				for i := 0; i < 2; i++ {
					if rec := serveIn(srv, "POST", tc.path, tc.body, true); rec.Code != tc.code {
						t.Errorf("POST %.90s %.40s: %d, want %d", tc.path, tc.body, rec.Code, tc.code)
					}
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 0)
			defer cancel()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", base+"/query", strings.NewReader(`{"select":"steps","limit":6}`)).WithContext(ctx))
			if rec.Code != http.StatusGatewayTimeout {
				t.Errorf("POST /query past its deadline: %d, want 504", rec.Code)
			}
		})
		if n != 0 {
			t.Errorf("%d failed POST responses stored", n)
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

// waitSpills waits until the server has spilled n responses in all: an
// evicted entry's responses are spilled after the request whose insert
// evicted it has its answer.
func waitSpills(t testing.TB, srv *Server, n int64) {
	t.Helper()
	spills := srv.Registry().Counter("cache.response_spills")
	for deadline := time.Now().Add(10 * time.Second); spills.Value() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d responses spilled, want %d", spills.Value(), n)
		}
	}
}

// TestStoredResponsesOutliveTheirEntry: when the entry a response was
// stored with is evicted, the response leaves memory — cache.response_bytes
// falls to what the one resident entry stored — and is spilled into the
// trace's file, from which its repeat is served: the same bytes and
// headers, X-Charmd-Cache disk, counted as a response hit and a disk hit,
// with no extraction, no table load, no decode of the entry and no view
// built.
func TestStoredResponsesOutliveTheirEntry(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxMemEntries: 1})
	a := residentDigest(t, srv, jacobiScaled(t, 4, 4))
	reg := srv.Registry()
	gauge, hits, stores := reg.Gauge("cache.response_bytes"), reg.Counter("cache.response_hits"), reg.Counter("cache.response_stores")
	if gauge.Value() == 0 {
		t.Fatal("the warm-up reads stored nothing")
	}
	first := serveIn(srv, "GET", "/v1/traces/"+a+"/steps?steps=0..1", "", false)
	h := hits.Value()
	if h == 0 {
		t.Fatal("the repeat was not served from the stored response")
	}
	// Reading b evicts a's entry (one entry fits) and spills what a stored;
	// a POST on b stores one response more, whose gauge step gives the
	// per-response overhead.
	storedByA := stores.Value()
	b := residentDigest(t, srv, jacobiScaled(t, 4, 5))
	waitSpills(t, srv, storedByA)
	spec := `{"select":"steps","limit":5}`
	g0 := gauge.Value()
	postB := serveIn(srv, "POST", "/v1/traces/"+b+"/query", spec, true)
	if postB.Code != http.StatusOK {
		t.Fatalf("POST /query: %d", postB.Code)
	}
	overhead := gauge.Value() - g0 - float64(postB.Body.Len())
	// The same POST on a evicts b's entry and stores its own: the one entry
	// left holds only that one in memory.
	storedInAll := stores.Value()
	postA := serveIn(srv, "POST", "/v1/traces/"+a+"/query", spec, true)
	if postA.Code != http.StatusOK {
		t.Fatalf("POST /query: %d", postA.Code)
	}
	if got, want := gauge.Value(), float64(postA.Body.Len())+overhead; got != want {
		t.Errorf("cache.response_bytes = %v with only a re-resolved entry and its one POST resident, want %v", got, want)
	}
	waitSpills(t, srv, storedInAll)

	// Each spilled response is served from a's and b's files, whether its
	// entry is resident again (a) or not (b).
	work := []string{"cache.misses", "cache.mem_hits", "cache.index_builds", "cache.aux_builds", "server.table_disk_loads", "server.table_builds", "server.trace_decodes"}
	before := map[string]int64{}
	for _, name := range work {
		before[name] = reg.Counter(name).Value()
	}
	diskHits := reg.Counter("cache.disk_hits").Value()
	for _, rq := range []struct {
		method, path, body string
		gzip               bool
		want               *httptest.ResponseRecorder
	}{
		{"GET", "/v1/traces/" + a + "/steps?steps=0..1", "", false, first},
		{"POST", "/v1/traces/" + b + "/query", spec, true, postB},
	} {
		h := hits.Value()
		again := serveIn(srv, rq.method, rq.path, rq.body, rq.gzip)
		if hits.Value() != h+1 {
			t.Errorf("%s %s: not served from the spilled response", rq.method, rq.path)
		}
		if c := again.Header().Get("X-Charmd-Cache"); c != "disk" {
			t.Errorf("%s %s: X-Charmd-Cache %q, want disk", rq.method, rq.path, c)
		}
		if diff := sameResponse(rq.want, again); diff != "" {
			t.Errorf("%s %s: spilled response differs from the rendered one: %s", rq.method, rq.path, diff)
		}
	}
	if got := reg.Counter("cache.disk_hits").Value() - diskHits; got != 2 {
		t.Errorf("%d disk hits for two spilled responses served, want 2", got)
	}
	for _, name := range work {
		if got := reg.Counter(name).Value(); got != before[name] {
			t.Errorf("serving spilled responses moved %s by %d", name, got-before[name])
		}
	}
	if _, ok := srv.cache.Lookup(b, core.DefaultOptions()); ok {
		t.Error("serving b's spilled response made its entry resident")
	}
}

// TestPostStoredBySpec: a POST's stored response is keyed by its decoded
// spec, options and route. Two bodies of one spec that differ in key order
// and whitespace share it — the second is a hit, the same bytes — while a
// different filter, a different option set (?preset=mp) and GET /lod with
// the settings of a POST /lod spec each render their own.
func TestPostStoredBySpec(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	digest := residentDigest(t, srv, jacobiScaled(t, 4, 6))
	base := "/v1/traces/" + digest
	reg := srv.Registry()
	stores, hits := reg.Counter("cache.response_stores"), reg.Counter("cache.response_hits")
	// serve answers one request and reports whether it was a stored hit.
	serve := func(method, path, body string) (*httptest.ResponseRecorder, bool) {
		t.Helper()
		h0 := hits.Value()
		rec := serveIn(srv, method, base+path, body, true)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s %s: %d %s", method, path, body, rec.Code, rec.Body)
		}
		return rec, hits.Value() != h0
	}

	spec := `{"select":"steps","filter":{"chares":[0,1],"steps":{"from":0,"to":6}},"limit":4}`
	respelt := "{\n  \"limit\": 4,\n  \"filter\": { \"steps\": {\"to\":6, \"from\":0}, \"chares\": [0, 1] },\n  \"select\": \"steps\"\n}"
	s0 := stores.Value()
	rendered, hit := serve("POST", "/query", spec)
	if hit || stores.Value() != s0+1 {
		t.Fatalf("first POST: hit %v, %d stores, want a render and one store", hit, stores.Value()-s0)
	}
	stored, hit := serve("POST", "/query", respelt)
	if !hit {
		t.Error("a respelt body of the same spec was not served from its stored response")
	}
	if diff := sameResponse(rendered, stored); diff != "" {
		t.Errorf("respelt body: %s", diff)
	}
	if stores.Value() != s0+1 {
		t.Errorf("%d stores for one spec in two spellings, want 1", stores.Value()-s0)
	}

	for _, other := range []struct{ method, path, body string }{
		{"POST", "/query", `{"select":"steps","filter":{"chares":[0,2],"steps":{"from":0,"to":6}},"limit":4}`},
		{"POST", "/query?preset=mp", spec},
		{"GET", "/lod?resolution=8&max_rows=4", ""},
		{"POST", "/lod", `{"resolution":8,"max_rows":4}`},
	} {
		if _, hit := serve(other.method, other.path, other.body); hit {
			t.Errorf("%s %s %s: served from another request's stored response", other.method, other.path, other.body)
		}
		if _, hit := serve(other.method, other.path, other.body); !hit {
			t.Errorf("%s %s %s: the repeat was not served from its stored response", other.method, other.path, other.body)
		}
	}
}

// TestConcurrentReadsWhileEvicted: many goroutines read one URL, compressed
// and not, while other requests evict its entry over and over: every answer
// is a 200 with the bytes of the first. Run under -race by make verify.
func TestConcurrentReadsWhileEvicted(t *testing.T) {
	readWhileEvicted(t, Config{}, "GET", "/lod?resolution=64", "")
}

// TestConcurrentPostsWhileEvicted is TestConcurrentReadsWhileEvicted for
// one POST /query spec.
func TestConcurrentPostsWhileEvicted(t *testing.T) {
	readWhileEvicted(t, Config{}, "POST", "/query", `{"select":"steps","filter":{"steps":{"from":0,"to":8}},"limit":20}`)
}

// TestConcurrentSpillsAndLookups races the spill of one key against its
// lookups on disk: TestConcurrentReadsWhileEvicted under a one-byte result
// bound, so that each spill is collected at once. The readers' response is
// then rendered, stored with its entry, spilled as the entry is evicted and
// dropped by the disk GC over and over, while the readers look it up in the
// trace's file. Every answer is a 200 with the bytes of the first. Run
// under -race by make verify.
func TestConcurrentSpillsAndLookups(t *testing.T) {
	// The first eviction spills the key in both codings; a render after a
	// GC stores it again, and the next eviction spills it again.
	if n := readWhileEvicted(t, Config{MaxResultBytes: 1}, "GET", "/steps?steps=0..3", ""); n < 2 {
		t.Errorf("%d responses spilled during the race, want the key's two codings at least", n)
	} else {
		t.Logf("%d responses spilled during the race", n)
	}
}

// readWhileEvicted runs the eviction race on a server of configuration cfg
// with one memory entry, and returns how many responses were spilled during
// the race.
func readWhileEvicted(t *testing.T, cfg Config, method, path, body string) int64 {
	cfg.MaxMemEntries = 1
	srv, _ := newTestServer(t, cfg)
	a := residentDigest(t, srv, jacobiScaled(t, 4, 4))
	b := residentDigest(t, srv, jacobiScaled(t, 4, 5))
	url := "/v1/traces/" + a + path
	want := map[bool]*httptest.ResponseRecorder{}
	for _, gzip := range []bool{true, false} {
		want[gzip] = serveIn(srv, method, url, body, gzip)
		if want[gzip].Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, url, want[gzip].Code, want[gzip].Body)
		}
	}
	spills := srv.Registry().Counter("cache.response_spills")
	spilled := spills.Value()
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
				if diff := sameResponse(want[gzip], serveIn(srv, method, url, body, gzip)); diff != "" {
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
	return spills.Value() - spilled
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
