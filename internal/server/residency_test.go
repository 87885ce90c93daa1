package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"charmtrace/internal/conformance"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// readReq is one read of a digest-scoped route.
type readReq struct {
	pattern      string // the DigestRoutes row it exercises
	method, path string
	body         string
}

// readRequests lists reads of every DigestRoutes row for one trace: the GET
// and POST forms, the legacy ?phase= / ?steps= / ?chare= retrofits, both
// presets, the /lod render and diff overlays. other is a second digest for
// the overlays.
func readRequests(digest, other string) []readReq {
	base := "/v1/traces/" + digest
	var out []readReq
	get := func(pattern, suffix string) {
		out = append(out, readReq{pattern: pattern, method: "GET", path: base + suffix})
	}
	post := func(pattern, suffix, body string) {
		out = append(out, readReq{pattern: pattern, method: "POST", path: base + suffix, body: body})
	}
	get("GET /v1/traces/{digest}", "")
	for _, preset := range []string{"", "preset=mp"} {
		q := func(params string) string {
			if p := strings.Trim(params+"&"+preset, "&"); p != "" {
				return "?" + p
			}
			return ""
		}
		get("GET /v1/traces/{digest}/structure", "/structure"+q(""))
		get("GET /v1/traces/{digest}/structure", "/structure"+q("phase=0"))
		get("GET /v1/traces/{digest}/steps", "/steps"+q(""))
		get("GET /v1/traces/{digest}/steps", "/steps"+q("chare=1"))
		get("GET /v1/traces/{digest}/steps", "/steps"+q("steps=0..3"))
		get("GET /v1/traces/{digest}/steps", "/steps"+q("phase=0&chares=0,1&limit=5"))
		get("GET /v1/traces/{digest}/metrics", "/metrics"+q(""))
		get("GET /v1/traces/{digest}/metrics", "/metrics"+q("steps=1..4"))
		get("GET /v1/traces/{digest}/metrics", "/metrics"+q("group_by=chare&aggs=sum,max,count"))
		for _, spec := range []string{
			`{"select":"steps","filter":{"steps":{"from":0,"to":2}},"limit":7}`,
			`{"select":"metrics","group_by":"phase"}`,
			`{"select":"metrics","filter":{"chares":[0]},"group_by":"chare"}`,
			`{"select":"structure"}`,
			`{"select":"viz","filter":{"steps":{"from":0,"to":6}}}`,
		} {
			post("POST /v1/traces/{digest}/query", "/query"+q(""), spec)
		}
		get("GET /v1/traces/{digest}/lod", "/lod"+q(""))
		get("GET /v1/traces/{digest}/lod", "/lod"+q("render=true&max_rows=4"))
		get("GET /v1/traces/{digest}/lod", "/lod"+q("resolution=4&steps=0..5&edges=false&max_rows=3"))
		get("GET /v1/traces/{digest}/lod", "/lod"+q("diff="+other))
		post("POST /v1/traces/{digest}/lod", "/lod"+q(""), `{"resolution":"native","steps":{"from":1,"to":9},"render":true}`)
		post("POST /v1/traces/{digest}/lod", "/lod"+q(""), `{"resolution":8,"diff":"`+other+`"}`)
	}
	return out
}

// answer is what a read returned: status, validator, body.
type answer struct {
	code int
	etag string
	body []byte
}

func (r readReq) do(t *testing.T, ts *httptest.Server) answer {
	t.Helper()
	req, err := http.NewRequest(r.method, ts.URL+r.path, strings.NewReader(r.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{resp.StatusCode, resp.Header.Get("ETag"), body}
}

func encodeZoo(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	for _, w := range conformance.Zoo() {
		var buf bytes.Buffer
		if err := tracefile.WriteBinary(&buf, w.MustGen()); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestReadPathNeverDecodesTrace pins the read path to the table: once a
// trace's results and table are on disk, a restarted server answers every
// digest-scoped route — and /v1/structdiff — with the .trace files gone,
// byte for byte and ETag for ETag what the first server answered, without
// decoding a trace or extracting anything.
func TestReadPathNeverDecodesTrace(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir, MaxMemEntries: 4})
	var digests []string
	// The zoo, led by a second seed of its first member (jacobi) so that
	// one pair of traces has the same chares and a real diff.
	for _, enc := range append([][]byte{encodedJacobi(t, 7)}, encodeZoo(t)...) {
		digests = append(digests, upload(t, ts, enc))
	}
	covered := map[string]bool{}
	var reqs []readReq
	for i, d := range digests {
		rs := readRequests(d, digests[(i+1)%len(digests)])
		if i > 1 {
			rs = rs[:len(rs)/2] // the second preset on two traces is enough
		}
		reqs = append(reqs, rs...)
	}
	for _, q := range []string{"a=" + digests[0] + "&b=" + digests[1], "a=" + digests[1] + "&b=" + digests[0] + "&preset=mp"} {
		reqs = append(reqs, readReq{pattern: "structdiff", method: "GET", path: "/v1/structdiff?" + q})
	}
	want := make([]answer, len(reqs))
	diffs := 0
	for i, r := range reqs {
		covered[r.pattern] = true
		want[i] = r.do(t, ts)
		isDiff := strings.Contains(r.path+r.body, "diff")
		if isDiff && want[i].code == http.StatusOK {
			diffs++
		}
		// Unlike chare populations make a diff a 400, before and after alike.
		if want[i].code != http.StatusOK && !(want[i].code == http.StatusBadRequest && isDiff) {
			t.Fatalf("%s %s %s: status %d: %s", r.method, r.path, r.body, want[i].code, want[i].body)
		}
	}
	if diffs < 6 {
		t.Fatalf("only %d diff reads answered 200", diffs)
	}
	for _, rt := range DigestRoutes {
		if !covered[rt.Pattern] {
			t.Errorf("route %q is not exercised: add it to readRequests", rt.Pattern)
		}
	}
	ts.Close()

	traces, _ := filepath.Glob(filepath.Join(dir, "traces", "*.trace"))
	if len(traces) != len(digests) {
		t.Fatalf("%d .trace files for %d uploads", len(traces), len(digests))
	}
	srv2, ts2 := newTestServer(t, Config{DataDir: dir, MaxMemEntries: 4})
	for _, p := range traces {
		// Renamed after start-up so the server still knows the digests.
		if err := os.Rename(p, p+".away"); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range reqs {
		got := r.do(t, ts2)
		if got.code != want[i].code || got.etag != want[i].etag || !bytes.Equal(got.body, want[i].body) {
			t.Errorf("%s %s %s: answer changed with the trace file gone (status %d → %d, etag %q → %q, %d → %d bytes)\n%s",
				r.method, r.path, r.body, want[i].code, got.code, want[i].etag, got.etag, len(want[i].body), len(got.body), got.body)
		}
	}
	reg := srv2.Registry()
	for _, name := range []string{"server.trace_decodes", "server.table_builds", "server.table_errors", "cache.misses"} {
		if v := reg.Counter(name).Value(); v != 0 {
			t.Errorf("%s = %d after a walk that should need no trace, want 0", name, v)
		}
	}
	if v := reg.Counter("server.table_disk_loads").Value(); v == 0 {
		t.Error("server.table_disk_loads = 0: the walk did not run on persisted tables")
	}
}

// TestTraceResidencyIsBounded: after more traces than the cache holds have
// each been uploaded and read, no decoded trace survives a collection and
// at most MaxMemEntries tables do — residency follows what the cache needs,
// not what the server has seen. Without a data directory the entry's strong
// reference is the only copy, and it stays.
func TestTraceResidencyIsBounded(t *testing.T) {
	const memEntries = 3
	zoo := encodeZoo(t)
	if len(zoo) <= memEntries {
		t.Fatalf("zoo of %d cannot overflow %d entries", len(zoo), memEntries)
	}
	srv, ts := newTestServer(t, Config{DataDir: t.TempDir(), MaxMemEntries: memEntries})
	for _, enc := range zoo {
		mustGet(t, ts, "/v1/traces/"+upload(t, ts, enc)+"/lod?resolution=8")
	}
	runtime.GC()
	runtime.GC() // weak pointers to objects found dead in one cycle clear by the next
	mustGet(t, ts, "/debug/stats")
	traces, _, tables := srv.residency()
	if g := srv.Registry().Gauge("server.traces_decoded").Value(); traces != 0 || g != 0 {
		t.Errorf("%d decoded traces resident after GC (gauge %v), want 0", traces, g)
	}
	if tables > memEntries {
		t.Errorf("%d tables resident, want at most MaxMemEntries = %d", tables, memEntries)
	}
	if g := srv.Registry().Gauge("cache.table_bytes").Value(); g <= 0 {
		t.Errorf("cache.table_bytes = %v with %d resident entries", g, memEntries)
	}

	mem, tsMem := newTestServer(t, Config{MaxMemEntries: memEntries})
	for _, enc := range zoo {
		upload(t, tsMem, enc)
	}
	runtime.GC()
	runtime.GC()
	traces, bytes, _ := mem.residency()
	if traces != len(zoo) || bytes == 0 {
		t.Errorf("memory-only server holds %d decoded traces (%d bytes), want all %d", traces, bytes, len(zoo))
	}
	if got := mem.Registry().Gauge("server.trace_resident_bytes").Value(); got != float64(bytes) {
		t.Errorf("server.trace_resident_bytes = %v, want %d", got, bytes)
	}
}

// TestTableFileSelfHeals: a .tbl that is missing, truncated, bit-flipped or
// of another version is rebuilt from the trace, counted, rewritten — and
// the response bytes never change.
func TestTableFileSelfHeals(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	digest := upload(t, ts, encodedJacobi(t, 0))
	paths := []string{"/v1/traces/" + digest + "/steps", "/v1/traces/" + digest + "/lod", "/v1/traces/" + digest}
	var want [][]byte
	for _, p := range paths {
		want = append(want, mustGet(t, ts, p))
	}
	ts.Close()
	tbl := filepath.Join(dir, "traces", digest+".tbl")
	good, err := os.ReadFile(tbl)
	if err != nil {
		t.Fatalf("no table was persisted beside the trace: %v", err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x10
	version := append([]byte(nil), good...)
	version[4] = 4 // zig-zag 2; the checksum now fails too, as on any torn write
	for name, damaged := range map[string][]byte{
		"missing": nil, "truncated": good[:len(good)/3], "bit flip": flipped, "version": version, "empty": {},
	} {
		t.Run(name, func(t *testing.T) {
			if damaged == nil {
				err = os.Remove(tbl)
			} else {
				err = os.WriteFile(tbl, damaged, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			srv, ts := newTestServer(t, Config{DataDir: dir})
			for i, p := range paths {
				if got := mustGet(t, ts, p); !bytes.Equal(got, want[i]) {
					t.Errorf("%s differs after the table was rebuilt", p)
				}
			}
			reg := srv.Registry()
			wantErrors := int64(1)
			if damaged == nil {
				wantErrors = 0 // a table that was never written is not an error
			}
			if b, d, e := reg.Counter("server.table_builds").Value(), reg.Counter("server.trace_decodes").Value(),
				reg.Counter("server.table_errors").Value(); b != 1 || d != 1 || e != wantErrors {
				t.Errorf("table_builds %d, trace_decodes %d, table_errors %d; want 1, 1, %d", b, d, e, wantErrors)
			}
			if healed, err := os.ReadFile(tbl); err != nil || !bytes.Equal(healed, good) {
				t.Errorf("table file was not rewritten to its original bytes (err %v)", err)
			}
		})
	}
}

// TestTraceLoadErrorIsNotCached: a trace file that cannot be read fails the
// request that needed it and nothing else — once the file is back the same
// digest answers 200 with the bytes it always had. (The entry used to latch
// its first load error under a sync.Once until the process died.)
func TestTraceLoadErrorIsNotCached(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	digest := upload(t, ts, encodedJacobi(t, 0))
	path := "/v1/traces/" + digest + "/steps"
	want := mustGet(t, ts, path)
	ts.Close()

	// A restarted server must decode the trace for an option set it has no
	// result for, and for the default one too once the table is gone.
	srv, ts2 := newTestServer(t, Config{DataDir: dir})
	file := filepath.Join(dir, "traces", digest+".trace")
	if err := os.Rename(file, file+".away"); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "traces", digest+".tbl")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, path + "?preset=mp"} {
		if code, body := get(t, ts2, p); code != http.StatusInternalServerError {
			t.Fatalf("%s with the trace file unreadable: status %d: %s", p, code, body)
		}
	}
	if err := os.Rename(file+".away", file); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, ts2, path); !bytes.Equal(got, want) {
		t.Error("response differs after the trace file came back")
	}
	mustGet(t, ts2, path+"?preset=mp")
	if d := srv.Registry().Counter("server.trace_decodes").Value(); d < 1 {
		t.Errorf("server.trace_decodes = %d after recovering", d)
	}
	// And a re-upload alone repairs a digest whose file is gone.
	if err := os.Remove(file); err != nil {
		t.Fatal(err)
	}
	if got := upload(t, ts2, encodedJacobi(t, 0)); got != digest {
		t.Fatalf("re-upload digests to %s", got)
	}
	mustGet(t, ts2, path+"?reorder=false")
	if _, err := os.Stat(file); err != nil {
		t.Errorf("re-upload did not restore the trace file: %v", err)
	}
}

// TestConcurrentLoadsOfOneTrace: requests under several option sets reach a
// restarted server at once, with the table gone — one entry lock, so they
// share the decode and the rebuild instead of racing them (run under -race
// by make verify).
func TestConcurrentLoadsOfOneTrace(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	digest := upload(t, ts, encodedJacobi(t, 0))
	want := mustGet(t, ts, "/v1/traces/"+digest+"/steps")
	ts.Close()
	if err := os.Remove(filepath.Join(dir, "traces", digest+".tbl")); err != nil {
		t.Fatal(err)
	}
	srv, ts2 := newTestServer(t, Config{DataDir: dir})
	params := []string{"", "?preset=mp", "?reorder=false", "?infer=false"}
	var wg sync.WaitGroup
	for i := 0; i < 3*len(params); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, path := range []string{"/v1/traces/" + digest + "/steps" + params[i%len(params)], "/metrics"} {
				resp, err := http.Get(ts2.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || (path == "/v1/traces/"+digest+"/steps" && !bytes.Equal(body, want)) {
					t.Errorf("concurrent read %d of %s: status %d, %d bytes", i, path, resp.StatusCode, len(body))
				}
			}
		}()
	}
	wg.Wait()
	reg := srv.Registry()
	if d, b := reg.Counter("server.trace_decodes").Value(), reg.Counter("server.table_builds").Value(); d < 1 || d > int64(len(params)) || b != d {
		t.Errorf("%d trace decodes and %d table builds for %d option sets of one trace", d, b, len(params))
	}
}

// TestPhaselessDiskEntryReextracts: a .cstr on disk whose event 0 was left
// without a phase — bytes the decoder once admitted and lod.Build then
// indexed a table at -1 with, inside the entry's sync.Once — is refused like
// any corrupt entry: counted, re-extracted, and /lod answers the bytes it
// always did.
func TestPhaselessDiskEntryReextracts(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	enc := encodedJacobi(t, 0)
	path := "/v1/traces/" + upload(t, ts, enc) + "/lod"
	want := mustGet(t, ts, path)
	ts.Close()

	entries, err := filepath.Glob(filepath.Join(dir, "results", "*.cstr"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want one result on disk, found %v (err %v)", entries, err)
	}
	tr, err := tracefile.ReadBinary(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := core.DecodeStructure(bytes.NewReader(good), tr)
	if err != nil {
		t.Fatal(err)
	}
	ph := &s.Phases[s.PhaseOf[0]]
	ph.Events = slices.DeleteFunc(ph.Events, func(e trace.EventID) bool { return e == 0 })
	s.PhaseOf[0], s.LocalStep[0], s.Step[0] = -1, -1, -1
	var crafted bytes.Buffer
	if err := core.EncodeStructure(&crafted, s); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], crafted.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{DataDir: dir})
	for i := 0; i < 2; i++ {
		if got := mustGet(t, ts, path); !bytes.Equal(got, want) {
			t.Errorf("/lod read %d differs after the phaseless entry was replaced", i)
		}
	}
	if e := srv.Registry().Counter("cache.disk_errors").Value(); e != 1 {
		t.Errorf("cache.disk_errors = %d, want 1", e)
	}
	if healed, err := os.ReadFile(entries[0]); err != nil || !bytes.Equal(healed, good) {
		t.Errorf("the entry was not rewritten to its original bytes (err %v)", err)
	}
}
