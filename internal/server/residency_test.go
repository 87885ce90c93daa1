package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"charmtrace/internal/conformance"
	"charmtrace/internal/core"
	"charmtrace/internal/resultcache"
	"charmtrace/internal/store"
	"charmtrace/internal/telemetry"
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

// openStore opens the store of a data directory as another process would:
// to read or append sections while no server runs over it, or to
// damage bytes in place while one does.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// withoutTable leaves digest's file holding its trace and its default-preset
// result but no table, as a table append that failed beside a result append
// that succeeded leaves it: the file is written again from the trace bytes
// through a spool, and the result is appended to it.
func withoutTable(t *testing.T, dir, digest string, enc []byte) {
	t.Helper()
	st, key := openStore(t, dir), resultcache.KeyID(digest, core.DefaultOptions().Fingerprint())
	result, err := st.Read(digest, store.Result, key)
	if err != nil {
		t.Fatalf("want the result on disk: %v", err)
	}
	if err := os.Remove(st.Path(digest)); err != nil {
		t.Fatal(err)
	}
	sp, err := st.Spool()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write(enc); err != nil {
		t.Fatal(err)
	}
	if err := sp.Publish(digest); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(digest, store.Result, key, result); err != nil {
		t.Fatal(err)
	}
	if st.Has(digest, store.Table, "") {
		t.Fatal("the rewritten file has a table")
	}
}

// flipStored flips one byte in the middle of the last copy of payload in
// digest's file, in place, so that reading that section fails its checksum.
func flipStored(t *testing.T, st *store.Store, digest string, payload []byte) {
	t.Helper()
	f, err := os.OpenFile(st.Path(digest), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.LastIndex(data, payload)
	if at < 0 || len(payload) == 0 {
		t.Fatalf("%s holds no such payload", digest)
	}
	at += len(payload) / 2
	if _, err := f.WriteAt([]byte{data[at] ^ 0x10}, int64(at)); err != nil {
		t.Fatal(err)
	}
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
// digest-scoped route — and /v1/structdiff — with every trace section
// unreadable, byte for byte and ETag for ETag what the first server
// answered, without decoding a trace or extracting anything.
func TestReadPathNeverDecodesTrace(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir, MaxMemEntries: 4})
	var digests []string
	// The zoo, led by a second seed of its first member (jacobi) so that
	// one pair of traces has the same chares and a real diff.
	encs := append([][]byte{encodedJacobi(t, 7)}, encodeZoo(t)...)
	for _, enc := range encs {
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

	st := openStore(t, dir)
	if traces := st.Traces(); len(traces) != len(digests) {
		t.Fatalf("%d stored traces for %d uploads", len(traces), len(digests))
	}
	srv2, ts2 := newTestServer(t, Config{DataDir: dir, MaxMemEntries: 4})
	for i, d := range digests {
		// Damaged after start-up so the server still knows the digests.
		flipStored(t, st, d, encs[i])
	}
	for i, r := range reqs {
		got := r.do(t, ts2)
		if got.code != want[i].code || got.etag != want[i].etag || !bytes.Equal(got.body, want[i].body) {
			t.Errorf("%s %s %s: answer changed with the trace unreadable (status %d → %d, etag %q → %q, %d → %d bytes)\n%s",
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
// not what the server has seen.
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
}

// TestTraceResidencyGauges: while an extraction holds the upload's decoded
// trace, /debug/stats reports that one trace and its Bytes(); once the
// extraction is done and a collection has run, both gauges read 0.
func TestTraceResidencyGauges(t *testing.T) {
	held, release := make(chan int64, 1), make(chan struct{})
	cfg := Config{DataDir: t.TempDir()}
	cfg.extract = func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
		held <- tr.Bytes()
		<-release
		return core.Extract(tr, opt)
	}
	_, ts := newTestServer(t, cfg)
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free() // a failed assertion must not leave the handler blocked
	digest := upload(t, ts, encodedJacobi(t, 0))
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/traces/" + digest + "/structure")
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	gauges := func() (decoded, resident float64) {
		t.Helper()
		stats, err := telemetry.ReadStats(bytes.NewReader(mustGet(t, ts, "/debug/stats")))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Gauges["server.traces_decoded"], stats.Gauges["server.trace_resident_bytes"]
	}
	want := <-held
	if decoded, resident := gauges(); decoded != 1 || resident != float64(want) {
		t.Errorf("during the extraction: traces_decoded %v, trace_resident_bytes %v; want 1 and %d", decoded, resident, want)
	}
	free()
	<-done
	runtime.GC()
	runtime.GC() // weak pointers to objects found dead in one cycle clear by the next
	if decoded, resident := gauges(); decoded != 0 || resident != 0 {
		t.Errorf("after the extraction and GC: traces_decoded %v, trace_resident_bytes %v; want 0 and 0", decoded, resident)
	}
}

// TestTableFileSelfHeals: a table section that is missing, truncated,
// bit-flipped in place or of another version is rebuilt from the trace,
// counted, appended again — and the response bytes never change.
func TestTableFileSelfHeals(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	enc := encodedJacobi(t, 0)
	digest := upload(t, ts, enc)
	paths := []string{"/v1/traces/" + digest + "/steps", "/v1/traces/" + digest + "/lod", "/v1/traces/" + digest}
	var want [][]byte
	for _, p := range paths {
		want = append(want, mustGet(t, ts, p))
	}
	ts.Close()
	good, err := openStore(t, dir).Read(digest, store.Table, "")
	if err != nil {
		t.Fatalf("no table was persisted with the trace: %v", err)
	}
	version := append([]byte(nil), good...)
	version[4] = 4 // zig-zag 2; the table's own checksum now fails too
	for name, damaged := range map[string][]byte{
		"missing": nil, "truncated": good[:len(good)/3], "bit flip": good, "version": version, "empty": {},
	} {
		t.Run(name, func(t *testing.T) {
			st := openStore(t, dir)
			switch name {
			case "missing":
				withoutTable(t, dir, digest, enc)
			case "bit flip":
				flipStored(t, st, digest, good)
			default:
				if err := st.Append(digest, store.Table, "", damaged); err != nil {
					t.Fatal(err)
				}
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
			if h := reg.Counter("cache.disk_hits").Value(); h < 1 {
				t.Error("the result section was not decoded against the rebuilt table")
			}
			if healed, err := openStore(t, dir).Read(digest, store.Table, ""); err != nil || !bytes.Equal(healed, good) {
				t.Errorf("the table section was not appended again with its original bytes (err %v)", err)
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
	enc := encodedJacobi(t, 0)
	digest := upload(t, ts, enc)
	path := "/v1/traces/" + digest + "/steps"
	want := mustGet(t, ts, path)
	ts.Close()

	// A restarted server must decode the trace for an option set it has no
	// result for, and for the default one too once the table is gone.
	withoutTable(t, dir, digest, enc)
	srv, ts2 := newTestServer(t, Config{DataDir: dir})
	file := srv.cache.Store().Path(digest)
	if err := os.Rename(file, file+".away"); err != nil {
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
	enc := encodedJacobi(t, 0)
	digest := upload(t, ts, enc)
	want := mustGet(t, ts, "/v1/traces/"+digest+"/steps")
	ts.Close()
	withoutTable(t, dir, digest, enc)
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

// TestPhaselessDiskEntryReextracts: a result on disk whose event 0 was left
// without a phase — bytes the decoder once admitted and lod.Build then
// indexed a table at -1 with, inside the entry's sync.Once — is refused like
// any corrupt entry: counted, re-extracted, and /lod answers the bytes it
// always did.
func TestPhaselessDiskEntryReextracts(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	enc := encodedJacobi(t, 0)
	digest := upload(t, ts, enc)
	path := "/v1/traces/" + digest + "/lod"
	want := mustGet(t, ts, path)
	ts.Close()

	st, key := openStore(t, dir), resultcache.KeyID(digest, core.DefaultOptions().Fingerprint())
	good, err := st.Read(digest, store.Result, key)
	if err != nil {
		t.Fatalf("want the result on disk: %v", err)
	}
	tr, err := tracefile.ReadBinary(bytes.NewReader(enc))
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
	if err := st.Append(digest, store.Result, key, crafted.Bytes()); err != nil {
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
	if healed, err := openStore(t, dir).Read(digest, store.Result, key); err != nil || !bytes.Equal(healed, good) {
		t.Errorf("the entry was not appended again with its original bytes (err %v)", err)
	}
}

// TestOutOfRangeLeapDiskEntryReextracts: a result on disk whose phase table
// holds a leap past the last phase is refused by /structure's summary read
// as by the full decode behind every other route — once the streaming
// summary answered it, rendering the bogus leap, while /steps, /lod and
// /query re-extracted. It is counted, re-extracted, and /structure answers
// what a fresh server does.
func TestOutOfRangeLeapDiskEntryReextracts(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{DataDir: dir})
	enc := encodedJacobi(t, 0)
	digest := upload(t, ts, enc)
	path := "/v1/traces/" + digest + "/structure"
	want := mustGet(t, ts, path)
	ts.Close()

	st, key := openStore(t, dir), resultcache.KeyID(digest, core.DefaultOptions().Fingerprint())
	good, err := st.Read(digest, store.Result, key)
	if err != nil {
		t.Fatalf("want the result on disk: %v", err)
	}
	tr, err := tracefile.ReadBinary(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := core.DecodeStructure(bytes.NewReader(good), tr)
	if err != nil {
		t.Fatal(err)
	}
	s.Phases[0].Leap = int32(len(s.Phases))
	var crafted bytes.Buffer
	if err := core.EncodeStructure(&crafted, s); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(digest, store.Result, key, crafted.Bytes()); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{DataDir: dir})
	for i := 0; i < 2; i++ {
		if got := mustGet(t, ts, path); !bytes.Equal(got, want) {
			t.Errorf("/structure read %d differs after the entry's leap was put out of range:\n%s", i, got)
		}
	}
	if e := srv.Registry().Counter("cache.disk_errors").Value(); e == 0 {
		t.Error("cache.disk_errors = 0: the out-of-range entry was not refused")
	}
	if healed, err := openStore(t, dir).Read(digest, store.Result, key); err != nil || !bytes.Equal(healed, good) {
		t.Errorf("the entry was not appended again with its original bytes (err %v)", err)
	}
}
