package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/conformance"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// encodedJacobi returns the jacobi proxy trace serialized in the binary
// format (what a client would upload).
func encodedJacobi(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := jacobi.DefaultConfig()
	if seed != 0 {
		cfg.Seed = seed
	}
	var buf bytes.Buffer
	if err := tracefile.WriteBinary(&buf, jacobi.MustTrace(cfg)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func upload(t *testing.T, ts *httptest.Server, body []byte) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Digest string `json:"digest"`
		Events int    `json:"events"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Digest != tracefile.DigestBytes(body) {
		t.Fatalf("upload digest %s != local digest %s", out.Digest, tracefile.DigestBytes(body))
	}
	return out.Digest
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func mustGet(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	code, data := get(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, code, data)
	}
	return data
}

// TestServeByteIdentityAcrossCacheLayersAndRestart is the end-to-end
// acceptance test: the structure (and steps, and metrics) responses are
// byte-identical between a fresh extraction (cache miss), a memory hit, a
// disk hit after a server restart, and a different server extracting at a
// different Parallelism.
func TestServeByteIdentityAcrossCacheLayersAndRestart(t *testing.T) {
	dir := t.TempDir()
	enc := encodedJacobi(t, 0)

	_, ts := newTestServer(t, Config{DataDir: dir, Parallelism: 4})
	digest := upload(t, ts, enc)

	paths := []string{
		"/v1/traces/" + digest + "/structure",
		"/v1/traces/" + digest + "/steps",
		"/v1/traces/" + digest + "/metrics",
	}
	miss := make(map[string][]byte)
	for _, p := range paths {
		miss[p] = mustGet(t, ts, p) // extraction (cache miss)
	}
	for _, p := range paths {
		if hit := mustGet(t, ts, p); !bytes.Equal(hit, miss[p]) {
			t.Errorf("%s: memory-hit response differs from miss response", p)
		}
	}
	ts.Close()

	// Restart: a fresh server over the same data dir. The trace reloads
	// lazily from traces/, the result from the on-disk cache.
	srv2, ts2 := newTestServer(t, Config{DataDir: dir, Parallelism: 2})
	for _, p := range paths {
		if got := mustGet(t, ts2, p); !bytes.Equal(got, miss[p]) {
			t.Errorf("%s: post-restart response differs from original", p)
		}
	}
	if misses := srv2.Registry().Counter("cache.misses").Value(); misses != 0 {
		t.Errorf("restarted server re-extracted (misses = %d), want disk hits only", misses)
	}

	// A completely independent server extracting sequentially produces the
	// same bytes: Parallelism never leaks into responses.
	_, ts3 := newTestServer(t, Config{DataDir: t.TempDir(), Parallelism: 1})
	if d := upload(t, ts3, enc); d != digest {
		t.Fatalf("digest mismatch across servers: %s vs %s", d, digest)
	}
	for _, p := range paths {
		if got := mustGet(t, ts3, p); !bytes.Equal(got, miss[p]) {
			t.Errorf("%s: Parallelism=1 server response differs from Parallelism=4's", p)
		}
	}
}

// TestStructureServedFromDiskSummary: after a restart, a /structure request
// is answered from the disk entry's streaming summary — byte-identical to
// the fresh response, labeled a disk hit, and served without decoding the
// trace or the per-event arrays (the zero-copy serving path). /steps still
// needs per-event data, so it takes the full path.
func TestStructureServedFromDiskSummary(t *testing.T) {
	dir := t.TempDir()
	enc := encodedJacobi(t, 0)
	_, ts := newTestServer(t, Config{DataDir: dir})
	digest := upload(t, ts, enc)
	want := mustGet(t, ts, "/v1/traces/"+digest+"/structure")
	ts.Close()

	srv2, ts2 := newTestServer(t, Config{DataDir: dir})
	resp, err := http.Get(ts2.URL + "/v1/traces/" + digest + "/structure")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("summary-served response differs from fresh extraction's")
	}
	if h := resp.Header.Get("X-Charmd-Cache"); h != "disk" {
		t.Errorf("X-Charmd-Cache = %q, want %q", h, "disk")
	}
	reg := srv2.Registry()
	if hits := reg.Counter("cache.disk_hits").Value(); hits != 1 {
		t.Errorf("disk_hits = %d, want 1", hits)
	}
	if misses := reg.Counter("cache.misses").Value(); misses != 0 {
		t.Errorf("misses = %d, want 0", misses)
	}
	// The summary path needed neither the trace nor its table, which is
	// exactly what makes the first post-restart phase-table read cheap.
	if n := reg.Counter("server.trace_decodes").Value() + reg.Counter("server.table_disk_loads").Value(); n != 0 {
		t.Errorf("summary path loaded the trace or its table (%d loads)", n)
	}

	// /steps needs per-event data: it takes the full path (another disk
	// hit), loads the table — still not the trace — and warms the memory
	// LRU for later /structure requests to hit in memory again.
	mustGet(t, ts2, "/v1/traces/"+digest+"/steps")
	if d, l := reg.Counter("server.trace_decodes").Value(), reg.Counter("server.table_disk_loads").Value(); d != 0 || l != 1 {
		t.Errorf("/steps after restart: %d trace decodes, %d table loads; want 0 and 1", d, l)
	}
	resp2, err := http.Get(ts2.URL + "/v1/traces/" + digest + "/structure")
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if h := resp2.Header.Get("X-Charmd-Cache"); h != "mem" {
		t.Errorf("post-warm X-Charmd-Cache = %q, want %q", h, "mem")
	}
	if !bytes.Equal(got2, want) {
		t.Errorf("memory-served response differs from summary-served one")
	}
}

// TestConcurrentStructureRequestsCoalesce: K parallel requests for one
// uncached trace run the extraction pipeline exactly once, and the serving
// counters and latency histograms show up in /debug/stats.
func TestConcurrentStructureRequestsCoalesce(t *testing.T) {
	srv, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	digest := upload(t, ts, encodedJacobi(t, 0))

	const K = 12
	bodies := make([][]byte, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/traces/" + digest + "/structure")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				bodies[i], _ = io.ReadAll(resp.Body)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < K; i++ {
		if bodies[i] == nil {
			t.Fatalf("request %d failed", i)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs", i)
		}
	}
	reg := srv.Registry()
	if misses := reg.Counter("cache.misses").Value(); misses != 1 {
		t.Errorf("extraction ran %d times for %d concurrent requests, want exactly 1", misses, K)
	}
	served := reg.Counter("cache.hits").Value() + reg.Counter("cache.coalesced").Value() + reg.Counter("cache.misses").Value()
	if served != K {
		t.Errorf("hits+coalesced+misses = %d, want %d", served, K)
	}

	// The run is visible in /debug/stats: versioned schema, cache counters,
	// serving latency histograms.
	stats, err := telemetry.ReadStats(bytes.NewReader(mustGet(t, ts, "/debug/stats")))
	if err != nil {
		t.Fatalf("stats do not parse as StatsExport: %v", err)
	}
	if stats.Tool != "charmd" {
		t.Errorf("stats tool %q, want charmd", stats.Tool)
	}
	if stats.Counters["cache.misses"] != 1 {
		t.Errorf("stats cache.misses = %d, want 1", stats.Counters["cache.misses"])
	}
	if _, ok := stats.Counters["cache.hits"]; !ok {
		t.Error("stats missing cache.hits")
	}
	h, ok := stats.Histograms["server.latency_ms.structure"]
	if !ok || h.Count < K {
		t.Errorf("latency histogram missing or short: %+v", h)
	}
	if stats.Histograms["cache.extract_ms"].Count != 1 {
		t.Errorf("extract_ms histogram count = %d, want 1", stats.Histograms["cache.extract_ms"].Count)
	}
	if len(stats.Stages) == 0 {
		t.Error("stats missing aggregated pipeline stage metrics")
	}
}

// TestErrorMapping: malformed uploads are client errors (400), oversized
// ones 413, unknown digests 404, bad parameters 400 — never 500.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir(), MaxUploadBytes: 1 << 20})

	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	valid := encodedJacobi(t, 0)
	if code := post([]byte("this is not a trace")); code != http.StatusBadRequest {
		t.Errorf("garbage upload: status %d, want 400", code)
	}
	if code := post(valid[:len(valid)/2]); code != http.StatusBadRequest {
		t.Errorf("truncated upload: status %d, want 400", code)
	}
	oversized := append(append([]byte{}, valid...), make([]byte, 2<<20)...)
	if code := post(oversized); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: status %d, want 413", code)
	}

	missing := strings.Repeat("0", 64)
	if code, _ := get(t, ts, "/v1/traces/"+missing+"/structure"); code != http.StatusNotFound {
		t.Errorf("unknown digest: status %d, want 404", code)
	}
	digest := upload(t, ts, valid)
	if code, _ := get(t, ts, "/v1/traces/"+digest+"/structure?preset=nope"); code != http.StatusBadRequest {
		t.Errorf("bad preset: status %d, want 400", code)
	}
	if code, _ := get(t, ts, "/v1/traces/"+digest+"/structure?infer=maybe"); code != http.StatusBadRequest {
		t.Errorf("bad boolean: status %d, want 400", code)
	}
	if code, _ := get(t, ts, "/v1/traces/"+digest+"/steps?chare=9999"); code != http.StatusBadRequest {
		t.Errorf("chare out of range: status %d, want 400", code)
	}
	if code, _ := get(t, ts, "/v1/traces/"+digest+"/steps?chare=3xyz"); code != http.StatusBadRequest {
		t.Errorf("chare with trailing garbage: status %d, want 400", code)
	}
	// Two invalid booleans: the 400 names the first in the fixed parameter
	// order, every time.
	for i := 0; i < 8; i++ {
		code, body := get(t, ts, "/v1/traces/"+digest+"/structure?procorder=x&reorder=y")
		if code != http.StatusBadRequest || !strings.Contains(string(body), `reorder=\"y\"`) {
			t.Fatalf("two bad booleans: status %d body %s, want 400 naming reorder", code, body)
		}
	}
	if code, _ := get(t, ts, "/v1/structdiff?a="+digest); code != http.StatusBadRequest {
		t.Errorf("structdiff missing b: status %d, want 400", code)
	}
}

// TestStructDiffAndList: diffing a trace against itself is equivalent;
// different seeds of the seed-invariant workload also diff equivalent (the
// paper's invariance claim, served over HTTP); the list endpoint reports
// both uploads.
func TestStructDiffAndList(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	d1 := upload(t, ts, encodedJacobi(t, 0))
	d2 := upload(t, ts, encodedJacobi(t, 42))

	var diff struct {
		Equivalent bool   `json:"equivalent"`
		Report     string `json:"report"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/v1/structdiff?a="+d1+"&b="+d1), &diff); err != nil {
		t.Fatal(err)
	}
	if !diff.Equivalent {
		t.Errorf("self-diff not equivalent: %s", diff.Report)
	}
	if err := json.Unmarshal(mustGet(t, ts, "/v1/structdiff?a="+d1+"&b="+d2), &diff); err != nil {
		t.Fatal(err)
	}
	if !diff.Equivalent {
		t.Errorf("seed-invariance diff not equivalent: %s", diff.Report)
	}

	var list struct {
		Traces []struct {
			Digest string `json:"digest"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/v1/traces"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 2 {
		t.Fatalf("list has %d traces, want 2", len(list.Traces))
	}
}

// TestUploadVariants: the same trace as text and binary get distinct
// content addresses (the address is of the bytes), re-uploads dedupe, and
// the options surface changes responses while Parallelism does not.
func TestUploadVariants(t *testing.T) {
	srv, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	tr := jacobi.MustTrace(jacobi.DefaultConfig())
	var bin, txt bytes.Buffer
	if err := tracefile.WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := tracefile.Write(&txt, tr); err != nil {
		t.Fatal(err)
	}
	dBin := upload(t, ts, bin.Bytes())
	dTxt := upload(t, ts, txt.Bytes())
	if dBin == dTxt {
		t.Error("text and binary uploads share a digest")
	}
	if again := upload(t, ts, bin.Bytes()); again != dBin {
		t.Error("re-upload changed the digest")
	}
	if srv.Registry().Counter("server.uploads").Value() != 3 {
		t.Error("upload counter did not count all uploads")
	}

	withInfer := mustGet(t, ts, "/v1/traces/"+dBin+"/structure")
	var resp structureResponse
	if err := json.Unmarshal(withInfer, &resp); err != nil {
		t.Fatal(err)
	}
	if want := core.DefaultOptions().Fingerprint(); resp.Fingerprint != want {
		t.Errorf("fingerprint %q, want %q", resp.Fingerprint, want)
	}
	noInfer := mustGet(t, ts, "/v1/traces/"+dBin+"/structure?infer=false")
	if bytes.Equal(withInfer, noInfer) {
		t.Error("disabling dependency inference did not change the response")
	}
}

// TestHealthz: the liveness endpoint responds.
func TestHealthz(t *testing.T) {
	_, plain := newTestServer(t, Config{DataDir: t.TempDir()})
	if code, _ := get(t, plain, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz status %d", code)
	}
}

// TestFormatMisdetectionUploadsAre400s: the ReadAuto misdetection table
// from the tracefile package, driven end to end through the upload
// endpoint — every sniffing failure must surface as a client error (400),
// never a 500, and a well-formed Projections-format upload must be accepted
// and analyzable like any native-format trace.
func TestFormatMisdetectionUploadsAre400s(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	bin := encodedJacobi(t, 0)
	cases := []struct {
		name string
		body []byte
	}{
		{"empty body", nil},
		{"truncated binary magic", []byte("CTR")},
		{"truncated projections magic", []byte("PROJECTIONS-REC")},
		{"projections header with binary body", append([]byte("PROJECTIONS-RECORD 1\n"), bin...)},
		{"projections bad version", []byte("PROJECTIONS-RECORD 99\n")},
		{"binary magic with text body", append([]byte("CTRB"), []byte("charmtrace 1\n")...)},
	}
	for _, tc := range cases {
		if code := post(tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}

	var proj bytes.Buffer
	if err := tracefile.WriteProjections(&proj, jacobi.MustTrace(jacobi.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
	digest := upload(t, ts, proj.Bytes())
	mustGet(t, ts, "/v1/traces/"+digest+"/structure")
}

// TestOutOfRangePEUploadsAre400s: an event or idle record naming a PE the
// trace's machine does not have used to upload cleanly and then panic the
// handler goroutine in /metrics, /lod and the query-index build (per-PE
// tables indexed by the unchecked value). Each format's way of carrying
// such a record must be refused at upload with a 400 whose reason names the
// range — not a 500, not a dropped connection — and leave the server
// serving.
func TestOutOfRangePEUploadsAre400s(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	binary := func(mutate func(*trace.Trace)) []byte {
		tr := jacobi.MustTrace(jacobi.DefaultConfig())
		mutate(tr)
		var buf bytes.Buffer
		if err := tracefile.WriteBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	const text = "charmtrace 1\npe 2\nentry 0 -1 false e\nchare 0 -1 -1 false 0 c\nblock 0 0 0 0 0 10\n"
	const proj = "PROJECTIONS-RECORD 1\nPROCESSORS 2\nENTRY 0 -1 0 e\nCHARE 0 -1 -1 0 0 c\nEND_STS\n"
	cases := []struct {
		name, reason string
		body         []byte
	}{
		{"binary idle pe", "out of range", binary(func(tr *trace.Trace) { tr.Idles[0].PE = trace.PE(tr.NumPE) })},
		{"binary negative idle pe", "out of range", binary(func(tr *trace.Trace) { tr.Idles[0].PE = -1 })},
		{"binary event pe", "out of range", binary(func(tr *trace.Trace) { tr.Events[0].PE = trace.PE(tr.NumPE) + 40 })},
		{"binary idle span", "before it begins", binary(func(tr *trace.Trace) { tr.Idles[0].End = tr.Idles[0].Begin - 1 })},
		{"binary event time", "time 4611686018427387904 out of range", binary(func(tr *trace.Trace) { tr.Events[0].Time = 1 << 62 })},
		{"binary block span", "out of range (|time| must be below 2^62)", binary(func(tr *trace.Trace) { tr.Blocks[0].Begin = -1 << 62 })},
		{"text idle pe", "out of range", []byte(text + "idle 2 5 10\n")},
		{"text event time", "time 4611686018427387904 out of range", []byte(text + "ev 0 send 4611686018427387904 0 0 3 0\n")},
		{"text event pe", "out of range", []byte(text + "ev 0 send 5 0 9 3 0\n")},
		{"projections log pe", "out of range", []byte(proj + "BEGIN_LOG 2\n14 0\n15 9\nEND_LOG\n")},
		{"projections idle span", "before it begins", []byte(proj + "BEGIN_LOG 0\n14 9\n15 3\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n")},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err) // a dropped connection is a handler panic
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), tc.reason) {
			t.Errorf("%s: status %d body %s, want 400 naming %q", tc.name, resp.StatusCode, data, tc.reason)
		}
	}
	digest := upload(t, ts, encodedJacobi(t, 0))
	mustGet(t, ts, "/v1/traces/"+digest+"/metrics")
	mustGet(t, ts, "/v1/traces/"+digest+"/lod")
}

// TestZooEndToEndMatrix: every conformance-zoo workload — the six paper
// proxies and the three adversarial generators — uploads and analyzes
// through the full charmd stack, and the cache-hit response is
// byte-identical to the extraction response. This keeps the serving layer
// honest on exactly the traces the differential harness certifies.
func TestZooEndToEndMatrix(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir(), Parallelism: 2})
	for _, w := range conformance.Zoo() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tracefile.WriteBinary(&buf, w.MustGen()); err != nil {
				t.Fatal(err)
			}
			digest := upload(t, ts, buf.Bytes())
			path := "/v1/traces/" + digest + "/structure"
			if w.Opts.ProcessOrderDeps {
				path += "?preset=mp"
			}
			miss := mustGet(t, ts, path)
			if hit := mustGet(t, ts, path); !bytes.Equal(hit, miss) {
				t.Error("cache-hit response differs from extraction response")
			}
			st, err := core.Extract(w.MustGen(), w.Opts)
			if err != nil {
				t.Fatal(err)
			}
			got := mustGet(t, ts, strings.Replace(path, "/structure", "/metrics", 1))
			if want := directMetricsBody(digest, w.Opts.Fingerprint(), st); !bytes.Equal(got, want) {
				t.Errorf("/metrics served from the index differs from a direct fold:\n%s\n----\n%s", got, want)
			}
		})
	}
}

// directMetricsBody renders the legacy /metrics response the way the
// handler did before it read the query index: metrics.Compute and a fold
// over every event.
func directMetricsBody(digest, fingerprint string, st *core.Structure) []byte {
	rep := metrics.Compute(st)
	tr := st.Trace
	perChare := make([]chareMetrics, len(tr.Chares))
	for ci := range tr.Chares {
		perChare[ci] = chareMetrics{Chare: int32(ci), Name: tr.Chares[ci].Name}
	}
	for e := range tr.Events {
		cm := &perChare[tr.Events[e].Chare]
		cm.Events++
		cm.IdleExperienced += int64(rep.IdleExperienced[e])
		cm.DifferentialDuration += int64(rep.DifferentialDuration[e])
		cm.Imbalance += int64(rep.Imbalance[e])
	}
	type phaseImbalance struct {
		Phase     int32 `json:"phase"`
		Imbalance int64 `json:"imbalance"`
	}
	resp := struct {
		Digest         string           `json:"digest"`
		Fingerprint    string           `json:"fingerprint"`
		Chares         []chareMetrics   `json:"chares"`
		PhaseImbalance []phaseImbalance `json:"phase_imbalance"`
	}{Digest: digest, Fingerprint: fingerprint, Chares: perChare}
	for p, imb := range rep.PhaseImbalance {
		resp.PhaseImbalance = append(resp.PhaseImbalance, phaseImbalance{Phase: int32(p), Imbalance: int64(imb)})
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, resp)
	return rec.Body.Bytes()
}
