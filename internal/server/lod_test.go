package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/mergetree"
	"charmtrace/internal/lod"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/tracefile"
)

func postLod(t *testing.T, ts *httptest.Server, digest, query, spec string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/traces/"+digest+"/lod"+query, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// TestLodFig10PayloadScale is the subsystem's acceptance test, on the
// paper's Fig. 10 workload at full scale (1,024-process merge tree): a
// resolution=64 LOD response is O(buckets × clusters) — under 1% of the
// byte size of the O(events) /steps payload — and repeat queries serve the
// cached pyramid byte-identically from the memory layer.
func TestLodFig10PayloadScale(t *testing.T) {
	var buf bytes.Buffer
	if err := tracefile.WriteBinary(&buf, mergetree.MustTrace(mergetree.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{extract: extractAt(4)})
	digest := upload(t, ts, buf.Bytes())

	full := mustGet(t, ts, "/v1/traces/"+digest+"/steps?preset=mp")
	lodPath := "/v1/traces/" + digest + "/lod?preset=mp&resolution=64"
	small := mustGet(t, ts, lodPath)
	if 100*len(small) >= len(full) {
		t.Fatalf("resolution=64 LOD is %d bytes, /steps is %d — want < 1%%", len(small), len(full))
	}

	var out lodResponse
	if err := json.Unmarshal(small, &out); err != nil {
		t.Fatal(err)
	}
	if out.NumBuckets < 1 || out.NumBuckets > 64 {
		t.Fatalf("num_buckets = %d, want 1..64", out.NumBuckets)
	}
	if len(out.Rows.Label) == 0 {
		t.Fatal("no cluster rows in the LOD response")
	}

	// Repeat query: served from the resident pyramid, byte-identical.
	resp := rawGet(t, ts, lodPath, nil)
	again, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(again, small) {
		t.Fatal("cached LOD response differs from the cold one")
	}
	if cl := resp.Header.Get("X-Charmd-Cache"); cl != "mem" {
		t.Errorf("repeat LOD query served from %q, want mem", cl)
	}
}

// TestLodValidation pins the 400 contract: invalid parameters and specs
// name the offending field, and unknown digests are 404.
func TestLodValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	digest := upload(t, ts, encodedJacobi(t, 0))
	base := "/v1/traces/" + digest + "/lod"

	for _, tc := range []struct {
		query, field string
	}{
		{"?resolution=banana", "resolution"},
		{"?resolution=-3", "resolution"},
		{"?steps=9..2", "steps.to"},
		{"?steps=x", "steps"},
		{"?steps=4294967296..4294967297", "steps"}, // must not wrap to 0..1
		{"?max_rows=many", "max_rows"},
		{"?resolution=8&render=true", "render"},
		{"?edges=maybe", "edges"},
	} {
		code, body := get(t, ts, base+tc.query)
		if code != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400 (%s)", tc.query, code, body)
		}
		var e struct {
			Field string `json:"field"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Field != tc.field {
			t.Errorf("GET %s: field %q, want %q (%s)", tc.query, e.Field, tc.field, body)
		}
	}

	// POST: unknown spec fields are rejected, not silently defaulted.
	if code, body := postLod(t, ts, digest, "", `{"resolutoin": 8}`); code != http.StatusBadRequest {
		t.Fatalf("misspelled spec field: status %d (%s)", code, body)
	}
	if code, body := postLod(t, ts, digest, "", `{"resolution": 8, "render": true}`); code != http.StatusBadRequest {
		t.Fatalf("render at non-native resolution: status %d (%s)", code, body)
	}
	// POST: a body is one spec; bytes after it are refused, naming (body).
	for _, spec := range []string{`{"resolution":8} junk`, `{"resolution":8}{"resolution":16}`} {
		code, body := postLod(t, ts, digest, "", spec)
		var e struct {
			Field string `json:"field"`
		}
		if json.Unmarshal(body, &e); code != http.StatusBadRequest || e.Field != "(body)" {
			t.Errorf("spec %s: status %d, field %q, want 400 naming (body) (%s)", spec, code, e.Field, body)
		}
	}

	if code, _ := get(t, ts, "/v1/traces/"+strings.Repeat("0", 64)+"/lod"); code != http.StatusNotFound {
		t.Fatalf("unknown digest: status %d, want 404", code)
	}
}

// TestLodGetPostParity: the GET parameter form and the POST spec form
// produce byte-identical bodies for equivalent requests.
func TestLodGetPostParity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	digest := upload(t, ts, encodedJacobi(t, 0))

	viaGet := mustGet(t, ts, "/v1/traces/"+digest+"/lod?resolution=8&max_rows=4&max_edges=10&steps=0..40")
	code, viaPost := postLod(t, ts, digest, "",
		`{"resolution": 8, "max_rows": 4, "max_edges": 10, "steps": {"from": 0, "to": 40}}`)
	if code != http.StatusOK {
		t.Fatalf("POST status %d: %s", code, viaPost)
	}
	if !bytes.Equal(viaGet, viaPost) {
		t.Fatalf("GET and POST forms differ:\n%s\n----\n%s", viaGet, viaPost)
	}
}

// TestLodETagRevalidation: LOD GETs carry the standard strong ETag and
// honor If-None-Match; the response-shaping parameters feed the tag.
func TestLodETagRevalidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	digest := upload(t, ts, encodedJacobi(t, 0))
	path := "/v1/traces/" + digest + "/lod?resolution=8"

	resp := rawGet(t, ts, path, nil)
	io.Copy(io.Discard, resp.Body)
	etag := resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"`) {
		t.Fatalf("weak or missing ETag %q", etag)
	}
	resp304 := rawGet(t, ts, path, map[string]string{"If-None-Match": etag})
	body, _ := io.ReadAll(resp304.Body)
	if resp304.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation: status %d, body %d bytes", resp304.StatusCode, len(body))
	}
	other := rawGet(t, ts, "/v1/traces/"+digest+"/lod?resolution=16", nil)
	io.Copy(io.Discard, other.Body)
	if other.Header.Get("ETag") == etag {
		t.Error("resolution=16 shares the ETag of resolution=8")
	}
}

// TestLodDiffMode drives the structdiff overlay end to end: a run against
// a perturbed sibling reports diverged chares bucketed over the window,
// a self-diff is equivalent, and incomparable or unknown counterparts map
// to 400/404.
func TestLodDiffMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	dA := upload(t, ts, encodedJacobi(t, 0))

	cfg := jacobi.DefaultConfig()
	cfg.SlowChare = 3
	cfg.Iterations++
	var buf bytes.Buffer
	if err := tracefile.WriteBinary(&buf, jacobi.MustTrace(cfg)); err != nil {
		t.Fatal(err)
	}
	dB := upload(t, ts, buf.Bytes())

	var out lodResponse
	if err := json.Unmarshal(mustGet(t, ts, "/v1/traces/"+dA+"/lod?resolution=8&diff="+dB), &out); err != nil {
		t.Fatal(err)
	}
	if out.Diff == nil {
		t.Fatal("diff parameter produced no overlay")
	}
	if out.Diff.Equivalent || out.Diff.Diverged == 0 {
		t.Fatalf("perturbed sibling reported equivalent (diverged=%d)", out.Diff.Diverged)
	}

	if err := json.Unmarshal(mustGet(t, ts, "/v1/traces/"+dA+"/lod?diff="+dA), &out); err != nil {
		t.Fatal(err)
	}
	if out.Diff == nil || !out.Diff.Equivalent {
		t.Fatal("self-diff is not equivalent")
	}

	if code, _ := get(t, ts, "/v1/traces/"+dA+"/lod?diff="+strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Fatalf("diff against unknown digest: status %d, want 404", code)
	}

	// A counterpart with a different chare population is a client error.
	var mt bytes.Buffer
	cfgMT := mergetree.DefaultConfig()
	cfgMT.Procs = 64
	if err := tracefile.WriteBinary(&mt, mergetree.MustTrace(cfgMT)); err != nil {
		t.Fatal(err)
	}
	dMT := upload(t, ts, mt.Bytes())
	if code, _ := get(t, ts, "/v1/traces/"+dA+"/lod?diff="+dMT); code != http.StatusBadRequest {
		t.Fatalf("diff across chare populations: status %d, want 400", code)
	}
}

// TestLodListSummaries pins the list-enrichment satellite: once an
// extraction has cached a structure, GET /v1/traces reports the trace's
// phase/step/event counts from the summary tier without decoding anything.
func TestLodListSummaries(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	enriched := upload(t, ts, encodedJacobi(t, 0))
	bare := upload(t, ts, encodedJacobi(t, 7))
	mustGet(t, ts, "/v1/traces/"+enriched+"/lod?resolution=8")

	var list struct {
		Traces []listEntry `json:"traces"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/v1/traces"), &list); err != nil {
		t.Fatal(err)
	}
	byDigest := map[string]listEntry{}
	for _, e := range list.Traces {
		byDigest[e.Digest] = e
	}
	got, ok := byDigest[enriched]
	if !ok {
		t.Fatalf("uploaded trace %s missing from list", enriched)
	}
	if got.NumPhases == nil || got.MaxStep == nil || got.Events == nil {
		t.Fatalf("extracted trace lacks summary fields: %+v", got)
	}
	if *got.NumPhases < 1 || *got.MaxStep < 0 || *got.Events < 1 {
		t.Fatalf("implausible summary: %+v", got)
	}
	if b := byDigest[bare]; b.NumPhases != nil {
		t.Fatalf("never-extracted trace carries summary fields: %+v", b)
	}
}

// TestLodNativeMatchesSteps: at resolution=native over the full window the
// LOD base level reports exactly one bucket per step with the same maximum
// step and phase count the /steps response advertises.
func TestLodNativeMatchesSteps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	digest := upload(t, ts, encodedJacobi(t, 0))

	var steps struct {
		MaxStep int32 `json:"max_step"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/v1/traces/"+digest+"/steps"), &steps); err != nil {
		t.Fatal(err)
	}
	var structure struct {
		NumPhases int `json:"num_phases"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/v1/traces/"+digest+"/structure"), &structure); err != nil {
		t.Fatal(err)
	}
	var out lodResponse
	if err := json.Unmarshal(mustGet(t, ts, "/v1/traces/"+digest+"/lod"), &out); err != nil {
		t.Fatal(err)
	}
	if out.Resolution != lod.Native || out.BucketWidth != 1 {
		t.Fatalf("default request is not native: %+v", out.Result)
	}
	if out.MaxStep != steps.MaxStep || out.NumPhases != structure.NumPhases {
		t.Fatalf("lod (max_step=%d phases=%d) disagrees with /steps+/structure (max_step=%d phases=%d)",
			out.MaxStep, out.NumPhases, steps.MaxStep, structure.NumPhases)
	}
	if out.NumBuckets != steps.MaxStep+1 {
		t.Fatalf("native buckets = %d, want %d", out.NumBuckets, steps.MaxStep+1)
	}
}

// TestLodGoldenResponses pins three /lod bodies for the checked-in
// jacobi-2x2 trace to SHA-256 digests recorded at e3685ba, before the
// pyramid went from dense grids to CSR rows: an overview, a capped zoom
// window, and the native render. Any byte drift in the wire format or the
// aggregation fails here, independent of the in-package differential oracle.
func TestLodGoldenResponses(t *testing.T) {
	data, err := os.ReadFile("../tracefile/testdata/jacobi-2x2.trace.bin")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	digest := upload(t, ts, data)
	for _, tc := range []struct{ query, want string }{
		{"?resolution=8", "2a64d50b18d3ddb59539618684f1fd723acdb51c36df09e6b1c4ccf98b2b7b07"},
		{"?resolution=4&steps=2..19&max_rows=2&max_edges=3", "ff5146c6e4ef1b283c08aaea469fd1ba13f094312fd54793a942e4663bee1196"},
		{"?render=true", "43033033e359e01b8387b7732967cc6443f41d0cf54425880ee3e99d1ec204df"},
	} {
		sum := sha256.Sum256(mustGet(t, ts, "/v1/traces/"+digest+"/lod"+tc.query))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("GET /lod%s: body sha256 %s, want %s", tc.query, got, tc.want)
		}
	}
}

// TestLodAuxBytesFollowLevels: a pyramid builds each level the first time a
// query needs it, after the cache has handed it out, so cache.aux_bytes
// must follow it. After an overview of two traces and a windowed zoom of
// one, the gauge /debug/stats exports equals the sum of Bytes() over the
// resident pyramids, and the zoom has made it grow.
func TestLodAuxBytesFollowLevels(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	digests := []string{upload(t, ts, encodedJacobi(t, 0)), upload(t, ts, encodedJacobi(t, 7))}
	opt, err := srv.extractOptions(httptest.NewRequest(http.MethodGet, "/", nil))
	if err != nil {
		t.Fatal(err)
	}
	auxBytes := func() (gauge, sum float64) {
		t.Helper()
		stats, err := telemetry.ReadStats(bytes.NewReader(mustGet(t, ts, "/debug/stats")))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range digests {
			_, view, ok := srv.cache.LookupAux(d, opt)
			if !ok {
				t.Fatalf("%s is not resident", d)
			}
			sum += float64(view.(*lod.Pyramid).Bytes())
		}
		return stats.Gauges["cache.aux_bytes"], sum
	}
	for _, d := range digests {
		mustGet(t, ts, "/v1/traces/"+d+"/lod?resolution=64")
	}
	overview, sum := auxBytes()
	if overview != sum || overview == 0 {
		t.Fatalf("after the overviews cache.aux_bytes = %v, resident pyramids hold %v", overview, sum)
	}
	mustGet(t, ts, "/v1/traces/"+digests[0]+"/lod?resolution=256&steps=8..15&max_rows=16")
	zoom, sum := auxBytes()
	if zoom != sum {
		t.Fatalf("after the zoom cache.aux_bytes = %v, resident pyramids hold %v", zoom, sum)
	}
	if zoom <= overview {
		t.Fatalf("the zoom built no level: cache.aux_bytes %v, was %v", zoom, overview)
	}
}
