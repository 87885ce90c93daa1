package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// queryPage mirrors the queryResponse JSON shape.
type queryPage struct {
	Digest      string           `json:"digest"`
	Fingerprint string           `json:"fingerprint"`
	Select      string           `json:"select"`
	TotalRows   int              `json:"total_rows"`
	Rows        []map[string]any `json:"rows"`
	NextCursor  string           `json:"next_cursor"`
}

func postQuery(t *testing.T, ts *httptest.Server, digest, spec string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/traces/"+digest+"/query", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func decodePage(t *testing.T, data []byte) queryPage {
	t.Helper()
	var p queryPage
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatalf("decoding query page: %v\n%s", err, data)
	}
	return p
}

// TestQueryEndpointEndToEnd: POST /query pages a filtered steps query,
// the concatenated pages equal the unpaged result, and the same spec via
// GET parameters returns the same rows.
func TestQueryEndpointEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	digest := upload(t, ts, encodedJacobi(t, 0))

	full := `{"select":"steps","filter":{"chares":[1,3],"steps":{"from":9,"to":40}}}`
	code, data := postQuery(t, ts, digest, full)
	if code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, data)
	}
	fullPage := decodePage(t, data)
	if fullPage.Digest != digest || fullPage.Select != "steps" || len(fullPage.Rows) == 0 {
		t.Fatalf("bad full page: %+v", fullPage)
	}
	if fullPage.TotalRows != len(fullPage.Rows) {
		t.Fatalf("unpaged TotalRows %d != rows %d", fullPage.TotalRows, len(fullPage.Rows))
	}

	// Page through the same filter with limit 5 and concatenate.
	var rows []map[string]any
	cursor := ""
	for {
		spec := fmt.Sprintf(`{"select":"steps","filter":{"chares":[1,3],"steps":{"from":9,"to":40}},"limit":5,"cursor":%q}`, cursor)
		code, data := postQuery(t, ts, digest, spec)
		if code != http.StatusOK {
			t.Fatalf("paged query status %d: %s", code, data)
		}
		page := decodePage(t, data)
		rows = append(rows, page.Rows...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	got, _ := json.Marshal(rows)
	want, _ := json.Marshal(fullPage.Rows)
	if !bytes.Equal(got, want) {
		t.Error("concatenated POST pages differ from the unpaged result")
	}

	// The GET retrofit with equivalent parameters returns the same rows.
	getData := mustGet(t, ts, "/v1/traces/"+digest+"/steps?chares=1,3&steps=9..40")
	getPage := decodePage(t, getData)
	gotGET, _ := json.Marshal(getPage.Rows)
	if !bytes.Equal(gotGET, want) {
		t.Error("GET parameter retrofit differs from POST query result")
	}

	// GET paging follows the cursor through the page parameter.
	first := decodePage(t, mustGet(t, ts, "/v1/traces/"+digest+"/steps?chares=1,3&steps=9..40&limit=5"))
	if first.NextCursor == "" || len(first.Rows) != 5 {
		t.Fatalf("GET page 1: rows=%d cursor=%q", len(first.Rows), first.NextCursor)
	}
	second := decodePage(t, mustGet(t, ts, "/v1/traces/"+digest+"/steps?chares=1,3&steps=9..40&limit=5&page="+first.NextCursor))
	if len(second.Rows) == 0 {
		t.Fatal("GET page 2 empty")
	}

	// Without engine parameters the legacy response shape is untouched.
	legacy := mustGet(t, ts, "/v1/traces/"+digest+"/steps")
	if !bytes.Contains(legacy, []byte(`"timeline"`)) {
		t.Error("legacy steps response lost its shape")
	}
}

// TestQueryGroupedAndStructureSelects exercises the other select kinds
// over HTTP.
func TestQueryGroupedAndStructureSelects(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	digest := upload(t, ts, encodedJacobi(t, 0))

	code, data := postQuery(t, ts, digest, `{"select":"metrics","group_by":"chare","aggregates":["count","sum","max"]}`)
	if code != http.StatusOK {
		t.Fatalf("grouped query status %d: %s", code, data)
	}
	page := decodePage(t, data)
	if len(page.Rows) == 0 {
		t.Fatal("grouped query returned no rows")
	}
	for _, col := range []string{"chare", "chare_name", "count", "sub_dur_sum", "imbalance_max"} {
		if _, ok := page.Rows[0][col]; !ok {
			t.Errorf("grouped row missing column %s: %v", col, page.Rows[0])
		}
	}

	code, data = postQuery(t, ts, digest, `{"select":"structure","fields":["id","chares"]}`)
	if code != http.StatusOK {
		t.Fatalf("structure query status %d: %s", code, data)
	}
	page = decodePage(t, data)
	if len(page.Rows) == 0 || len(page.Rows[0]) != 2 {
		t.Fatalf("projected structure rows wrong: %v", page.Rows)
	}

	code, data = postQuery(t, ts, digest, `{"select":"viz","filter":{"steps":{"from":0,"to":40}},"limit":3}`)
	if code != http.StatusOK {
		t.Fatalf("viz query status %d: %s", code, data)
	}

	// The second and later queries hit the cached per-entry index.
	reg := srv.Registry()
	if builds := reg.Counter("cache.index_builds").Value(); builds != 1 {
		t.Errorf("cache.index_builds = %d, want 1 (one resident entry)", builds)
	}
	if hits := reg.Counter("cache.index_hits").Value(); hits < 2 {
		t.Errorf("cache.index_hits = %d, want >= 2", hits)
	}
	if q := reg.Counter("query.queries").Value(); q < 3 {
		t.Errorf("query.queries = %d, want >= 3", q)
	}
}

// TestQueryErrorsAreFieldLevel400s: malformed specs come back as 400 with
// the offending field named, never 500.
func TestQueryErrorsAreFieldLevel400s(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	digest := upload(t, ts, encodedJacobi(t, 0))

	cases := []struct {
		spec  string
		field string
	}{
		{`{"select":"bogus"}`, "select"},
		{`{"select":"steps","limit":-1}`, "limit"},
		{`{"select":"steps","filter":{"steps":{"from":9,"to":2}}}`, "filter.steps"},
		{`{"select":"metrics","group_by":"pe"}`, "group_by"},
		{`{"select":"metrics","group_by":"phase","aggregates":["p50"]}`, "aggregates"},
		{`{"select":"steps","fields":["nope"]}`, "fields"},
		{`{"select":"steps","cursor":"garbage"}`, "cursor"},
		{`{"select":"steps","filter":{"chares":[9999]}}`, "filter.chares"},
		{`not json at all`, "(body)"},
		{`{"select":"steps","surprise":1}`, "(body)"},
		{`{"select":"steps","limit":2} junk`, "(body)"},
		{`{"select":"steps","limit":2}{"select":"bogus"}`, "(body)"},
	}
	for _, tc := range cases {
		code, data := postQuery(t, ts, digest, tc.spec)
		if code != http.StatusBadRequest {
			t.Errorf("spec %s: status %d (%s), want 400", tc.spec, code, data)
			continue
		}
		var body struct {
			Error string `json:"error"`
			Field string `json:"field"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			t.Errorf("spec %s: undecodable error body %s", tc.spec, data)
			continue
		}
		if body.Field != tc.field {
			t.Errorf("spec %s: field %q, want %q", tc.spec, body.Field, tc.field)
		}
	}

	// Bad GET parameters are field-level too.
	code, data := get(t, ts, "/v1/traces/"+digest+"/steps?steps=backwards")
	if code != http.StatusBadRequest || !bytes.Contains(data, []byte(`"field"`)) {
		t.Errorf("bad GET param: status %d body %s", code, data)
	}

	// Unknown digest stays 404 even with a valid spec.
	code, _ = postQuery(t, ts, strings.Repeat("0", 64), `{"select":"steps"}`)
	if code != http.StatusNotFound {
		t.Errorf("unknown digest query: status %d, want 404", code)
	}
}

// rawGet issues a GET without the Go client's transparent decompression.
func rawGet(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) *http.Response {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	req, err := http.NewRequest("GET", ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestETagRevalidation: digest-addressed GETs carry a strong ETag and the
// immutable cache headers; If-None-Match revalidation returns a bodyless
// 304 without running any extraction; response-shaping parameters change
// the ETag.
func TestETagRevalidation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	digest := upload(t, ts, encodedJacobi(t, 0))
	path := "/v1/traces/" + digest + "/structure"

	resp := rawGet(t, ts, path, nil)
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if !strings.HasPrefix(etag, `"`) || len(etag) < 10 {
		t.Fatalf("weak or missing ETag %q", etag)
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") || !strings.Contains(cc, "max-age=") {
		t.Errorf("Cache-Control = %q, want immutable max-age", cc)
	}
	if vary := resp.Header.Get("Vary"); vary != "Accept-Encoding" {
		t.Errorf("Vary = %q", vary)
	}

	missesBefore := srv.Registry().Counter("cache.misses").Value()
	resp304 := rawGet(t, ts, path, map[string]string{"If-None-Match": etag})
	body304, _ := io.ReadAll(resp304.Body)
	if resp304.StatusCode != http.StatusNotModified || len(body304) != 0 {
		t.Fatalf("revalidation: status %d body %d bytes", resp304.StatusCode, len(body304))
	}
	if resp304.Header.Get("ETag") != etag {
		t.Errorf("304 ETag %q != original %q", resp304.Header.Get("ETag"), etag)
	}
	if after := srv.Registry().Counter("cache.misses").Value(); after != missesBefore {
		t.Error("revalidation touched the extraction path")
	}

	// A different option set or different response parameters → different
	// ETag; an unrelated If-None-Match → full 200.
	respMP := rawGet(t, ts, path+"?preset=mp", nil)
	io.Copy(io.Discard, respMP.Body)
	if respMP.Header.Get("ETag") == etag {
		t.Error("preset=mp shares the ETag of the default options")
	}
	respFiltered := rawGet(t, ts, path+"?steps=0..5", nil)
	io.Copy(io.Discard, respFiltered.Body)
	if respFiltered.Header.Get("ETag") == etag {
		t.Error("filtered response shares the unfiltered ETag")
	}
	respStale := rawGet(t, ts, path, map[string]string{"If-None-Match": `"deadbeef"`})
	staleBody, _ := io.ReadAll(respStale.Body)
	if respStale.StatusCode != http.StatusOK || len(staleBody) == 0 {
		t.Errorf("stale validator: status %d", respStale.StatusCode)
	}

	// Unknown digests never 304.
	respGone := rawGet(t, ts, "/v1/traces/"+strings.Repeat("0", 64)+"/structure",
		map[string]string{"If-None-Match": "*"})
	io.Copy(io.Discard, respGone.Body)
	if respGone.StatusCode != http.StatusNotFound {
		t.Errorf("unknown digest with If-None-Match: status %d, want 404", respGone.StatusCode)
	}
}

// TestETagNamesTheRoute: the row routes of one trace, asked with the same
// parameters, carry distinct ETags, so one route's validator never
// revalidates another's body.
func TestETagNamesTheRoute(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	digest := upload(t, ts, encodedJacobi(t, 0))
	etags := map[string]string{}
	bodies := map[string][]byte{}
	for _, route := range []string{"structure", "steps", "metrics"} {
		resp := rawGet(t, ts, "/v1/traces/"+digest+"/"+route+"?preset=mp", nil)
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /%s: status %d", route, resp.StatusCode)
		}
		etag := resp.Header.Get("ETag")
		for other, e := range etags {
			if e == etag {
				t.Errorf("/%s and /%s share the ETag %s", route, other, etag)
			}
		}
		etags[route], bodies[route] = etag, body
	}
	resp := rawGet(t, ts, "/v1/traces/"+digest+"/metrics?preset=mp", map[string]string{"If-None-Match": etags["steps"]})
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, bodies["metrics"]) {
		t.Errorf("/metrics with the /steps ETag: status %d, %d bytes; want 200 and its %d bytes",
			resp.StatusCode, len(body), len(bodies["metrics"]))
	}
}

// TestGzipBodiesAreByteIdentical: the bytes inside the gzip stream are
// exactly the uncompressed response body, on both analysis GETs and query
// POSTs; clients that don't ask for gzip get identity.
func TestGzipBodiesAreByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	digest := upload(t, ts, encodedJacobi(t, 0))

	for _, path := range []string{
		"/v1/traces/" + digest + "/structure",
		"/v1/traces/" + digest + "/steps?chares=0,2&steps=9..30&limit=10",
		"/v1/traces/" + digest + "/metrics?group_by=phase",
		"/v1/traces/" + digest,
	} {
		plain := rawGet(t, ts, path, nil)
		plainBody, _ := io.ReadAll(plain.Body)
		if enc := plain.Header.Get("Content-Encoding"); enc != "" {
			t.Fatalf("%s: identity request got Content-Encoding %q", path, enc)
		}

		zipped := rawGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"})
		if enc := zipped.Header.Get("Content-Encoding"); enc != "gzip" {
			t.Fatalf("%s: gzip request got Content-Encoding %q", path, enc)
		}
		zr, err := gzip.NewReader(zipped.Body)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		unzipped, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(unzipped, plainBody) {
			t.Errorf("%s: decompressed body differs from identity body", path)
		}
	}

	// A 304 with gzip accepted stays body-free and unencoded.
	first := rawGet(t, ts, "/v1/traces/"+digest+"/structure", nil)
	io.Copy(io.Discard, first.Body)
	etag := first.Header.Get("ETag")
	resp304 := rawGet(t, ts, "/v1/traces/"+digest+"/structure",
		map[string]string{"Accept-Encoding": "gzip", "If-None-Match": etag})
	body, _ := io.ReadAll(resp304.Body)
	if resp304.StatusCode != http.StatusNotModified || len(body) != 0 || resp304.Header.Get("Content-Encoding") != "" {
		t.Errorf("gzip 304: status %d, %d body bytes, encoding %q",
			resp304.StatusCode, len(body), resp304.Header.Get("Content-Encoding"))
	}
}
