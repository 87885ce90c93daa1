package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"charmtrace/internal/tracefile"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/rowroutes/*.golden from the bodies this tree serves")

// hostileNames are chare names an upload may carry: HTML-significant
// bytes, a quote and a backslash, U+2028, a control byte, invalid UTF-8.
var hostileNames = []string{"a<b>&\"c\"\\d\u2028e\tf", "bad\xff\xfeutf8 \xc3", ""}

// goldenTraces returns the uploads TestRowRouteGoldenResponses reads: the
// three checked-in conformance traces, and the smallest of them again with
// its first chares renamed to hostileNames.
func goldenTraces(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range []string{"faultsim", "lbmigrate", "ordstress"} {
		data, err := os.ReadFile("../conformance/testdata/" + name + ".trace.bin")
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	tr, err := tracefile.ReadAuto(bytes.NewReader(out["ordstress"]))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range hostileNames {
		tr.Chares[i].Name = name
	}
	var buf bytes.Buffer
	if err := tracefile.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out["hostile-names"] = buf.Bytes()
	return out
}

// goldenGets and goldenPosts are the row-route requests pinned per trace:
// every route the append-style writer renders, in its full form and through
// the query engine, with projection, grouping, an empty page and paging.
// A POST whose answer carries next_cursor is followed to the last page.
var goldenGets = []string{
	"/steps",
	"/steps?steps=0..3",
	"/steps?chare=1",
	"/steps?phase=0&chares=0,1&limit=5",
	"/steps?steps=100000..100001",
	"/metrics",
	"/metrics?group_by=phase&aggs=sum,mean,count",
	"/metrics?group_by=chare",
	"/metrics?steps=1..4&fields=event,imbalance,sub_dur",
	"/structure",
	"/structure?preset=mp",
	"/structure?phase=0",
	"/structure?steps=0..4&limit=2",
}

var goldenPosts = []string{
	`{"select":"steps","fields":["event","chare_name","kind","time"],"limit":40}`,
	`{"select":"steps","filter":{"chares":[2,0,1]},"limit":9}`,
	`{"select":"steps","filter":{"steps":{"from":100000,"to":100001}}}`,
	`{"select":"metrics","filter":{"steps":{"from":0,"to":2}},"fields":["step","idle_experienced"]}`,
	`{"select":"metrics","group_by":"chare","aggregates":["mean","max"],"fields":["chare_name","imbalance_mean","sub_dur_max"]}`,
	`{"select":"metrics","group_by":"phase","filter":{"chares":[0,1]},"limit":3}`,
	`{"select":"structure","fields":["id","events","runtime"],"limit":2}`,
	`{"select":"viz","filter":{"steps":{"from":0,"to":6}},"fields":["label","timeline"]}`,
	`{"select":"viz","limit":2}`,
}

// goldenExchange is one request and the 200 body it was answered with.
type goldenExchange struct {
	req  string // "GET /steps?…" or "POST /query <spec>", digest elided
	body []byte
}

// rowRouteExchanges performs the golden requests against h for one trace.
func rowRouteExchanges(t *testing.T, h http.Handler, digest string) []goldenExchange {
	t.Helper()
	base := "/v1/traces/" + digest
	do := func(method, path, body string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, base+path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s %s: status %d: %s", method, path, body, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var out []goldenExchange
	for _, path := range goldenGets {
		out = append(out, goldenExchange{"GET " + path, do("GET", path, "")})
	}
	for _, spec := range goldenPosts {
		for page := spec; page != ""; {
			body := do("POST", "/query", page)
			out = append(out, goldenExchange{"POST /query " + page, body})
			var res struct {
				NextCursor string `json:"next_cursor"`
			}
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("POST /query %s: %v", page, err)
			}
			page = ""
			if res.NextCursor != "" {
				page = strings.TrimSuffix(spec, "}") + `,"cursor":"` + res.NextCursor + `"}`
			}
		}
	}
	return out
}

// TestRowRouteGoldenResponses pins the bodies of every row-shaped route —
// /steps, /metrics and /structure in full and retrofitted, POST /query for
// the four selects with projection, grouping, paging to the last cursor and
// an empty page — for the three checked-in conformance traces and one with
// hostile chare names. The goldens were written at 34e7460, while these
// bodies still came from encoding/json over structs and map rows
// (`go test ./internal/server -run TestRowRouteGoldenResponses -update` in
// that tree), so a renderer that drifts by one byte from the reflection
// encoder's indented form fails here.
func TestRowRouteGoldenResponses(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	for name, data := range goldenTraces(t) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/traces", bytes.NewReader(data)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("%s: upload status %d: %s", name, rec.Code, rec.Body)
		}
		digest := tracefile.DigestBytes(data)
		var got bytes.Buffer
		for _, ex := range rowRouteExchanges(t, srv, digest) {
			fmt.Fprintf(&got, "### %s\n%s", ex.req, ex.body)
		}
		path := filepath.Join("testdata", "rowroutes", name+".golden")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: served bodies differ from %s (first difference at byte %d of %d)",
				name, path, firstDiff(got.Bytes(), want), len(want))
		}
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
