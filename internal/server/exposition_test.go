package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"

	"charmtrace/internal/telemetry"
)

// TestExpositionNamesGolden pins what a default-configuration server
// exposes: the sorted metric names of /debug/stats (stage rows, counters,
// gauges, histograms) and the family names of /metrics, after one upload
// and one read of every digest route. testdata/exposition_names.golden was
// generated by this test with -update at 51967d2, the commit before the
// self-trace recorder was deleted; the only lines removed since are the
// three server.{latency_ms,body_bytes,wire_bytes}.selftrace series and
// their /metrics families, and the only ones added the five
// cache.response_{hits,stores,bytes,refused,spills} series of stored
// responses and their families. -update rewrites it — only do that for an
// intended change to the exposition.
func TestExpositionNamesGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	digest := upload(t, ts, encodedJacobi(t, 0))
	for _, rt := range DigestRoutes {
		method, pattern, _ := strings.Cut(rt.Pattern, " ")
		url := ts.URL + strings.Replace(pattern, "{digest}", digest, 1)
		var resp *http.Response
		var err error
		if method == http.MethodPost {
			body := `{"select":"steps","limit":5}`
			if rt.Label == "lod_post" {
				body = `{"resolution":8}`
			}
			resp, err = http.Post(url, "application/json", strings.NewReader(body))
		} else {
			resp, err = http.Get(url)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", rt.Pattern, resp.StatusCode)
		}
	}

	var stats telemetry.StatsExport
	if err := json.Unmarshal(mustGet(t, ts, "/debug/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, st := range stats.Stages {
		names = append(names, "stats stage "+st.Name)
	}
	for k := range stats.Counters {
		names = append(names, "stats counter "+k)
	}
	for k := range stats.Gauges {
		names = append(names, "stats gauge "+k)
	}
	for k := range stats.Histograms {
		names = append(names, "stats histogram "+k)
	}
	fams, err := telemetry.ParsePromText(bytes.NewReader(mustGet(t, ts, "/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	for k := range fams {
		names = append(names, "prom "+k)
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"

	const path = "testdata/exposition_names.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition names changed (rerun with -update if intended):\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want ("-") and only in got ("+").
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var out []string
	for l := range w {
		if !g[l] {
			out = append(out, "- "+l)
		}
	}
	for l := range g {
		if !w[l] {
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
