package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fakeReport(t *testing.T, dir, name string, p50, p50IQR float64) string {
	t.Helper()
	rep := &report{Env: captureEnv(dir, 1, 12, false), Workloads: make(map[string]*result)}
	for _, w := range workloadNames {
		e2e := map[string]metric{
			"setup_s": {Value: 1, Unit: "s"}, "ops_per_s": {Value: 100, Unit: "1/s"},
			"op_p50_ms": {Value: p50, Unit: "ms", IQR: p50IQR}, "op_p95_ms": {Value: 20, Unit: "ms"},
			"slo_share": {Value: 1, Unit: "share"}, "ok_share": {Value: 1, Unit: "share"},
			"cpu_ms_per_op": {Value: 2, Unit: "ms"}, "peak_rss_mb": {Value: 100, Unit: "MB"},
		}
		rep.Workloads[w] = &result{Workload: w, EndToEnd: e2e, PerLayer: map[string]metric{}}
	}
	path := filepath.Join(dir, name)
	if err := rep.write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := fakeReport(t, dir, "a.json", 10, 0.2)
	same := fakeReport(t, dir, "b.json", 10.4, 0.2)
	worse := fakeReport(t, dir, "c.json", 14, 0.2)
	noisy := fakeReport(t, dir, "d.json", 11.8, 4)

	var out bytes.Buffer
	if code, err := compareFiles(&out, spec, base, same); err != nil || code != 0 {
		t.Errorf("a 4%% change inside a 15%% bound: exit %d, %v\n%s", code, err, out.String())
	}
	out.Reset()
	if code, _ := compareFiles(&out, spec, base, worse); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a 40%% worse p50: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code, _ := compareFiles(&out, spec, worse, base); code != 0 || !strings.Contains(out.String(), "better") {
		t.Errorf("the reverse comparison should report better and exit 0: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code, _ := compareFiles(&out, spec, base, noisy); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("an 18%% change under a 40%% window spread is unresolved, not a regression: exit %d\n%s", code, out.String())
	}
}

func TestHistoryAppendsOneLinePerRun(t *testing.T) {
	dir := t.TempDir()
	rep, err := readReport(fakeReport(t, dir, "a.json", 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	hist := filepath.Join(dir, "history.jsonl")
	for i := 0; i < 2; i++ {
		if err := rep.appendHistory(hist); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Errorf("history has %d lines after two runs", n)
	}
	if !strings.Contains(string(data), `"op_p50_ms":10`) || strings.Contains(string(data), "per_layer") {
		t.Errorf("history line should carry end-to-end values only: %s", data)
	}
}
