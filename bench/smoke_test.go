package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The test binary doubles as batch-extract's child process, exactly as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(batchChildEnv) != "" {
		os.Exit(batchChildMain())
	}
	os.Exit(m.Run())
}

// TestQuickRunsEveryWorkload is the smoke test: all four workloads and
// their traced runs at tiny sizes against real child processes.
func TestQuickRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -quick exited %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(root, "bench", "out")
	rep, err := readReport(filepath.Join(out, "result-quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env.Seed != 3 || rep.Env.GoVersion == "" || rep.Env.NumCPU == 0 || len(rep.Env.Constants.Mix) == 0 {
		t.Errorf("env block is incomplete: %+v", rep.Env)
	}
	for _, name := range workloadNames {
		res := rep.Workloads[name]
		if res == nil {
			t.Fatalf("%s missing from the result file", name)
		}
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", name, res.Attempted, res.Failed, res.Failures)
		}
		for _, d := range endToEndDefs {
			if m, ok := res.EndToEnd[d.Name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; every one must be present and never 0", name, d.Name, m.Value)
			}
		}
		if len(res.PerLayer) != len(perLayerDefs()) {
			t.Errorf("%s: %d per-layer metrics, want %d", name, len(res.PerLayer), len(perLayerDefs()))
		}
		data, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var chrome struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
			t.Errorf("%s: Chrome trace is empty or malformed: %v", name, err)
		}
	}
	// The layer predictions that must hold on any commit.
	layer := func(w, m string) float64 { return rep.Workloads[w].PerLayer[m].Value }
	if v := layer(wlWarm, "resultcache.mem_hit_ratio"); v != 1 {
		t.Errorf("warm-explore mem_hit_ratio = %v, want 1: something was not resident", v)
	}
	if v := layer(wlCold, "resultcache.miss_ratio"); v != 1 {
		t.Errorf("cold-ingest miss_ratio = %v, want 1: a first read was not a miss", v)
	}
	if v := layer(wlWarm, "cluster.replica_pushes_per_kop") + layer(wlCold, "cluster.replica_pushes_per_kop"); v != 0 {
		t.Errorf("cluster traffic outside fleet-overflow: %v", v)
	}
	if v := layer(wlBatch, "core.extract_ns_per_event"); v <= 0 {
		t.Errorf("batch-extract replay recorded no extraction: %v", v)
	}
	// Nothing left behind but the files worth reading.
	left, _ := filepath.Glob(filepath.Join(out, "run-*"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestDriverLine checks the one line the benchmark driver reads.
func TestDriverLine(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "--workload", wlBatch, "--seed", "2", "--seconds", "1", "--trace", traced}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v exited %d\n%s", args, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if len(line) != 4 {
			t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEndDefs
		if traced == "1" {
			want = perLayerDefs()
		}
		if len(metrics) != len(want) {
			t.Errorf("--trace %s printed %d metrics, want %d", traced, len(metrics), len(want))
		}
		for _, d := range want {
			if m, ok := metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("--trace %s: metric %s missing or with unit %q, want %q", traced, d.Name, m.Unit, d.Unit)
			}
		}
		if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
			t.Errorf("--trace %s: correct=%s failed=%s", traced, line["correct"], line["failed"])
		}
	}
	if code := run([]string{"--workload", "no-such-workload"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}
