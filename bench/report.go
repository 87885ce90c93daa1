package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// envBlock records what a result was measured on and with, so two result
// files can be told apart before they are compared.
type envBlock struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	GoMaxProcs int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	Kernel     string    `json:"kernel"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Quick      bool      `json:"quick,omitempty"`
	Time       string    `json:"time"`
	Constants  constants `json:"constants"`
}

func captureEnv(root string, seed int64, seconds float64, quick bool) envBlock {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return envBlock{
		Commit: commit, GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Kernel: strings.TrimSpace(string(kernel)), Seed: seed, Seconds: seconds, Quick: quick,
		Time: time.Now().UTC().Format(time.RFC3339), Constants: K,
	}
}

// report is one result file: every workload of one run of the benchmark.
type report struct {
	Env       envBlock           `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// appendHistory adds one line to a JSON-lines trajectory: the env's
// identifying fields and every end-to-end value, no per-layer detail.
func (r *report) appendHistory(path string) error {
	line := struct {
		Commit    string                        `json:"commit"`
		Time      string                        `json:"time"`
		Seed      int64                         `json:"seed"`
		Seconds   float64                       `json:"seconds"`
		GoVersion string                        `json:"go_version"`
		NumCPU    int                           `json:"num_cpu"`
		EndToEnd  map[string]map[string]float64 `json:"end_to_end"`
	}{r.Env.Commit, r.Env.Time, r.Env.Seed, r.Env.Seconds, r.Env.GoVersion, r.Env.NumCPU, make(map[string]map[string]float64)}
	for name, res := range r.Workloads {
		vals := make(map[string]float64)
		for k, m := range res.EndToEnd {
			vals[k] = m.Value
		}
		line.EndToEnd[name] = vals
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareFiles prints, for every workload and end-to-end metric, how b
// differs from a against the metric's bound, and returns 1 if any pair
// regressed. A pair whose across-window spread exceeds its bound is
// reported as unresolved rather than as unchanged — unless it regressed by
// more than bound plus spread, in which case the spread cannot excuse it.
func compareFiles(w io.Writer, spec *benchmarkSpec, pathA, pathB string) (int, error) {
	a, err := readReport(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  seed %d  %gs\nb: %s  commit %s  seed %d  %gs\n\n",
		pathA, a.Env.Commit, a.Env.Seed, a.Env.Seconds, pathB, b.Env.Commit, b.Env.Seed, b.Env.Seconds)
	fmt.Fprintf(w, "%-15s %-14s %12s %12s %8s %7s %8s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	regressed := 0
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-15s missing from one file\n", name)
			regressed++
			continue
		}
		for _, d := range spec.EndToEnd {
			ma, mb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			// worse > 0 means b is worse than a, as a share of a.
			worse := ratio(mb.Value-ma.Value, ma.Value)
			if d.Better == higher {
				worse = -worse
			}
			spread := ratio(max(ma.IQR, mb.IQR), ma.Value)
			verdict := "ok"
			switch {
			case worse > d.Bound+spread:
				verdict = "REGRESSION"
				regressed++
			case spread > d.Bound:
				verdict = "unresolved (window spread exceeds the bound)"
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressed++
			case worse < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-15s %-14s %12.4f %12.4f %+7.1f%% %6.1f%% %7.1f%%  %s\n",
				name, d.Name, ma.Value, mb.Value, worse*100, d.Bound*100, spread*100, verdict)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "\n%d regression(s)\n", regressed)
		return 1, nil
	}
	return 0, nil
}
