package main

import "testing"

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json and the code's
// metric catalogue together: same workloads, same metric names, units and
// directions, in the same order.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(spec.EndToEnd), len(endToEndDefs))
	}
	for i, m := range spec.EndToEnd {
		if m.metricDef != endToEndDefs[i] {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, catalogue %+v", i, m.metricDef, endToEndDefs[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] %s: bound %v outside (0, 0.25]", i, m.Name, m.Bound)
		}
	}
	defs := perLayerDefs()
	if len(spec.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(spec.PerLayer), len(defs))
	}
	seen := make(map[string]bool)
	for i, m := range spec.PerLayer {
		if m != defs[i] {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, catalogue %+v", i, m, defs[i])
		}
		if seen[m.Name] {
			t.Errorf("per-layer metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(defs) > 128 {
		t.Errorf("%d per-layer metrics; the driver accepts at most 128", len(defs))
	}
}
