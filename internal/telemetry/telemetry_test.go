package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func TestRegistryMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Add(4)
	r.Gauge("g").Set(1.5)
	h := r.Histogram("h")
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(1000)

	s := r.Snapshot()
	if s.Counters["a"] != 7 {
		t.Errorf("counter a = %d, want 7", s.Counters["a"])
	}
	if s.Gauges["g"] != 1.5 {
		t.Errorf("gauge g = %v, want 1.5", s.Gauges["g"])
	}
	hs := s.Histograms["h"]
	if hs.Count != 3 || hs.Sum != 1003.5 || hs.Min != 0.5 || hs.Max != 1000 {
		t.Errorf("histogram = %+v", hs)
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != 3 {
		t.Errorf("bucket counts sum to %d, want 3", total)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c").Add(1)
				r.Gauge("g").Set(float64(j))
				r.Histogram("h").Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 800 {
		t.Errorf("counter = %d, want 800", s.Counters["c"])
	}
	if s.Histograms["h"].Count != 800 {
		t.Errorf("histogram count = %d, want 800", s.Histograms["h"].Count)
	}
}

func TestRegistryMergeInto(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(2)
	a.Histogram("h").Observe(4)
	b.Counter("c").Add(5)
	b.Gauge("g").Set(9)
	b.Histogram("h").Observe(16)

	a.MergeInto(b)
	s := b.Snapshot()
	if s.Counters["c"] != 7 {
		t.Errorf("merged counter = %d, want 7", s.Counters["c"])
	}
	if s.Gauges["g"] != 9 {
		t.Errorf("merged gauge = %v, want 9", s.Gauges["g"])
	}
	hs := s.Histograms["h"]
	if hs.Count != 2 || hs.Sum != 20 || hs.Min != 4 || hs.Max != 16 {
		t.Errorf("merged histogram = %+v", hs)
	}
}

func TestStatsExportRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(StageNSPrefix + "initial").Add(1000)
	reg.Counter(StageMergedPrefix + "initial").Add(0)
	reg.Counter(StageNSPrefix + "dependency-merge").Add(2000)
	reg.Counter(StageMergedPrefix + "dependency-merge").Add(42)
	reg.Counter("pipeline.events_scanned").Add(99)
	reg.Gauge("pipeline.enforce_rounds").Set(2)
	reg.Histogram("pipeline.enforce_round_ns").Observe(1500)

	e := ExportRegistry(reg, "test", []string{"initial", "dependency-merge", "never-ran"})
	e.Labels = map[string]string{"workload": "jacobi"}
	e.Parallelism = 4

	if len(e.Stages) != 2 {
		t.Fatalf("stages = %d, want 2 (never-ran omitted)", len(e.Stages))
	}
	if e.Stages[1].Name != "dependency-merge" || e.Stages[1].Merged != 42 || e.Stages[1].DurationNS != 2000 {
		t.Errorf("stage row wrong: %+v", e.Stages[1])
	}
	if _, dup := e.Counters[StageNSPrefix+"initial"]; dup {
		t.Error("stage metric duplicated into generic counters")
	}
	if e.Counters["pipeline.events_scanned"] != 99 {
		t.Errorf("generic counter missing: %v", e.Counters)
	}

	path := filepath.Join(t.TempDir(), "stats.json")
	if err := e.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadStats(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
}

func TestReadStatsRejectsWrongVersion(t *testing.T) {
	if _, err := ReadStats(bytes.NewBufferString(`{"schema_version": 999, "tool": "x"}`)); err == nil {
		t.Fatal("expected a schema-version error")
	}
}
