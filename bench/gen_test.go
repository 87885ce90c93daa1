package main

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"testing"

	"charmtrace"
)

func TestVariantIsTheSameTraceUnderANewDigest(t *testing.T) {
	in, err := generate(traceSpec{Name: "jacobi", App: "jacobi"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, b := in.variant(1), in.variant(2)
	if sha256.Sum256(a) == sha256.Sum256(b) || sha256.Sum256(a) == sha256.Sum256(in.data) {
		t.Fatal("variants share a digest")
	}
	for _, data := range [][]byte{a, b} {
		tr, err := charmtrace.ReadTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("variant does not decode: %v", err)
		}
		if !reflect.DeepEqual(tr.Events, in.tr.Events) || !reflect.DeepEqual(tr.Blocks, in.tr.Blocks) {
			t.Fatal("variant decodes to different events or blocks")
		}
	}
}

func TestDrawsFollowTheSeed(t *testing.T) {
	pool, err := buildPool(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range pool {
		in.maxStep = 100
	}
	draw := func(seed int64, stream int) []request {
		g := newMixGen(seed, stream, pool, K.WarmZipfS, 0)
		out := make([]request, 500)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(5, 0), draw(5, 0)) {
		t.Error("equal seeds drew different request sequences")
	}
	if reflect.DeepEqual(draw(5, 0), draw(6, 0)) {
		t.Error("different seeds drew the same request sequence")
	}
	if reflect.DeepEqual(draw(5, 0), draw(5, 1)) {
		t.Error("two streams of one seed drew the same request sequence")
	}
	if !reflect.DeepEqual(poissonSchedule(5, 250, 1000), poissonSchedule(5, 250, 1000)) {
		t.Error("equal seeds drew different schedules")
	}
	if reflect.DeepEqual(poissonSchedule(5, 250, 1000), poissonSchedule(6, 250, 1000)) {
		t.Error("different seeds drew the same schedule")
	}
	// The schedule's mean rate is the configured one, and the mix honours
	// its weights: revalidations are a tenth of the traffic.
	sched := poissonSchedule(5, 250, 5000)
	if rate := 5000 / sched[len(sched)-1].Seconds(); rate < 230 || rate > 270 {
		t.Errorf("schedule runs at %.1f arrivals/s, want about 250", rate)
	}
	reval, hot := 0, make(map[int]int)
	reqs := draw(7, 0)
	for _, r := range reqs {
		if r.cond {
			reval++
		}
		hot[r.trace]++
	}
	if share := float64(reval) / float64(len(reqs)); share < 0.06 || share > 0.14 {
		t.Errorf("revalidations are %.3f of the mix, want about 0.10", share)
	}
	most := 0
	for _, n := range hot {
		most = max(most, n)
	}
	if most < len(reqs)/4 {
		t.Errorf("hottest trace drew %d of %d requests; Zipf s=%.1f should concentrate more", most, len(reqs), K.WarmZipfS)
	}
	// Same bytes for the same (benchmark seed, slot), different across seeds.
	again, err := buildPool(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := buildPool(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].digest != pool[0].digest || other[0].digest == pool[0].digest {
		t.Error("generated traces do not follow the seed")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqr(v); got != 5.5 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(v, 95); got != 10 {
		t.Errorf("p95 = %v, want 10", got)
	}
}
