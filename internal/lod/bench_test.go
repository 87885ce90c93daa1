package lod

import (
	"reflect"
	"testing"

	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/query"
)

// mediumZoo is the nine zoo apps at the repository benchmark's medium scale
// (bench/consts.go PoolApps: 2k–11k events each) — the traces cold-ingest
// uploads, so ns/event here tracks lod.build_ns_per_event there.
var mediumZoo = []struct {
	app string
	p   cli.Params
}{
	{"jacobi", cli.Params{Scale: 8, Iterations: 12}},
	{"lulesh", cli.Params{Scale: 4}},
	{"lassen", cli.Params{Iterations: 40}},
	{"mergetree", cli.Params{Scale: 512}},
	{"nasbt", cli.Params{Scale: 5, Iterations: 16}},
	{"pdes", cli.Params{Scale: 128, Iterations: 16}},
	{"lbmigrate", cli.Params{Scale: 48, Iterations: 24}},
	{"faultsim", cli.Params{Scale: 32, Iterations: 30}},
	{"ordstress", cli.Params{Scale: 32, Iterations: 20}},
}

// extractRegistry generates and extracts one internal/cli workload.
func extractRegistry(tb testing.TB, app string, p cli.Params) *core.Structure {
	tb.Helper()
	tr, opts, err := cli.Generate(app, p)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := core.Extract(tr, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestPyramidBytesPerEvent is the pyramid's size gate on the traces
// cold-ingest uploads: at most 90 bytes an event over the medium zoo (the
// 104-byte int64 cells it replaced came to 156), and Bytes — what the
// result cache charges a resident pyramid — equal to an independent count
// of every level slice's length × element size, so the accounting cannot
// drift from the layout.
func TestPyramidBytesPerEvent(t *testing.T) {
	const ceiling = 90
	var bytes, events int64
	for _, w := range mediumZoo {
		s := extractRegistry(t, w.app, w.p)
		p := Build(s, nil)
		want := int64(len(p.ClusterOf)) * 4
		for _, c := range p.Clusters {
			want += int64(len(c.Members))*4 + 16
		}
		for _, l := range p.Levels {
			want += sliceBytes(reflect.ValueOf(l))
		}
		if p.Bytes() != want {
			t.Errorf("%s: Bytes() = %d, the level slices and clusters hold %d", w.app, p.Bytes(), want)
		}
		bytes += p.Bytes()
		events += int64(len(s.Trace.Events))
	}
	if per := float64(bytes) / float64(events); per > ceiling {
		t.Errorf("pyramids hold %.1f B/event over the medium zoo, ceiling %d", per, ceiling)
	}
}

// sliceBytes sums length × element size over every slice in v, reached
// through struct fields and array elements.
func sliceBytes(v reflect.Value) int64 {
	var n int64
	switch v.Kind() {
	case reflect.Slice:
		n = int64(v.Len()) * int64(v.Type().Elem().Size())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += sliceBytes(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += sliceBytes(v.Field(i))
		}
	}
	return n
}

var benchSink *Pyramid

// BenchmarkBuild is one pass of Build over the nine medium zoo shapes with
// the §4 report precomputed, so the figure is the pyramid's own cost
// (clustering + cells + edges). Run by `make bench-lod`.
func BenchmarkBuild(b *testing.B) {
	structs := make([]*core.Structure, len(mediumZoo))
	reps := make([]*metrics.Report, len(mediumZoo))
	var events int
	for i, w := range mediumZoo {
		structs[i] = extractRegistry(b, w.app, w.p)
		reps[i] = metrics.Compute(structs[i])
		events += len(structs[i].Trace.Events)
	}
	var bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		bytes = 0
		for i, s := range structs {
			benchSink = Build(s, reps[i])
			bytes += benchSink.Bytes()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	b.ReportMetric(float64(bytes)/float64(events), "B/event")
}

var querySink *Result

// BenchmarkQuery is one Query per medium zoo pyramid for each of the
// warm-explore workload's request shapes — the overview at resolution=64,
// a zoom at resolution=256 over an eighth of the steps with max_rows=16 —
// and a one-step window: the read side of the pyramid layout, which Build's
// figures do not show. Run by `make bench-lod`.
func BenchmarkQuery(b *testing.B) {
	type request struct {
		p  *Pyramid
		sp Spec
	}
	var reqs []request
	for _, w := range mediumZoo {
		s := extractRegistry(b, w.app, w.p)
		p, maxStep := Build(s, nil), s.MaxStep()
		zoom := &query.StepRange{From: maxStep / 4, To: maxStep/4 + maxStep/8}
		one := &query.StepRange{From: maxStep / 2, To: maxStep / 2}
		for _, sp := range []Spec{
			{Resolution: 64},
			{Resolution: 256, Steps: zoom, MaxRows: 16},
			{Steps: one},
		} {
			reqs = append(reqs, request{p, sp})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, r := range reqs {
			res, err := r.p.Query(r.sp, nil)
			if err != nil {
				b.Fatal(err)
			}
			querySink = res
		}
	}
}
