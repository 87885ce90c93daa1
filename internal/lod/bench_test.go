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

// Built levels, by what the repository benchmark's LOD requests read: the
// overview (cold-ingest reads only that), the overview and warm-explore's
// zoom, and — what no served request does — every level; each with its
// TestPyramidBytesPerEvent ceiling in bytes per event.
var shapes = []struct {
	name    string
	ceiling float64
	levels  func(p *Pyramid) []int
}{
	{"overview", 10, func(p *Pyramid) []int { return []int{overviewLevel(p)} }},
	{"overview+zoom", 40, func(p *Pyramid) []int { return []int{overviewLevel(p), zoomLevel(p)} }},
	{"every-level", 90, func(p *Pyramid) []int {
		all := make([]int, p.NumLevels())
		for l := range all {
			all[l] = l
		}
		return all
	}},
}

// overviewSpec and zoomSpec are the two LOD requests the repository
// benchmark sends: the resolution=64 overview, and a resolution=256 zoom
// over an eighth of the steps with max_rows=16.
func overviewSpec() Spec { return Spec{Resolution: 64} }

func zoomSpec(maxStep int32) Spec {
	return Spec{Resolution: 256, Steps: &query.StepRange{From: maxStep / 4, To: maxStep/4 + maxStep/8}, MaxRows: 16}
}

func overviewLevel(p *Pyramid) int { return p.levelFor(overviewSpec().Resolution, 0, p.S.MaxStep()) }

func zoomLevel(p *Pyramid) int {
	sp := zoomSpec(p.S.MaxStep())
	return p.levelFor(sp.Resolution, sp.Steps.From, sp.Steps.To)
}

// TestPyramidBytesPerEvent is the pyramid's size gate on the traces
// cold-ingest uploads, for each shape of built levels: over the medium zoo,
// the clustering plus the overview must stay within 10 bytes an event,
// plus the zoom within 40, and every level within 90 (the 104-byte int64
// cells of the eager pyramid came to 156). Bytes — what the result cache
// charges a resident pyramid — must equal an independent count of the
// clustering and of every built level slice's length × element size, so
// the accounting cannot drift from the layout.
func TestPyramidBytesPerEvent(t *testing.T) {
	structs := make([]*core.Structure, len(mediumZoo))
	var events int64
	for i, w := range mediumZoo {
		structs[i] = extractRegistry(t, w.app, w.p)
		events += int64(len(structs[i].Trace.Events))
	}
	for _, sh := range shapes {
		var bytes int64
		for i, s := range structs {
			p := Build(s, nil)
			want := clusteringBytes(p)
			built := map[int]bool{}
			for _, l := range sh.levels(p) {
				if !built[l] {
					built[l] = true
					want += sliceBytes(reflect.ValueOf(*p.Level(l)))
				}
			}
			if p.Bytes() != want {
				t.Errorf("%s %s: Bytes() = %d, the clustering and built level slices hold %d", sh.name, mediumZoo[i].app, p.Bytes(), want)
			}
			bytes += p.Bytes()
		}
		per := float64(bytes) / float64(events)
		t.Logf("%s: %.1f B/event", sh.name, per)
		if per > sh.ceiling {
			t.Errorf("%s: pyramids hold %.1f B/event over the medium zoo, ceiling %.0f", sh.name, per, sh.ceiling)
		}
	}
}

// clusteringBytes is an independent count of what Build holds before any
// level: ClusterOf and each cluster's members, plus 16 bytes a cluster.
func clusteringBytes(p *Pyramid) int64 {
	n := int64(len(p.ClusterOf)) * 4
	for _, c := range p.Clusters {
		n += int64(len(c.Members))*4 + 16
	}
	return n
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
// the §4 report precomputed, building each shape's levels (overview;
// overview plus first zoom; every level), so the figure is the pyramid's
// own cost (clustering + cells + edges) for what each shape of traffic
// reads. Run by `make bench-lod`.
func BenchmarkBuild(b *testing.B) {
	structs := make([]*core.Structure, len(mediumZoo))
	reps := make([]*metrics.Report, len(mediumZoo))
	var events int
	for i, w := range mediumZoo {
		structs[i] = extractRegistry(b, w.app, w.p)
		reps[i] = metrics.Compute(structs[i])
		events += len(structs[i].Trace.Events)
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			var bytes int64
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				bytes = 0
				for i, s := range structs {
					benchSink = Build(s, reps[i])
					for _, l := range sh.levels(benchSink) {
						benchSink.Level(l)
					}
					bytes += benchSink.Bytes()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
			b.ReportMetric(float64(bytes)/float64(events), "B/event")
		})
	}
}

var querySink *Result

// BenchmarkQuery is one Query per medium zoo pyramid for each of the
// warm-explore workload's request shapes — the overview at resolution=64,
// a zoom at resolution=256 over an eighth of the steps with max_rows=16 —
// and a one-step window: the read side of the pyramid layout, which Build's
// figures do not show. Each request's level is built before the timer
// starts. Run by `make bench-lod`.
func BenchmarkQuery(b *testing.B) {
	type request struct {
		p  *Pyramid
		sp Spec
	}
	var reqs []request
	for _, w := range mediumZoo {
		s := extractRegistry(b, w.app, w.p)
		p, maxStep := Build(s, nil), s.MaxStep()
		one := &query.StepRange{From: maxStep / 2, To: maxStep / 2}
		for _, sp := range []Spec{overviewSpec(), zoomSpec(maxStep), {Steps: one}} {
			reqs = append(reqs, request{p, sp})
			p.Query(sp, nil) // builds the level, which is BenchmarkBuild's cost
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
