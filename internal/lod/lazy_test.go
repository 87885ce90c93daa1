package lod

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"charmtrace/internal/conformance"
	"charmtrace/internal/core"
	"charmtrace/internal/query"
)

// randomSpec draws a request over a structure with steps 0..maxStep:
// native or a budget up to 300 buckets, the whole run or a window that may
// overshoot it, and the row and edge caps.
func randomSpec(rng *rand.Rand, maxStep int32) Spec {
	sp := Spec{MaxRows: rng.Intn(6), MaxEdges: rng.Intn(10), NoEdges: rng.Intn(4) == 0}
	if rng.Intn(4) != 0 {
		sp.Resolution = Resolution(1 + rng.Intn(300))
	}
	if rng.Intn(3) != 0 {
		from := rng.Int31n(maxStep + 2)
		sp.Steps = &query.StepRange{From: from, To: from + rng.Int31n(maxStep+2)}
	}
	return sp
}

// TestLazyLevelsConcurrent: eight goroutines each run 50 random queries on
// one fresh pyramid per zoo trace, so first uses of a level race each
// other. Every level is built exactly once — Bytes() is the clustering
// plus an independent count of the built levels, which a second build
// would have added again — and every response marshals to the bytes a
// pyramid queried sequentially gives.
func TestLazyLevelsConcurrent(t *testing.T) {
	const goroutines, queries = 8, 50
	for _, w := range conformance.Zoo() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			s, err := core.Extract(w.MustGen(), w.Opts)
			if err != nil {
				t.Fatal(err)
			}
			specs := make([][]Spec, goroutines)
			want := make([][][]byte, goroutines)
			seq := Build(s, nil)
			for g := range specs {
				rng := rand.New(rand.NewSource(int64(g)))
				for q := 0; q < queries; q++ {
					sp := randomSpec(rng, s.MaxStep())
					res, err := seq.Query(sp, nil)
					if err != nil {
						t.Fatal(err)
					}
					b, _ := json.Marshal(res)
					specs[g], want[g] = append(specs[g], sp), append(want[g], b)
				}
			}

			p := Build(s, nil)
			got := make([][][]byte, goroutines)
			var wg sync.WaitGroup
			for g := range specs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for _, sp := range specs[g] {
						res, err := p.Query(sp, nil)
						if err != nil {
							t.Error(err)
							return
						}
						b, _ := json.Marshal(res)
						got[g] = append(got[g], b)
					}
				}(g)
			}
			wg.Wait()
			if !reflect.DeepEqual(got, want) {
				t.Fatal("concurrent responses differ from the sequential pyramid's")
			}

			bytes, built := clusteringBytes(p), 0
			for l := range p.levels {
				if lvl := &p.levels[l].level; lvl.rowStart != nil {
					bytes += sliceBytes(reflect.ValueOf(*lvl))
					built++
				}
			}
			if p.Bytes() != bytes {
				t.Fatalf("Bytes() = %d, the clustering and %d built levels hold %d", p.Bytes(), built, bytes)
			}
			if built == 0 && p.NumLevels() > 0 {
				t.Fatal("no level was built")
			}
		})
	}
}
