package lod

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"charmtrace/internal/cli"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/trace"
)

// TestEdgeListAgainstNaive drives the packed-key edge machinery — pack,
// radix sort, run-length combine, then one halving per level down to a
// single bucket — on random messages at key widths either side of 64 bits,
// and compares each level with a map re-aggregation sorted by comparator.
func TestEdgeListAgainstNaive(t *testing.T) {
	for _, tc := range []struct {
		name         string
		bBits, cBits uint
		wide         bool
	}{
		{"one-slot", 0, 0, false},
		{"one-cluster", 6, 0, false},
		{"one-step", 0, 5, false},
		{"narrow", 5, 3, false},
		{"64-bits", 16, 16, false},
		{"66-bits", 17, 16, true}, // wide at the base, 64 bits one level up
		{"wide", 20, 24, true},
		{"124-bits", 31, 31, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.bBits)<<8 | int64(tc.cBits)))
			// Few distinct endpoints — three drawn over the whole field range
			// and their low-bit siblings — so that keys repeat at the base,
			// sibling runs interleave at the first halving, and the rest
			// collide level by level.
			field := func(bits uint) []int32 {
				vals := make([]int32, 6)
				for i := 0; i < 3; i++ {
					vals[i] = int32(rng.Int63n(1 << bits))
					vals[i+3] = vals[i]
					if bits > 0 {
						vals[i+3] ^= 1
					}
				}
				return vals
			}
			buckets, clusters := field(tc.bBits), field(tc.cBits)
			pick := func(vals []int32) int32 { return vals[rng.Intn(len(vals))] }
			want := map[Edge]int64{}
			const n = 2000
			msgs, tmp := newEdgeList(n, tc.bBits, tc.cBits), newEdgeList(n, tc.bBits, tc.cBits)
			if (msgs.hi != nil) != tc.wide {
				t.Fatalf("hi column present = %v, want %v", msgs.hi != nil, tc.wide)
			}
			for i := 0; i < n; i++ {
				e := Edge{pick(buckets), pick(clusters), pick(buckets), pick(clusters), 0}
				want[e]++
				msgs.set(i, msgs.pack(e.SrcBucket, e.SrcCluster, e.DstBucket, e.DstCluster), 1)
			}
			msgs.sortAndCombine(&tmp)
			level := Level{edges: msgs.clone(tc.bBits)}
			checkEdges(t, &level, want)
			for bBits := tc.bBits; bBits > 0; {
				level.edges.halveInto(&msgs, tc.cBits)
				bBits--
				msgs.halveInto(&tmp, 2*tc.cBits+bBits)
				level = Level{edges: tmp.clone(bBits)}
				half := map[Edge]int64{}
				for e, w := range want {
					e.SrcBucket /= 2
					e.DstBucket /= 2
					half[e] += w
				}
				want = half
				if (level.edges.hi != nil) != (2*(bBits+tc.cBits) > 64) {
					t.Fatalf("bBits=%d: hi column present = %v", bBits, level.edges.hi != nil)
				}
				checkEdges(t, &level, want)
			}
			if len(want) > len(clusters)*len(clusters) {
				t.Fatalf("top level holds %d edges for %d clusters", len(want), len(clusters))
			}
		})
	}
}

// checkEdges compares a level's edge list, and its SrcBucket search, with
// the expected aggregate.
func checkEdges(t *testing.T, l *Level, want map[Edge]int64) {
	t.Helper()
	sorted := make([]Edge, 0, len(want))
	for e, w := range want {
		e.Weight = w
		sorted = append(sorted, e)
	}
	sort.Slice(sorted, func(i, j int) bool { return edgeBefore(sorted[i], sorted[j]) })
	got := l.allEdges()
	if len(got) != len(sorted) || len(got) > 0 && !reflect.DeepEqual(got, sorted) {
		t.Fatalf("bBits=%d: edges\n%v\nwant\n%v", l.edges.bBits, got, sorted)
	}
	for _, b := range []int32{0, 1, sorted[len(sorted)/2].SrcBucket, sorted[len(sorted)-1].SrcBucket, sorted[len(sorted)-1].SrcBucket + 1} {
		first := sort.Search(len(sorted), func(i int) bool { return sorted[i].SrcBucket >= b })
		if at := l.edges.from(b); at != first {
			t.Fatalf("bBits=%d: from(%d) = %d, want %d", l.edges.bBits, b, at, first)
		}
	}
}

// extractBuilt extracts a hand-built trace.
func extractBuilt(t *testing.T, b *trace.Builder) *core.Structure {
	t.Helper()
	s, err := core.Extract(b.MustFinish(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBuildDegenerateShapes: the shapes at which a key field is zero bits
// wide — no steps at all, one step, one cluster — build, answer the request
// grid and agree with the dense oracle.
func TestBuildDegenerateShapes(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		s := extractBuilt(t, trace.NewBuilder(1))
		p := Build(s, nil)
		if len(p.Levels) != 0 || p.Bytes() != 0 {
			t.Fatalf("empty structure built %d levels, %d bytes", len(p.Levels), p.Bytes())
		}
		checkAgainstOracle(t, s, nil)
	})
	t.Run("one-step", func(t *testing.T) {
		// Two chares that each only send: every event sits at step 0.
		b := trace.NewBuilder(1)
		entry := b.AddEntry("fire")
		for i := 0; i < 2; i++ {
			c := b.AddChare("c", 0, i, 0)
			b.BeginBlock(c, 0, entry, trace.Time(10*i))
			b.Send(c, b.NewMsg(), trace.Time(10*i+1))
			b.EndBlock(c, trace.Time(10*i+2))
		}
		s := extractBuilt(t, b)
		if s.MaxStep() != 0 {
			t.Fatalf("fixture has max step %d, want 0", s.MaxStep())
		}
		if p := Build(s, nil); len(p.Levels) != 1 || p.Levels[0].edges.bBits != 0 {
			t.Fatalf("one step built %d levels", len(p.Levels))
		}
		checkAgainstOracle(t, s, nil)
	})
	t.Run("one-cluster", func(t *testing.T) {
		// One chare messaging itself five times: one row, eleven steps,
		// edges at every level.
		b := trace.NewBuilder(1)
		entry := b.AddEntry("again")
		c := b.AddChare("c", 0, 0, 0)
		b.BeginBlock(c, 0, entry, 0)
		msg := b.NewMsg()
		b.Send(c, msg, 1)
		b.EndBlock(c, 2)
		for i := 1; i <= 5; i++ {
			at := trace.Time(10 * i)
			b.BeginBlock(c, 0, entry, at)
			b.Recv(c, msg, at)
			msg = b.NewMsg()
			b.Send(c, msg, at+1)
			b.EndBlock(c, at+2)
		}
		s := extractBuilt(t, b)
		p := Build(s, nil)
		if len(p.Clusters) != 1 || len(p.Levels) < 3 || len(p.Levels[0].edges.lo) == 0 {
			t.Fatalf("fixture: %d clusters, %d levels, %d base edges", len(p.Clusters), len(p.Levels), len(p.Levels[0].edges.lo))
		}
		checkAgainstOracle(t, s, nil)
	})
}

// TestBuildAllocsBounded: Build allocates per level and per cluster, never
// per event — a run eight times as long (three more levels) stays under the
// same ceiling, which the dense build's per-level maps and per-event hash
// writes exceeded a hundredfold.
func TestBuildAllocsBounded(t *testing.T) {
	const ceiling = 120
	var events [2]int
	for i, iters := range []int{4, 32} {
		s := extractRegistry(t, "jacobi", cli.Params{Scale: 8, Iterations: iters})
		rep := metrics.Compute(s)
		events[i] = len(s.Trace.Events)
		if allocs := testing.AllocsPerRun(5, func() { Build(s, rep) }); allocs > ceiling {
			t.Errorf("%d events: Build allocates %.0f times, ceiling %d", events[i], allocs, ceiling)
		}
	}
	if events[1] < 6*events[0] {
		t.Fatalf("fixture: %d vs %d events — the long run is not long", events[0], events[1])
	}
}
