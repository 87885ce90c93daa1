package charegroup

import (
	"reflect"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lulesh"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

func jacobiStructure(t *testing.T, grid int) *core.Structure {
	t.Helper()
	cfg := jacobi.DefaultConfig()
	cfg.Grid = grid
	// Remove jitter-driven variation between otherwise identical chares by
	// keeping the workload symmetric; steps are logical so jitter does not
	// affect them anyway.
	tr := jacobi.MustTrace(cfg)
	s, err := core.Extract(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExactClustersJacobiByRole(t *testing.T) {
	s := jacobiStructure(t, 4)
	clusters := Exact(s)
	if err := Validate(s, clusters); err != nil {
		t.Fatal(err)
	}
	// Application chares decompose by grid role: 4 corners (2 neighbours),
	// 8 edges (3), 4 interior (4). Corners share a signature only if their
	// receive orders coincide; at minimum the clustering must be far
	// smaller than the chare count and group only equal-degree chares.
	var appClusters []Cluster
	for _, c := range clusters {
		if !c.Runtime {
			appClusters = append(appClusters, c)
		}
	}
	if len(appClusters) >= 16 {
		t.Fatalf("no compression: %d app clusters for 16 chares", len(appClusters))
	}
	degree := func(c trace.ChareID) int {
		idx := s.Trace.Chares[c].Index
		x, y := idx%4, idx/4
		d := 0
		if x > 0 {
			d++
		}
		if x < 3 {
			d++
		}
		if y > 0 {
			d++
		}
		if y < 3 {
			d++
		}
		return d
	}
	for _, c := range appClusters {
		want := degree(c.Members[0])
		for _, m := range c.Members[1:] {
			if degree(m) != want {
				t.Fatalf("cluster mixes degrees %d and %d", want, degree(m))
			}
		}
	}
}

func TestByPhaseShapeAtLeastAsCoarse(t *testing.T) {
	s := jacobiStructure(t, 4)
	exact := Exact(s)
	coarse := ByPhaseShape(s)
	if err := Validate(s, coarse); err != nil {
		t.Fatal(err)
	}
	if len(coarse) > len(exact) {
		t.Fatalf("phase-shape clustering (%d) finer than exact (%d)", len(coarse), len(exact))
	}
}

func TestClusterCompressionOnLargeLULESH(t *testing.T) {
	cfg := lulesh.DefaultConfig()
	cfg.Grid = 4 // 64 chares
	cfg.NumPE = 8
	tr := lulesh.MustCharmTrace(cfg)
	s, err := core.Extract(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	clusters := ByPhaseShape(s)
	if err := Validate(s, clusters); err != nil {
		t.Fatal(err)
	}
	if len(clusters) > len(tr.Chares)/2 {
		t.Fatalf("weak compression: %d clusters for %d chares", len(clusters), len(tr.Chares))
	}
	// Totals preserved.
	total := 0
	for _, c := range clusters {
		total += c.Size()
	}
	if total != len(tr.Chares) {
		t.Fatalf("cluster sizes sum to %d, want %d", total, len(tr.Chares))
	}
}

func TestLabels(t *testing.T) {
	s := jacobiStructure(t, 4)
	for _, c := range Exact(s) {
		l := c.Label(s.Table())
		if l == "" {
			t.Fatal("empty label")
		}
		if c.Size() > 1 && l == s.Trace.Chares[c.Representative].Name {
			t.Fatal("multi-member label missing multiplicity")
		}
	}
}

// TestSignatureCollisionsSplit forces every chare onto one signature: the
// clustering must come out exactly as with the real hash, because chares are
// grouped by comparing timelines, not by trusting 64 bits.
func TestSignatureCollisionsSplit(t *testing.T) {
	s := jacobiStructure(t, 4)
	collide := func(*core.Structure, trace.ChareID, bool) uint64 { return 7 }
	for _, withStep := range []bool{true, false} {
		want := clusterBy(s, withStep, signature)
		got := clusterBy(s, withStep, collide)
		if err := Validate(s, got); err != nil {
			t.Fatal(err)
		}
		if len(want) < 2 {
			t.Fatalf("withStep=%v: fixture has %d clusters; nothing to split", withStep, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("withStep=%v: all-colliding signature gave %d clusters %+v, want %d %+v",
				withStep, len(got), got, len(want), want)
		}
		for i, c := range got {
			for _, m := range c.Members[1:] {
				if !sameTimeline(s, c.Representative, m, withStep) {
					t.Fatalf("withStep=%v: chare %d grouped with %d but their timelines differ", withStep, m, c.Representative)
				}
			}
			for _, d := range got[:i] {
				if d.Runtime == c.Runtime && sameTimeline(s, d.Representative, c.Representative, withStep) {
					t.Fatalf("withStep=%v: clusters of %d and %d have one timeline", withStep, d.Representative, c.Representative)
				}
			}
		}
	}
}
