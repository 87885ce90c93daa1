package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lulesh"
	"charmtrace/internal/apps/mergetree"
	"charmtrace/internal/flat"
	"charmtrace/internal/partition"
	"charmtrace/internal/trace"
)

// refPartInfo holds one buildPartInfo result to the per-event definition:
// every event of every part, the earliest by (time, ID) per chare, the
// earliest send among those per PE, and the earliest time overall.
func refPartInfo(tr *trace.Trace, a *atoms, v *partition.View, info *partInfos) error {
	for pi := range v.Parts {
		first, src, minTime := map[trace.ChareID]trace.EventID{}, map[trace.PE]trace.Time{}, trace.Time(1<<62-1)
		for _, atom := range v.Parts[pi].Atoms {
			for _, e := range a.set.AtomEvents(atom) {
				ev := &tr.Events[e]
				if f, ok := first[ev.Chare]; !ok || ev.Time < tr.Events[f].Time || ev.Time == tr.Events[f].Time && e < f {
					first[ev.Chare] = e
				}
				minTime = min(minTime, ev.Time)
			}
		}
		for _, e := range first {
			if t, ok := src[tr.Events[e].PE]; tr.Events[e].Kind == trace.Send && (!ok || tr.Events[e].Time < t) {
				src[tr.Events[e].PE] = tr.Events[e].Time
			}
		}
		row, got := info.initEvent[info.chareOff[pi]:info.chareOff[pi+1]], info.src[info.chareOff[pi]:info.srcEnd[pi]]
		ok := len(row) == len(first) && len(got) == len(src) && info.minTime[pi] == minTime
		for j, c := range v.Parts[pi].Chares {
			ok = ok && row[j] == first[c]
		}
		for j, s := range got {
			t, has := src[s.pe]
			ok = ok && has && t == s.t && (j == 0 || got[j-1].pe < s.pe)
		}
		if !ok {
			return fmt.Errorf("part %d: initial events, earliest time or sources differ from the per-event scan", pi)
		}
	}
	return nil
}

// batchShape generates one of the repository benchmark's batch-extract
// traces.
type batchShape struct {
	name string
	gen  func() (*trace.Trace, error)
	opt  Options
}

var batchShapes = []batchShape{
	{"jacobi32i16", func() (*trace.Trace, error) {
		cfg := jacobi.DefaultConfig()
		cfg.Grid, cfg.Iterations = 32, 16
		return jacobi.Trace(cfg)
	}, DefaultOptions()},
	{"lulesh6", func() (*trace.Trace, error) {
		cfg := lulesh.DefaultConfig()
		cfg.Grid = 6
		return lulesh.CharmTrace(cfg)
	}, DefaultOptions()},
	{"mergetree4096", func() (*trace.Trace, error) {
		cfg := mergetree.DefaultConfig()
		cfg.Procs = 4096
		return mergetree.Trace(cfg)
	}, MessagePassingOptions()},
}

// TestSnapshotsPerExtract pins how many partition snapshots one Extract
// builds on three batch-extract shapes — one per partition state some stage
// looks at; before the set kept its View, every cycle merge and every stage
// built its own (10, 10 and 6) — and checks that the set's final snapshot is
// the one a fresh build gives.
func TestSnapshotsPerExtract(t *testing.T) {
	limit := map[string]int{"jacobi32i16": 4, "lulesh6": 5, "mergetree4096": 2}
	for _, shape := range batchShapes {
		if raceEnabled && shape.name != "lulesh6" {
			continue // seconds to generate under the detector; the plain run pins it
		}
		tr, err := shape.gen()
		if err != nil {
			t.Fatal(err)
		}
		var got int
		var memo, fresh *partition.View
		extractHook = func(a *atoms, _ *Structure) {
			got = a.set.Snapshots()
			memo = a.set.View()
			a.set.AddEdge(0, 0) // a self-loop: drops the snapshot, changes no partition
			fresh = a.set.View()
		}
		_, err = Extract(tr, shape.opt)
		extractHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if got > limit[shape.name] {
			t.Errorf("%s: %d snapshots per Extract, want at most %d", shape.name, got, limit[shape.name])
		}
		if memo == fresh || !reflect.DeepEqual(memo.Parts, fresh.Parts) || !reflect.DeepEqual(memo.PartOf, fresh.PartOf) || !reflect.DeepEqual(memo.G, fresh.G) {
			t.Errorf("%s: the kept snapshot differs from a fresh one", shape.name)
		}
	}
}

// TestCollisionEdgesStayOutOfTheSnapshot: the structure's phase DAG starts
// as the set's final snapshot graph, and fixChareCollision appends order
// edges to it. Those must land in the structure's own adjacency, never in
// the snapshot the set keeps and hands out again. The collision is forced by
// giving two phases that share a chare the same offset.
func TestCollisionEdgesStayOutOfTheSnapshot(t *testing.T) {
	cfg := jacobi.DefaultConfig()
	tr, err := jacobi.Trace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	extractHook = func(a *atoms, s *Structure) {
		ran = true
		v, n := a.set.View(), a.set.Snapshots()
		want := make([][]int32, len(v.G.Adj))
		for u, row := range v.G.Adj {
			want[u] = slices.Clone(row)
		}
		edges := s.DAG.NumEdges()
		p, q := sharingPhases(s)
		s.Phases[q].Offset = s.Phases[p].Offset
		if !fixChareCollision(s, phasesOfChares(s), make([]int32, len(s.Phases))) || s.DAG.NumEdges() != edges+1 {
			t.Fatal("forced collision added no edge")
		}
		if a.set.View() != v || a.set.Snapshots() != n {
			t.Fatal("the set built a new snapshot without a mutation")
		}
		if !reflect.DeepEqual(v.G.Adj, want) {
			t.Fatal("an edge added to the structure's DAG reached the set's snapshot")
		}
	}
	defer func() { extractHook = nil }()
	if _, err := Extract(tr, DefaultOptions()); err != nil || !ran {
		t.Fatal("extraction failed or never reached the hook:", err)
	}
}

// phasesOfChares groups s's phases by the chares they hold: row c lists
// chare c's phases.
func phasesOfChares(s *Structure) flat.Rows[int32] {
	var chares []trace.ChareID
	var phases []int32
	for i := range s.Phases {
		for _, c := range s.Phases[i].Chares {
			chares, phases = append(chares, c), append(phases, int32(i))
		}
	}
	rows := flat.GroupAll[int32](len(s.Trace.Chares), nil, nil, chares)
	for k, i := range rows.IDs {
		rows.IDs[k] = phases[i]
	}
	return rows
}

// sharingPhases returns two phases that hold a common chare.
func sharingPhases(s *Structure) (int32, int32) {
	holder := map[trace.ChareID]int32{}
	for q := range s.Phases {
		for _, c := range s.Phases[q].Chares {
			if p, ok := holder[c]; ok {
				return p, int32(q)
			}
			holder[c] = int32(q)
		}
	}
	panic("no two phases share a chare")
}
