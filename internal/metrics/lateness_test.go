package metrics

import (
	"testing"

	"charmtrace/internal/apps/nasbt"
	"charmtrace/internal/conformance"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

func TestLatenessProperties(t *testing.T) {
	tr := nasbt.MustTrace(nasbt.DefaultConfig())
	s, err := core.Extract(tr, core.MessagePassingOptions())
	if err != nil {
		t.Fatal(err)
	}
	late := Lateness(s)
	if len(late) != len(tr.Events) {
		t.Fatalf("lateness entries = %d, want %d", len(late), len(tr.Events))
	}
	// Non-negative; at least one zero per populated step.
	zeroAt := map[int32]bool{}
	for e, v := range late {
		if v < 0 {
			t.Fatalf("negative lateness at event %d", e)
		}
		if v == 0 {
			zeroAt[s.Step[e]] = true
		}
	}
	for e := range tr.Events {
		if !zeroAt[s.Step[e]] {
			t.Fatalf("step %d has no zero-lateness event", s.Step[e])
		}
	}
	// Lateness equals time minus the step minimum.
	min := map[int32]trace.Time{}
	for e := range tr.Events {
		st := s.Step[e]
		if cur, ok := min[st]; !ok || tr.Events[e].Time < cur {
			min[st] = tr.Events[e].Time
		}
	}
	for e := range tr.Events {
		if late[e] != tr.Events[e].Time-min[s.Step[e]] {
			t.Fatalf("lateness mismatch at event %d", e)
		}
	}
}

func TestReportTotals(t *testing.T) {
	tr := twoChareTrace(t)
	r := Compute(extract(t, tr))
	var idle, imb trace.Time
	for _, v := range r.IdleExperienced {
		idle += v
	}
	for _, v := range r.PhaseImbalance {
		imb += v
	}
	if r.TotalIdleExperienced() != idle {
		t.Fatalf("TotalIdleExperienced = %d, want %d", r.TotalIdleExperienced(), idle)
	}
	if r.TotalImbalance() != imb {
		t.Fatalf("TotalImbalance = %d, want %d", r.TotalImbalance(), imb)
	}
}

func TestHighDifferentialEventsEmptyWhenUniform(t *testing.T) {
	// All sub-blocks identical -> no differential signal.
	b := trace.NewBuilder(2)
	e := b.AddEntry("work")
	c0 := b.AddChare("a", trace.NoArray, -1, 0)
	c1 := b.AddChare("b", trace.NoArray, -1, 1)
	m0, m1 := b.NewMsg(), b.NewMsg()
	b.BeginBlock(c0, 0, e, 0)
	b.Send(c0, m0, 10)
	b.EndBlock(c0, 10)
	b.BeginBlock(c1, 1, e, 0)
	b.Send(c1, m1, 10)
	b.EndBlock(c1, 10)
	b.BeginBlock(c0, 0, e, 2000)
	b.Recv(c0, m1, 2000)
	b.EndBlock(c0, 2000)
	b.BeginBlock(c1, 1, e, 2000)
	b.Recv(c1, m0, 2000)
	b.EndBlock(c1, 2000)
	tr := b.MustFinish()
	r := Compute(extract(t, tr))
	if got := r.HighDifferentialEvents(0.5); got != nil {
		t.Fatalf("uniform trace produced high-differential events: %v", got)
	}
	if max, _ := r.MaxDifferentialDuration(); max != 0 {
		t.Fatalf("uniform trace max differential = %d", max)
	}
}

// TestDenseTablesMatchMapGrouping: computeDifferential and Lateness group
// events through dense tables (phase prefix offset + local step, and global
// step); on all nine conformance workloads they must give exactly what
// grouping through a map keyed by the pair, or the step, gives.
func TestDenseTablesMatchMapGrouping(t *testing.T) {
	for _, w := range conformance.Zoo() {
		s, err := core.Extract(w.MustGen(), w.Opts)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		r := Compute(s)
		type group struct{ phase, step int32 }
		minDur := map[group]trace.Time{}
		minTime := map[int32]trace.Time{}
		for e, ev := range s.Trace.Events {
			g := group{s.PhaseOf[e], s.LocalStep[e]}
			if cur, ok := minDur[g]; !ok || r.SubDur[e] < cur {
				minDur[g] = r.SubDur[e]
			}
			if cur, ok := minTime[s.Step[e]]; !ok || ev.Time < cur {
				minTime[s.Step[e]] = ev.Time
			}
		}
		late := Lateness(s)
		for e, ev := range s.Trace.Events {
			if want := r.SubDur[e] - minDur[group{s.PhaseOf[e], s.LocalStep[e]}]; r.DifferentialDuration[e] != want {
				t.Fatalf("%s: differential duration of event %d = %d, map grouping says %d", w.Name, e, r.DifferentialDuration[e], want)
			}
			if want := ev.Time - minTime[s.Step[e]]; late[e] != want {
				t.Fatalf("%s: lateness of event %d = %d, map grouping says %d", w.Name, e, late[e], want)
			}
		}
	}
}
