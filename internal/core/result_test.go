package core

import (
	"testing"

	"charmtrace/internal/trace"
)

func TestResultAccessors(t *testing.T) {
	tr := barrierTrace(t, 4)
	s, err := Extract(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	apps := s.AppPhases()
	if len(apps) != 2 {
		t.Fatalf("app phases = %d, want 2", len(apps))
	}
	for _, pi := range apps {
		if s.Phases[pi].Runtime {
			t.Fatal("AppPhases returned a runtime phase")
		}
	}
	for e := range tr.Events {
		eid := trace.EventID(e)
		if s.PhaseOfEvent(eid).ID != s.PhaseOf[e] {
			t.Fatal("PhaseOfEvent inconsistent with PhaseOf")
		}
		if s.StepOf(eid) != s.Step[e] {
			t.Fatal("StepOf inconsistent with Step")
		}
	}
	byLeap := s.PhasesAtLeap()
	count := 0
	for l, ps := range byLeap {
		for _, pi := range ps {
			count++
			if s.Phases[pi].Leap != int32(l) {
				t.Fatal("PhasesAtLeap grouping wrong")
			}
		}
	}
	if count != s.NumPhases() {
		t.Fatalf("PhasesAtLeap covered %d phases, want %d", count, s.NumPhases())
	}
}

func TestStepSpanOfEmptyBlock(t *testing.T) {
	b := trace.NewBuilder(1)
	e := b.AddEntry("noop")
	c := b.AddChare("c", trace.NoArray, -1, 0)
	b.BeginBlock(c, 0, e, 0)
	b.EndBlock(c, 5)
	tr := b.MustFinish()
	s, err := Extract(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPhases() != 0 {
		t.Fatalf("event-free trace produced %d phases", s.NumPhases())
	}
	if s.MaxStep() != -1 {
		t.Fatalf("MaxStep = %d on empty structure, want -1", s.MaxStep())
	}
}

func TestEmptyTraceExtracts(t *testing.T) {
	b := trace.NewBuilder(1)
	tr := b.MustFinish()
	s, err := Extract(tr, DefaultOptions())
	if err != nil {
		t.Fatalf("Extract on empty trace: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumPhases() != 0 || len(s.ConcurrentPhases()) != 0 {
		t.Fatal("empty trace should have no phases")
	}
}
