package skew

import (
	"math/rand"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lbmigrate"
	"charmtrace/internal/apps/lulesh"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

func baseTrace(t *testing.T) *trace.Trace {
	t.Helper()
	return jacobi.MustTrace(jacobi.DefaultConfig())
}

func TestInjectShiftsOnlyTargetPEs(t *testing.T) {
	tr := baseTrace(t)
	offsets := make([]trace.Time, tr.NumPE)
	offsets[3] = 5000
	skewed, err := Inject(tr, offsets)
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	for e := range tr.Events {
		want := tr.Events[e].Time
		if tr.Events[e].PE == 3 {
			want += 5000
		}
		if skewed.Events[e].Time != want {
			t.Fatalf("event %d time = %d, want %d", e, skewed.Events[e].Time, want)
		}
	}
	// Original untouched.
	if Violations(tr, 1) != 0 {
		t.Fatal("unskewed trace has violations")
	}
}

func TestInjectRejectsWrongLength(t *testing.T) {
	tr := baseTrace(t)
	if _, err := Inject(tr, make([]trace.Time, tr.NumPE+1)); err == nil {
		t.Fatal("wrong offset count accepted")
	}
}

func TestSkewCreatesAndCorrectRemovesViolations(t *testing.T) {
	tr := baseTrace(t)
	offsets := make([]trace.Time, tr.NumPE)
	for p := range offsets {
		offsets[p] = trace.Time(p * 700) // staircase skew up to 4.9us
	}
	skewed, err := Inject(tr, offsets)
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	broken := Violations(skewed, 1)
	if broken == 0 {
		t.Fatal("staircase skew produced no causal violations; test ineffective")
	}
	fixed, applied, err := Correct(skewed, 1)
	if err != nil {
		t.Fatalf("Correct: %v", err)
	}
	if got := Violations(fixed, 1); got != 0 {
		t.Fatalf("violations after Correct = %d, want 0", got)
	}
	if len(applied) != tr.NumPE {
		t.Fatalf("applied offsets = %d entries", len(applied))
	}
	// The corrected trace extracts into a valid structure.
	s, err := core.Extract(fixed, core.DefaultOptions())
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCorrectIsNoOpOnCleanTrace(t *testing.T) {
	tr := baseTrace(t)
	fixed, offsets, err := Correct(tr, 1)
	if err != nil {
		t.Fatalf("Correct: %v", err)
	}
	for p, off := range offsets {
		if off != 0 {
			t.Fatalf("PE %d offset = %d on a clean trace, want 0", p, off)
		}
	}
	if Violations(fixed, 1) != 0 {
		t.Fatal("violations introduced by Correct")
	}
}

// TestCorrectRecoversStructureUnderSkew: the headline property — the
// logical structure recovered from a skew-corrected trace matches the
// original trace's, even though raw extraction on the skewed trace would
// consume scrambled physical-time heuristics.
func TestCorrectRecoversStructureUnderSkew(t *testing.T) {
	tr := baseTrace(t)
	orig, err := core.Extract(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	offsets := make([]trace.Time, tr.NumPE)
	for p := range offsets {
		offsets[p] = trace.Time(rng.Intn(4000))
	}
	skewed, err := Inject(tr, offsets)
	if err != nil {
		t.Fatal(err)
	}
	fixed, _, err := Correct(skewed, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Extract(fixed, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPhases() != orig.NumPhases() {
		t.Fatalf("phases = %d after skew correction, original %d", got.NumPhases(), orig.NumPhases())
	}
}

// Property: Correct always yields zero violations or a clear infeasibility
// error, over random skews.
func TestCorrectPropertyRandomSkews(t *testing.T) {
	tr := baseTrace(t)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20; i++ {
		offsets := make([]trace.Time, tr.NumPE)
		for p := range offsets {
			offsets[p] = trace.Time(rng.Intn(10000))
		}
		skewed, err := Inject(tr, offsets)
		if err != nil {
			t.Fatal(err)
		}
		fixed, _, err := Correct(skewed, 1)
		if err != nil {
			t.Fatal(err) // uniform per-PE skew is always feasible
		}
		if Violations(fixed, 1) != 0 {
			t.Fatalf("iteration %d: violations remain", i)
		}
	}
}

// TestViolationsIgnoreSamePEMessages: a message sent and received on one
// processor cannot be broken by a per-processor clock offset, so it is not a
// violation. The unskewed lulesh and lbmigrate traces each carry same-PE
// messages received within a tick of their send (7 and 2), and read 0.
func TestViolationsIgnoreSamePEMessages(t *testing.T) {
	lu, err := lulesh.CharmTrace(lulesh.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lb, err := lbmigrate.Trace(lbmigrate.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*trace.Trace{"lulesh": lu, "lbmigrate": lb} {
		if n := Violations(tr, 1); n != 0 {
			t.Errorf("%s: %d violations on the unskewed trace, want 0", name, n)
		}
	}
}
