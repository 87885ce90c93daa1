package conformance

// The differential conformance suite: every zoo workload is extracted at
// parallelism 1, 2 and 4, checked against the replay-clock oracle built
// from the generator's ground truth, and then re-extracted after each
// metamorphic trace rewrite to confirm the recovered structure is
// byte-identical. This is the repo's strongest end-to-end statement: the
// pipeline's output is a function of the trace's logical content only —
// not of worker scheduling, processor numbering, clock speed, or event
// labeling.

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
	"charmtrace/internal/viz"
)

// extract runs the pipeline at a given parallelism, failing the test on error.
func extract(t *testing.T, tr *trace.Trace, opts core.Options, par int) *core.Structure {
	t.Helper()
	opts.Parallelism = par
	s, err := core.Extract(tr, opts)
	if err != nil {
		t.Fatalf("extract (parallelism %d): %v", par, err)
	}
	return s
}

// TestDifferentialConformance sweeps the zoo: at each parallelism level the
// recovered structure must satisfy the replay-clock oracle, and all levels
// must render byte-identically.
func TestDifferentialConformance(t *testing.T) {
	for _, w := range Zoo() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.MustGen()
			o, err := NewOracle(tr)
			if err != nil {
				t.Fatal(err)
			}
			want := ""
			for _, par := range []int{1, 2, 4} {
				s := extract(t, tr, w.Opts, par)
				if err := o.Verify(s, 4096, 1); err != nil {
					t.Fatalf("parallelism %d: oracle: %v", par, err)
				}
				got := viz.Logical(s)
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("parallelism %d: structure differs from parallelism 1", par)
				}
			}
		})
	}
}

// TestMetamorphicPERenumbering: processor numbers are correlation keys, not
// inputs to any ordering decision — reversing them must leave the rendered
// structure byte-identical.
func TestMetamorphicPERenumbering(t *testing.T) {
	for _, w := range Zoo() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.MustGen()
			perm := make([]trace.PE, tr.NumPE)
			for i := range perm {
				perm[i] = trace.PE(tr.NumPE - 1 - i)
			}
			renum, err := RenumberPEs(tr, perm)
			if err != nil {
				t.Fatal(err)
			}
			base := extract(t, tr, w.Opts, 2)
			got := extract(t, renum, w.Opts, 2)
			if viz.Logical(got) != viz.Logical(base) {
				t.Fatal("PE renumbering changed the recovered structure")
			}
		})
	}
}

// TestMetamorphicTimeJitter: any monotone tie-preserving clock remap — the
// worst-case model of phase-boundary jitter — must leave the structure
// byte-identical, because the pipeline only ever compares times.
func TestMetamorphicTimeJitter(t *testing.T) {
	for _, w := range Zoo() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.MustGen()
			base := extract(t, tr, w.Opts, 2)
			for _, seed := range []int64{1, 42} {
				jit, err := JitterTimes(tr, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				got := extract(t, jit, w.Opts, 2)
				if viz.Logical(got) != viz.Logical(base) {
					t.Fatalf("seed %d: time jitter changed the recovered structure", seed)
				}
			}
		})
	}
}

// TestMetamorphicTimeShift: a trace moved along the time axis — by one tick,
// by 10^12, so that it starts at zero, or out to 2^61 — has the same phases,
// local and global steps and per-phase event order as the original. The
// ordering stage keys on offsets from the trace's first event, and before it
// did a shift that carried times to 2^62 wrapped its doubled time keys and
// changed the steps; a shift that carries any time that far is now refused by
// trace validation, naming the record.
func TestMetamorphicTimeShift(t *testing.T) {
	for _, w := range Zoo() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.MustGen()
			base := extract(t, tr, w.Opts, 2)
			minTime, maxTime := tr.Span()
			for _, d := range []trace.Time{1, 1e12, -minTime, 1 << 61} {
				shifted, err := ShiftTimes(tr, d)
				if err != nil {
					t.Fatalf("shift %d: %v", d, err)
				}
				got := extract(t, shifted, w.Opts, 2)
				if !slices.Equal(got.PhaseOf, base.PhaseOf) || !slices.Equal(got.LocalStep, base.LocalStep) || !slices.Equal(got.Step, base.Step) {
					t.Fatalf("shift %d changed PhaseOf, LocalStep or Step", d)
				}
				for pi := range base.Phases {
					if !slices.Equal(got.Phases[pi].Events, base.Phases[pi].Events) {
						t.Fatalf("shift %d changed the event order of phase %d", d, pi)
					}
				}
			}
			// Straddling the bound: the trace's middle lands on 2^62.
			_, err := ShiftTimes(tr, 1<<62-(minTime+maxTime)/2)
			if err == nil || !strings.Contains(err.Error(), "out of range (|time| must be below 2^62)") {
				t.Fatalf("shift across 2^62: err = %v, want the out-of-range rejection", err)
			}
		})
	}
}

// TestMetamorphicEventIDPermutation: relabeling event IDs while preserving
// the relative order of equal-time events must reproduce every placement
// (phase up to a consistent bijection, steps exactly) under the relabeling.
func TestMetamorphicEventIDPermutation(t *testing.T) {
	for _, w := range Zoo() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.MustGen()
			base := extract(t, tr, w.Opts, 2)
			perm2, perm, err := PermuteEventIDs(tr, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			got := extract(t, perm2, w.Opts, 2)
			if got.NumPhases() != base.NumPhases() {
				t.Fatalf("phase counts differ: %d vs %d", got.NumPhases(), base.NumPhases())
			}
			fwd := map[int32]int32{}
			rev := map[int32]int32{}
			for e := range tr.Events {
				pe := perm[e]
				if got.Step[pe] != base.Step[e] || got.LocalStep[pe] != base.LocalStep[e] {
					t.Fatalf("event %d (relabeled %d): steps %d/%d differ from %d/%d",
						e, pe, got.Step[pe], got.LocalStep[pe], base.Step[e], base.LocalStep[e])
				}
				bp, gp := base.PhaseOf[e], got.PhaseOf[pe]
				if m, ok := fwd[bp]; ok && m != gp {
					t.Fatalf("phase %d maps to both %d and %d", bp, m, gp)
				}
				if m, ok := rev[gp]; ok && m != bp {
					t.Fatalf("phases %d and %d collapse onto %d", m, bp, gp)
				}
				fwd[bp], rev[gp] = gp, bp
			}
		})
	}
}

// TestProjectionsRoundTripStructure is the reader acceptance criterion: a
// Projections-format serialization read back through ReadAuto must extract
// to a byte-identical structure versus the native in-memory trace.
func TestProjectionsRoundTripStructure(t *testing.T) {
	for _, w := range Zoo() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.MustGen()
			var buf bytes.Buffer
			if err := tracefile.WriteProjections(&buf, tr); err != nil {
				t.Fatal(err)
			}
			rt, err := tracefile.ReadAuto(&buf)
			if err != nil {
				t.Fatal(err)
			}
			base := extract(t, tr, w.Opts, 2)
			got := extract(t, rt, w.Opts, 2)
			if viz.Logical(got) != viz.Logical(base) {
				t.Fatal("Projections round trip changed the recovered structure")
			}
		})
	}
}
