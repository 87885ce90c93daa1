package metrics

import (
	"reflect"
	"testing"

	"charmtrace/internal/conformance"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// refImbalance is computeImbalance as it stood before the PE-indexed table:
// one map operation per event to sum the phase loads, another per event to
// read them back. Kept as the reference the table version is held to.
func refImbalance(s *core.Structure, subDur []trace.Time, pe []trace.PE) (imb, phaseImb []trace.Time, phaseLoad []map[trace.PE]trace.Time) {
	imb = make([]trace.Time, len(subDur))
	phaseImb = make([]trace.Time, len(s.Phases))
	phaseLoad = make([]map[trace.PE]trace.Time, len(s.Phases))
	for pi := range s.Phases {
		phaseLoad[pi] = make(map[trace.PE]trace.Time)
	}
	for e, pi := range s.PhaseOf {
		if pi >= 0 {
			phaseLoad[pi][pe[e]] += subDur[e]
		}
	}
	minLoad := make([]trace.Time, len(s.Phases))
	for pi, load := range phaseLoad {
		first := true
		var lo, hi trace.Time
		for _, d := range load {
			if first {
				lo, hi = d, d
				first = false
				continue
			}
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		minLoad[pi] = lo
		phaseImb[pi] = hi - lo
	}
	for e, pi := range s.PhaseOf {
		if pi >= 0 {
			imb[e] = phaseLoad[pi][pe[e]] - minLoad[pi]
		}
	}
	return imb, phaseImb, phaseLoad
}

// TestImbalanceMatchesMapReference holds Imbalance, PhaseImbalance and
// PhaseLoad to the map code they replaced, on every zoo workload under
// both presets.
func TestImbalanceMatchesMapReference(t *testing.T) {
	for _, w := range conformance.Zoo() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tr := w.MustGen()
			for _, opts := range []core.Options{w.Opts, core.DefaultOptions(), core.MessagePassingOptions()} {
				s, err := core.Extract(tr, opts)
				if err != nil {
					t.Fatal(err)
				}
				r := Compute(s)
				imb, phaseImb, phaseLoad := refImbalance(s, r.SubDur, s.Table().PE)
				if !reflect.DeepEqual(r.Imbalance, imb) {
					t.Fatal("Imbalance differs from the map reference")
				}
				if !reflect.DeepEqual(r.PhaseImbalance, phaseImb) {
					t.Fatalf("PhaseImbalance %v, map reference %v", r.PhaseImbalance, phaseImb)
				}
				if !reflect.DeepEqual(r.PhaseLoad, phaseLoad) {
					t.Fatalf("PhaseLoad %v, map reference %v", r.PhaseLoad, phaseLoad)
				}
			}
		})
	}
}
