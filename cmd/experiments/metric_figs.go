package main

import (
	"fmt"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lassen"
	"charmtrace/internal/apps/mergetree"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/trace"
)

func init() {
	register("fig10", "MPI merge tree, 1,024 processes: stepping without and with reordering", figMergeTree)
	register("fig12", "Jacobi 2D, 16 chares: idle experienced while waiting on the reduction", figIdle)
	register("fig14", "Jacobi 2D with a slow chare: processor imbalance per phase", figImbalance)
	register("fig15", "Jacobi 2D with a slow chare: differential duration singles it out", figDifferential)
	register("fig21", "LASSEN 8 chares: repeated high-differential events on the same chare", figLassenDiff8)
	register("fig22", "LASSEN 64 chares: peak differential duration ~1/4 of the 8-chare run", figLassenDiff64)
	register("fig23", "LASSEN: wavefront growth spreads high differential duration", figLassenSpread)
}

func figMergeTree(big bool) {
	cfg := mergetree.DefaultConfig()
	if !big {
		cfg.Procs = 256
		fmt.Println("  (256 processes; pass -big for the paper's 1,024)")
	}
	tr := must(mergetree.Trace(cfg))

	reordered := extract(tr, core.MessagePassingOptions())
	opt := core.MessagePassingOptions()
	opt.Reorder = false
	recorded := extract(tr, opt)

	ringMass := func(s *core.Structure) (int64, int32) {
		var sum int64
		var worst int32
		for e := range tr.Events {
			ev := &tr.Events[e]
			if ev.Kind != trace.Recv {
				continue
			}
			send := tr.Events[tr.MatchingSend(trace.EventID(e))]
			if int(tr.Chares[send.Chare].Index)/cfg.GroupSize == int(tr.Chares[ev.Chare].Index)/cfg.GroupSize {
				sum += int64(s.Step[e])
				if s.Step[e] > worst {
					worst = s.Step[e]
				}
			}
		}
		return sum, worst
	}
	reSum, reWorst := ringMass(reordered)
	recSum, recWorst := ringMass(recorded)
	// Count processes whose phase-1 receive is stepped AFTER their phase-2
	// receive — the events "forced to the right" in Figure 10(a).
	inverted := func(s *core.Structure) int {
		n := 0
		ringStep := make(map[trace.ChareID]int32)
		crossStep := make(map[trace.ChareID]int32)
		for e := range tr.Events {
			ev := &tr.Events[e]
			if ev.Kind != trace.Recv {
				continue
			}
			send := tr.Events[tr.MatchingSend(trace.EventID(e))]
			if int(tr.Chares[send.Chare].Index)/cfg.GroupSize == int(tr.Chares[ev.Chare].Index)/cfg.GroupSize {
				ringStep[ev.Chare] = s.Step[e]
			} else {
				crossStep[ev.Chare] = s.Step[e]
			}
		}
		for c, rs := range ringStep {
			if cs, ok := crossStep[c]; ok && rs > cs {
				n++
			}
		}
		return n
	}
	reInv, recInv := inverted(reordered), inverted(recorded)
	fmt.Printf("  phase-1 (ring) receive steps: recorded total %d (worst %d), reordered total %d (worst %d)\n",
		recSum, recWorst, reSum, reWorst)
	fmt.Printf("  processes with phase-1 receive stepped after phase-2: recorded %d, reordered %d\n",
		recInv, reInv)
	paperVsMeasured(
		"irregular receive order forces some early events to be stepped much later than their peers; reordering restores the parallel structure of the initial steps",
		fmt.Sprintf("recorded order leaves %d processes with inverted phases; reordering leaves %d and cuts the ring receives' step mass by %.1f%%",
			recInv, reInv, 100*float64(recSum-reSum)/float64(recSum)))
}

func figIdle(bool) {
	cfg := jacobi.DefaultConfig()
	cfg.SlowChare = 0 // one slow corner chare gates the reduction
	tr := must(jacobi.Trace(cfg))
	s := extract(tr, core.DefaultOptions())
	r := metrics.Compute(s)
	withIdle := 0
	for _, v := range r.IdleExperienced {
		if v > 0 {
			withIdle++
		}
	}
	fmt.Printf("  idle spans recorded: %d; events experiencing idle: %d; total idle experienced: %d ns\n",
		len(tr.Idles), withIdle, r.TotalIdleExperienced())
	paperVsMeasured(
		"tasks waiting on the reduction experience idle; blocks dependent on events after the idle do not",
		fmt.Sprintf("%d events carry idle-experienced totalling %d ns, all on blocks whose dependencies started before the idle ended",
			withIdle, r.TotalIdleExperienced()))
}

func slowJacobi() (*trace.Trace, *core.Structure, *metrics.Report, jacobi.Config) {
	cfg := jacobi.DefaultConfig()
	cfg.SlowChare = 5
	cfg.SlowIteration = 1
	tr := must(jacobi.Trace(cfg))
	s := extract(tr, core.DefaultOptions())
	return tr, s, metrics.Compute(s), cfg
}

func figImbalance(bool) {
	_, s, r, _ := slowJacobi()
	_, slowEvent := r.MaxDifferentialDuration()
	slowPhase := s.PhaseOf[slowEvent]
	fmt.Printf("  %-6s %-8s %-6s %s\n", "phase", "kind", "offset", "imbalance (ns)")
	for _, pi := range phasesByOffset(s) {
		kind := "app"
		if s.Phases[pi].Runtime {
			kind = "runtime"
		}
		mark := ""
		if pi == slowPhase {
			mark = "  <- contains the long event"
		}
		fmt.Printf("  %-6d %-8s %-6d %d%s\n", pi, kind, s.Phases[pi].Offset, r.PhaseImbalance[pi], mark)
	}
	paperVsMeasured(
		"the iteration with the long event shows greater imbalance than the one after it",
		fmt.Sprintf("phase %d (the long event's) carries the maximum imbalance %d ns",
			slowPhase, r.PhaseImbalance[slowPhase]))
}

func figDifferential(bool) {
	tr, s, r, cfg := slowJacobi()
	maxD, at := r.MaxDifferentialDuration()
	slow := tr.Chares[tr.Events[at].Chare]
	fmt.Printf("  max differential duration: %d ns at chare %s, global step %d\n",
		maxD, slow.Name, s.Step[at])
	fmt.Printf("  injected: chare %d slowed %dx in iteration %d (base compute %d ns)\n",
		cfg.SlowChare, cfg.SlowFactor, cfg.SlowIteration, cfg.Compute)
	paperVsMeasured(
		"one chare experiences a significantly longer compute block than its peers at the same logical step",
		fmt.Sprintf("differential duration singles out chare %d with %d ns excess (expected (factor-1)*compute = %d ns)",
			slow.Index, maxD, (int64(cfg.SlowFactor)-1)*int64(cfg.Compute)))
}

func lassenReports(iters int) (*metrics.Report, *metrics.Report, *core.Structure, *core.Structure) {
	coarse := lassen.DefaultConfig()
	coarse.Iterations = iters
	fine := lassen.FineConfig()
	fine.Iterations = iters
	sc := extract(must(lassen.CharmTrace(coarse)), core.DefaultOptions())
	sf := extract(must(lassen.CharmTrace(fine)), core.DefaultOptions())
	return metrics.Compute(sc), metrics.Compute(sf), sc, sf
}

func figLassenDiff8(bool) {
	rc, _, sc, _ := lassenReports(8)
	tr := sc.Trace
	// Per point-to-point phase, the chare carrying the max differential.
	fmt.Printf("  %-8s %-12s %s\n", "phase", "max diff", "chare")
	consistent := true
	var firstChare trace.ChareID = trace.NoChare
	for _, pi := range phasesByOffset(sc) {
		p := &sc.Phases[pi]
		if p.Runtime || len(p.Chares) < 2 {
			continue
		}
		var best trace.EventID = trace.NoEvent
		for _, e := range p.Events {
			if best == trace.NoEvent || rc.DifferentialDuration[e] > rc.DifferentialDuration[best] {
				best = e
			}
		}
		if best == trace.NoEvent || rc.DifferentialDuration[best] == 0 {
			continue
		}
		c := tr.Events[best].Chare
		fmt.Printf("  %-8d %-12d %s\n", pi, rc.DifferentialDuration[best], tr.Chares[c].Name)
		if firstChare == trace.NoChare {
			firstChare = c
		} else if c != firstChare {
			consistent = false
		}
	}
	paperVsMeasured(
		"a repeating pattern: the same events of the same chare carry the higher duration every iteration",
		fmt.Sprintf("max-differential chare identical across point-to-point phases: %v", consistent))
}

func figLassenDiff64(bool) {
	rc, rf, _, _ := lassenReports(16)
	maxC, _ := rc.MaxDifferentialDuration()
	maxF, _ := rf.MaxDifferentialDuration()
	fmt.Printf("  8-chare max differential:  %d ns\n", maxC)
	fmt.Printf("  64-chare max differential: %d ns\n", maxF)
	paperVsMeasured(
		"the 64-chare run exhibits a maximum differential duration one fourth that of the 8-chare run (the wavefront splits into smaller pieces)",
		fmt.Sprintf("ratio = %.1fx", float64(maxC)/float64(maxF)))
}

func figLassenSpread(bool) {
	rc, rf, sc, sf := lassenReports(16)
	spread := func(r *metrics.Report, s *core.Structure, threshold trace.Time) (int, int) {
		maxStep := s.MaxStep()
		early := map[trace.ChareID]bool{}
		late := map[trace.ChareID]bool{}
		for e := range s.Trace.Events {
			if r.DifferentialDuration[e] < threshold {
				continue
			}
			switch {
			case s.Step[e] < maxStep/3:
				early[s.Trace.Events[e].Chare] = true
			case s.Step[e] > 2*maxStep/3:
				late[s.Trace.Events[e].Chare] = true
			}
		}
		return len(early), len(late)
	}
	ce, cl := spread(rc, sc, 80)
	fe, fl := spread(rf, sf, 80)
	fmt.Printf("  8-chare:  chares with high differential — early third %d, late third %d\n", ce, cl)
	fmt.Printf("  64-chare: chares with high differential — early third %d, late third %d\n", fe, fl)
	peak := func(r *metrics.Report) trace.Time {
		var best trace.Time
		for _, d := range r.PhaseImbalance {
			if d > best {
				best = d
			}
		}
		return best
	}
	fmt.Printf("  imbalance: 8-chare total %d (peak phase %d); 64-chare total %d (peak phase %d)\n",
		rc.TotalImbalance(), peak(rc), rf.TotalImbalance(), peak(rf))
	paperVsMeasured(
		"as the wavefront propagates, more chares share the high differential duration; the 64-chare run has less than half as much imbalance overall",
		fmt.Sprintf("high-differential chares grow %d->%d (64-chare run); peak imbalance ratio %.1fx, total ratio %.2fx",
			fe, fl, float64(peak(rc))/float64(peak(rf)),
			float64(rc.TotalImbalance())/float64(rf.TotalImbalance())))
}
