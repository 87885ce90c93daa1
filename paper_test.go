// The paper's evaluation (§6) as one table: a row per EXPERIMENTS.md ID.
// A row's builder runs its workloads on the bundled simulators, checks that
// the measured values have the shape the paper claims, and formats the
// row's "Measured" cell.
//
//	go test -run 'TestPaperClaims/fig16' -v .                  # one row; -v logs its measured line
//	go test -run TestExperimentsTable .                         # EXPERIMENTS.md against the builders
//	go test -run '^$' -bench 'PaperFigures/fig1[89]' -count 5 . # the timing rows
//
// BenchmarkPaperFigures times every extraction a builder makes, as
// PaperFigures/<id>/<case>. The paper-scale points (fig10 at 1,024
// processes, fig18 at 256 and 512 iterations, fig19 at 13,824 chares) are
// benchmark cases only, skipped under -short.
package charmtrace

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lassen"
	"charmtrace/internal/apps/lulesh"
	"charmtrace/internal/apps/mergetree"
	"charmtrace/internal/apps/nasbt"
	"charmtrace/internal/apps/pdes"
	"charmtrace/internal/core"
	"charmtrace/internal/metrics"
	"charmtrace/internal/structdiff"
	"charmtrace/internal/trace"
)

// claim is one row of EXPERIMENTS.md's table, in the table's order.
type claim struct {
	id string
	// build runs the row through l and returns its "Measured" cell. nil
	// for a row whose experiment was dropped.
	build func(l *lab) string
	// timing rows measure wall time: only BenchmarkPaperFigures runs them,
	// and their cells are written by hand from its output.
	timing bool
}

var claims = []claim{
	{id: "fig01", build: fig01},
	{id: "fig08", build: fig08},
	{id: "fig10", build: fig10},
	{id: "fig12", build: fig12},
	{id: "fig14", build: fig14},
	{id: "fig15", build: fig15},
	{id: "fig16", build: fig16},
	{id: "fig17", build: fig17},
	{id: "fig18", build: fig18, timing: true},
	{id: "fig19", build: fig19, timing: true},
	{id: "fig20", build: fig20},
	{id: "fig21", build: fig21},
	{id: "fig22", build: fig22},
	{id: "fig23", build: fig23},
	{id: "fig24", build: fig24},
	{id: "sec5", build: sec5},
	{id: "abl1", build: abl1},
	{id: "abl2", build: abl2},
	// abl3 (§3.3's parallel step assignment) is superseded: the ordering
	// stage is one phase-major pass, and internal/core's determinism suite
	// holds Extract byte-identical at every worker count.
	{id: "abl3"},
	{id: "inv1", build: inv1},
}

// lab is what a builder extracts through. Every extraction is validated;
// under BenchmarkPaperFigures each is also timed as a sub-benchmark.
type lab struct {
	tb     testing.TB
	b      *testing.B // nil outside BenchmarkPaperFigures
	broken []string   // the claims the measured values do not bear out
}

// measure runs c's builder, timing its extractions when b is set, and
// returns its cell and the claims that failed.
func (c claim) measure(tb testing.TB, b *testing.B) (string, []string) {
	l := &lab{tb: tb, b: b}
	cell := c.build(l)
	return cell, l.broken
}

// need records claim as failed unless ok.
func (l *lab) need(ok bool, claim string) {
	if !ok {
		l.broken = append(l.broken, claim)
	}
}

// extract recovers and validates tr's structure under opt; name is the
// benchmark case that times it.
func (l *lab) extract(name string, tr *trace.Trace, opt core.Options) *core.Structure {
	l.tb.Helper()
	s, err := core.Extract(tr, opt)
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		l.tb.Fatalf("%s: %v", name, err)
	}
	l.time(name, false, func() *trace.Trace { return tr }, opt)
	return s
}

// time adds a benchmark case extracting gen's trace under opt; outside
// BenchmarkPaperFigures it does nothing. A big case is a paper-scale point,
// skipped under -short. Besides ns/op it reports ns/event and the share of
// the §3.1.4 stages, which Figure 19 is about.
func (l *lab) time(name string, big bool, gen func() *trace.Trace, opt core.Options) {
	if l.b == nil {
		return
	}
	l.b.Run(name, func(b *testing.B) {
		if big && testing.Short() {
			b.Skip("paper-scale point; drop -short to run it")
		}
		tr := gen()
		var s *core.Structure
		for b.Loop() {
			var err error
			if s, err = core.Extract(tr, opt); err != nil {
				b.Fatal(err)
			}
		}
		st := s.Stats.StageTime
		var all float64
		for _, d := range st {
			all += float64(d)
		}
		sec314 := st["infer-dependencies"] + st["leap-merge"] + st["enforce-orderability"] + st["enforce-chare-paths"]
		b.ReportMetric(float64(len(tr.Events)), "events")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr.Events)), "ns/event")
		b.ReportMetric(100*float64(sec314)/all, "sec314-%")
	})
}

// TestPaperClaims runs every non-timing row and fails a row whose measured
// values break the paper's claim.
func TestPaperClaims(t *testing.T) {
	for _, c := range claims {
		if c.build == nil || c.timing {
			continue
		}
		t.Run(c.id, func(t *testing.T) {
			cell, broken := c.measure(t, nil)
			t.Logf("measured: %s", cell)
			for _, m := range broken {
				t.Errorf("claim does not hold: %s", m)
			}
		})
	}
}

// TestExperimentsTable holds EXPERIMENTS.md to the claim table: the same
// IDs in the same order, and each non-timing row's "Measured" cell exactly
// the string its builder formats.
func TestExperimentsTable(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	cells := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		row := strings.Split(strings.TrimSuffix(strings.TrimPrefix(line, "| "), " |"), " | ")
		if !strings.HasPrefix(line, "| ") || len(row) != 4 || row[0] == "ID" || strings.HasPrefix(row[0], "-") {
			continue
		}
		ids = append(ids, row[0])
		cells[row[0]] = row[2]
	}
	var want []string
	for _, c := range claims {
		want = append(want, c.id)
	}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("EXPERIMENTS.md rows %v, claim table rows %v", ids, want)
	}
	for _, c := range claims {
		if c.build == nil || c.timing {
			continue
		}
		if cell, _ := c.measure(t, nil); cell != cells[c.id] {
			t.Errorf("EXPERIMENTS.md %s: the Measured cell is stale; paste:\n%s", c.id, cell)
		}
	}
}

// BenchmarkPaperFigures times each row's extractions, built by the row's
// own builder.
func BenchmarkPaperFigures(b *testing.B) {
	for _, c := range claims {
		if c.build == nil {
			continue
		}
		b.Run(c.id, func(b *testing.B) {
			_, broken := c.measure(b, b)
			for _, m := range broken {
				b.Errorf("claim does not hold: %s", m)
			}
		})
	}
}

// repeats splits a phasePattern into the shortest setup prefix followed by
// n copies of one unit; ok is false when no prefix allows that.
func repeats(pattern string, n int) (setup, unit string, ok bool) {
	tok := strings.Fields(pattern)
	for p := 0; p+n <= len(tok); p++ {
		if (len(tok)-p)%n != 0 {
			continue
		}
		k := (len(tok) - p) / n
		unit = strings.Join(tok[p:p+k], " ")
		ok = true
		for i := 1; i < n && ok; i++ {
			ok = strings.Join(tok[p+i*k:p+(i+1)*k], " ") == unit
		}
		if ok {
			return strings.Join(tok[:p], " "), unit, true
		}
	}
	return "", "", false
}

// shape writes a setup and a repeated unit as EXPERIMENTS.md does.
func shape(setup, unit string, n int) string {
	return strings.TrimSpace(fmt.Sprintf("%s (%s)×%d", setup, unit, n))
}

// recorded is opt stepping events in recorded order: no §3.2.1 reordering.
func recorded(opt core.Options) core.Options {
	opt.Reorder = false
	return opt
}

// iterationMatch is the share of the first two multi-chare application
// phases' receives, keyed by (chare, local step), that have the same
// sender in both: 1 when two iterations show one communication pattern.
func iterationMatch(s *core.Structure) float64 {
	var apps []int32
	for _, pi := range phasesByOffset(s) {
		if !s.Phases[pi].Runtime && len(s.Phases[pi].Chares) > 1 {
			apps = append(apps, pi)
		}
	}
	if len(apps) < 2 {
		return 0
	}
	senders := func(pi int32) map[[2]int32]trace.ChareID {
		out := map[[2]int32]trace.ChareID{}
		for _, e := range s.Phases[pi].Events {
			if ev := &s.Trace.Events[e]; ev.Kind == trace.Recv {
				out[[2]int32{int32(ev.Chare), s.LocalStep[e]}] = s.Trace.Events[s.Trace.MatchingSend(e)].Chare
			}
		}
		return out
	}
	a, b := senders(apps[0]), senders(apps[1])
	same := 0
	for k, v := range a {
		if w, ok := b[k]; ok && w == v {
			same++
		}
	}
	if len(a) == 0 {
		return 0
	}
	return float64(same) / float64(len(a))
}

func fig01(l *lab) string {
	cfg := nasbt.DefaultConfig()
	tr := nasbt.MustTrace(cfg)
	s := l.extract("mpi-9", tr, core.MessagePassingOptions())
	// Phase pairs that overlap in physical time, and those of them whose
	// global step ranges are disjoint: the separation Figure 1 shows.
	lo, hi := make([]trace.Time, len(s.Phases)), make([]trace.Time, len(s.Phases))
	for pi, p := range s.Phases {
		lo[pi] = 1<<62 - 1
		for _, e := range p.Events {
			lo[pi], hi[pi] = min(lo[pi], tr.Events[e].Time), max(hi[pi], tr.Events[e].Time)
		}
	}
	overlapping, separated := 0, 0
	for i := range s.Phases {
		a, b := s.Phases[i].GlobalSpan()
		for j := i + 1; j < len(s.Phases); j++ {
			if hi[i] < lo[j] || hi[j] < lo[i] {
				continue
			}
			overlapping++
			if c, d := s.Phases[j].GlobalSpan(); b < c || d < a {
				separated++
			}
		}
	}
	setup, unit, ok := repeats(phasePattern(s), cfg.Iterations)
	l.need(ok && setup == "", "the sweep phases repeat once per iteration")
	l.need(overlapping > 0 && 10*separated >= 9*overlapping,
		"at least 90 % of the physically interleaved phase pairs get disjoint step ranges")
	return fmt.Sprintf("%d phases over %d steps, `%s`; %d of %d physically interleaved phase pairs receive disjoint logical step ranges",
		s.NumPhases(), s.MaxStep()+1, shape(setup, unit, cfg.Iterations), separated, overlapping)
}

func fig08(l *lab) string {
	cfg := jacobi.DefaultConfig()
	cfg.Grid, cfg.NumPE, cfg.Iterations = 8, 8, 2
	tr := jacobi.MustTrace(cfg)
	re := iterationMatch(l.extract("reordered", tr, core.DefaultOptions()))
	rec := iterationMatch(l.extract("recorded", tr, recorded(core.DefaultOptions())))
	l.need(re == 1, "reordered, the two iterations share one communication pattern")
	l.need(rec <= 0.75, "in recorded order at most 75 % of positions match")
	return fmt.Sprintf("(chare, step)→sender pattern identical across iterations at **%.0f%%** of positions when reordered, **%.0f%%** in recorded order",
		100*re, 100*rec)
}

func fig10(l *lab) string {
	cfg := mergetree.DefaultConfig()
	paper := cfg
	l.time("reordered-1024", true, func() *trace.Trace { return mergetree.MustTrace(paper) }, core.MessagePassingOptions())
	cfg.Procs = 256
	tr := mergetree.MustTrace(cfg)
	// Per process, the steps of its ring (phase-1, same group) receive and
	// of its cross-group (phase-2) receive: a process whose ring receive is
	// stepped after the cross one was "forced to the right" (Figure 10(a)).
	inversions := func(s *core.Structure) (mass int64, inverted int) {
		ring, cross := map[trace.ChareID]int32{}, map[trace.ChareID]int32{}
		for e := range tr.Events {
			ev := &tr.Events[e]
			if ev.Kind != trace.Recv {
				continue
			}
			send := tr.Events[tr.MatchingSend(trace.EventID(e))]
			if tr.Chares[send.Chare].Index/cfg.GroupSize == tr.Chares[ev.Chare].Index/cfg.GroupSize {
				ring[ev.Chare] = s.Step[e]
				mass += int64(s.Step[e])
			} else {
				cross[ev.Chare] = s.Step[e]
			}
		}
		for c, rs := range ring {
			if cs, ok := cross[c]; ok && rs > cs {
				inverted++
			}
		}
		return mass, inverted
	}
	reMass, reInv := inversions(l.extract("reordered", tr, core.MessagePassingOptions()))
	recMass, recInv := inversions(l.extract("recorded", tr, recorded(core.MessagePassingOptions())))
	l.need(2*reInv <= recInv, "reordering at least halves the processes stepped out of phase order")
	l.need(reMass < recMass, "and moves the ring receives earlier")
	return fmt.Sprintf("at %d procs: %d processes have their phase-1 receive stepped after phase-2 in recorded order, %d after reordering (the rest stem from phase-level placement, not stepping); ring-receive step mass drops %.1f%%",
		cfg.Procs, recInv, reInv, 100*float64(recMass-reMass)/float64(recMass))
}

func fig12(l *lab) string {
	cfg := jacobi.DefaultConfig()
	cfg.SlowChare = 0 // a slow corner chare gates the reduction
	tr := jacobi.MustTrace(cfg)
	r := metrics.Compute(l.extract("jacobi-16", tr, core.DefaultOptions()))
	n := 0
	for _, v := range r.IdleExperienced {
		if v > 0 {
			n++
		}
	}
	l.need(n > 0 && n < len(tr.Events), "some events, not all, experience idle")
	return fmt.Sprintf("%d events carry idle-experienced (%d µs total) across %d recorded idle spans; propagation stops at blocks with post-idle dependencies (unit-tested)",
		n, r.TotalIdleExperienced()/1000, len(tr.Idles))
}

// slowJacobi is Figures 14 and 15's run: one chare slowed in one iteration.
func slowJacobi(l *lab) (jacobi.Config, *core.Structure, *metrics.Report) {
	cfg := jacobi.DefaultConfig()
	cfg.SlowChare, cfg.SlowIteration = 5, 1
	s := l.extract("jacobi-16-slow", jacobi.MustTrace(cfg), core.DefaultOptions())
	return cfg, s, metrics.Compute(s)
}

func fig14(l *lab) string {
	_, s, r := slowJacobi(l)
	_, at := r.MaxDifferentialDuration()
	slow := s.PhaseOf[at]
	var rest trace.Time
	for pi, v := range r.PhaseImbalance {
		if int32(pi) != slow {
			rest = max(rest, v)
		}
	}
	l.need(r.PhaseImbalance[slow] >= 10*rest, "the long event's phase carries at least 10× any other phase's imbalance")
	return fmt.Sprintf("the phase containing the injected slow compute carries imbalance %d ns; all other phases ≤ %d ns",
		r.PhaseImbalance[slow], rest)
}

func fig15(l *lab) string {
	cfg, s, r := slowJacobi(l)
	maxD, at := r.MaxDifferentialDuration()
	chare := s.Trace.Chares[s.Trace.Events[at].Chare]
	want := trace.Time(cfg.SlowFactor-1) * trace.Time(cfg.Compute)
	l.need(!chare.Runtime && chare.Index == cfg.SlowChare, "the maximum sits on the slowed chare")
	l.need(maxD == want, "the maximum equals (factor−1)·compute")
	return fmt.Sprintf("max differential duration %d ns on `%s`, the slowed chare; (factor−1)·compute is %d ns", maxD, chare.Name, want)
}

func fig16(l *lab) string {
	cfg := lulesh.DefaultConfig()
	mpi := l.extract("mpi", lulesh.MustMPITrace(cfg), core.MessagePassingOptions())
	charm := l.extract("charm", lulesh.MustCharmTrace(cfg), core.DefaultOptions())
	mSetup, mUnit, mOK := repeats(phasePattern(mpi), cfg.Iterations)
	cSetup, cUnit, cOK := repeats(phasePattern(charm), cfg.Iterations)
	l.need(mOK && mSetup != "" && mUnit == "a a a a", "MPI: setup, then [3 p2p phases + allreduce] per iteration")
	l.need(cOK && cSetup != "" && cUnit == "a a R", "Charm++: setup, then [2 p2p phases + runtime allreduce] per iteration")
	return fmt.Sprintf("MPI: %d phases, `%s`; Charm++: %d phases, `%s`; per-iteration difference %d phase",
		mpi.NumPhases(), shape(mSetup, mUnit, cfg.Iterations), charm.NumPhases(), shape(cSetup, cUnit, cfg.Iterations),
		len(strings.Fields(mUnit))-len(strings.Fields(cUnit)))
}

func fig17(l *lab) string {
	tr := lulesh.MustCharmTrace(lulesh.DefaultConfig())
	with := l.extract("inferred", tr, core.DefaultOptions())
	opt := core.DefaultOptions()
	opt.InferDependencies = false
	without := l.extract("not-inferred", tr, opt)
	l.need(without.NumPhases() >= 2*with.NumPhases(), "without inference the phases split: at least twice as many")
	l.need(without.MaxStep() > with.MaxStep(), "and the split phases are placed one after another: more steps")
	return fmt.Sprintf("phase count grows %d → %d and the step extent %d → %d as the splits are placed one after another",
		with.NumPhases(), without.NumPhases(), with.MaxStep()+1, without.MaxStep()+1)
}

func fig18(l *lab) string {
	cfg := lulesh.DefaultConfig()
	cfg.Grid, cfg.NumPE = 4, 8 // 64 chares
	for _, it := range []int{8, 16, 32, 64, 128, 256, 512} {
		cfg.Iterations = it
		c := cfg
		l.time(fmt.Sprintf("iters=%d", it), it > 128, func() *trace.Trace { return lulesh.MustCharmTrace(c) }, core.DefaultOptions())
	}
	return ""
}

func fig19(l *lab) string {
	cfg := lulesh.DefaultConfig()
	cfg.Iterations = 8
	for _, g := range []int{4, 6, 8, 12, 16, 24} { // 64 … 13,824 chares
		cfg.Grid, cfg.NumPE = g, g*g*g/8
		c := cfg
		l.time(fmt.Sprintf("chares=%d", g*g*g), g > 16, func() *trace.Trace { return lulesh.MustCharmTrace(c) }, core.DefaultOptions())
	}
	return ""
}

func fig20(l *lab) string {
	var cells []string
	for _, cfg := range []lassen.Config{lassen.DefaultConfig(), lassen.FineConfig()} {
		n := cfg.GridX * cfg.GridY
		mpi := l.extract(fmt.Sprintf("mpi-%d", n), lassen.MustMPITrace(cfg), core.MessagePassingOptions())
		charm := l.extract(fmt.Sprintf("charm-%d", n), lassen.MustCharmTrace(cfg), core.DefaultOptions())
		mSetup, mUnit, mOK := repeats(phasePattern(mpi), cfg.Iterations)
		cSetup, cUnit, cOK := repeats(phasePattern(charm), cfg.Iterations)
		l.need(mOK && mSetup == "" && mUnit == "a a", "MPI repeats [p2p phase + allreduce]")
		l.need(cOK && cSetup == "" && cUnit == fmt.Sprintf("a a*%d R", n),
			"Charm++ repeats [p2p phase, a concurrent control phase per chare, runtime reduction]")
		// The allreduce is every second MPI phase; the control phases are
		// the Charm++ phases of one chare.
		twoStep := true
		for i, pi := range phasesByOffset(mpi) {
			twoStep = twoStep && (i%2 == 0 || mpi.Phases[pi].MaxLocalStep == 1)
		}
		for _, p := range charm.Phases {
			twoStep = twoStep && (len(p.Chares) != 1 || p.MaxLocalStep == 1)
		}
		l.need(twoStep, "every MPI allreduce phase and Charm++ control phase spans two steps")
		cells = append(cells, fmt.Sprintf("MPI %d procs `%s`, Charm++ %d chares `%s`",
			n, shape(mSetup, mUnit, cfg.Iterations), n, shape(cSetup, cUnit, cfg.Iterations)))
	}
	return strings.Join(cells, "; ") + " — p2p, one concurrent two-step self-invocation control phase per chare, runtime reduction; every MPI allreduce phase spans exactly 2 steps"
}

func fig21(l *lab) string {
	cfg := lassen.DefaultConfig()
	cfg.Iterations = 8
	s := l.extract("charm-8", lassen.MustCharmTrace(cfg), core.DefaultOptions())
	r := metrics.Compute(s)
	// The chare of each point-to-point phase's maximum differential duration.
	var tops []trace.EventID
	for _, pi := range phasesByOffset(s) {
		p := &s.Phases[pi]
		if p.Runtime || len(p.Chares) < 2 {
			continue
		}
		best := p.Events[0]
		for _, e := range p.Events {
			if r.DifferentialDuration[e] > r.DifferentialDuration[best] {
				best = e
			}
		}
		if r.DifferentialDuration[best] > 0 {
			tops = append(tops, best)
		}
	}
	if len(tops) == 0 {
		l.tb.Fatal("fig21: no point-to-point phase has a differential duration")
	}
	first, last := tops[0], tops[len(tops)-1]
	same := 0
	for _, e := range tops {
		if s.Trace.Events[e].Chare == s.Trace.Events[first].Chare {
			same++
		}
	}
	l.need(len(tops) >= 2 && same == len(tops), "one chare carries the maximum in every point-to-point phase")
	return fmt.Sprintf("the per-phase max-differential event sits on `%s` in %d of the %d point-to-point phases (%d→%d ns as the in-chare ring grows)",
		s.Trace.Chares[s.Trace.Events[first].Chare].Name, same, len(tops), r.DifferentialDuration[first], r.DifferentialDuration[last])
}

// lassenPair is Figures 22 and 23's runs: 16 iterations on 8 and on 64 chares.
func lassenPair(l *lab) (coarse, fine *core.Structure) {
	c, f := lassen.DefaultConfig(), lassen.FineConfig()
	c.Iterations, f.Iterations = 16, 16
	return l.extract("charm-8", lassen.MustCharmTrace(c), core.DefaultOptions()),
		l.extract("charm-64", lassen.MustCharmTrace(f), core.DefaultOptions())
}

func fig22(l *lab) string {
	coarse, fine := lassenPair(l)
	maxC, _ := metrics.Compute(coarse).MaxDifferentialDuration()
	maxF, _ := metrics.Compute(fine).MaxDifferentialDuration()
	ratio := float64(maxC) / float64(maxF)
	l.need(ratio >= 4/1.5 && ratio <= 4*1.5, "the 64-chare maximum is about a fourth of the 8-chare one (within a factor 1.5 of 4)")
	return fmt.Sprintf("%d ns vs %d ns = %.1fx", maxC, maxF, ratio)
}

func fig23(l *lab) string {
	coarse, fine := lassenPair(l)
	rc, rf := metrics.Compute(coarse), metrics.Compute(fine)
	// Chares with a differential duration of at least 80 ns in the first
	// and in the last third of the 64-chare run's steps.
	early, late := map[trace.ChareID]bool{}, map[trace.ChareID]bool{}
	maxStep := fine.MaxStep()
	for e, d := range rf.DifferentialDuration {
		switch c := fine.Trace.Events[e].Chare; {
		case d < 80:
		case fine.Step[e] < maxStep/3:
			early[c] = true
		case fine.Step[e] > 2*maxStep/3:
			late[c] = true
		}
	}
	peak := func(r *metrics.Report) (p trace.Time) {
		for _, d := range r.PhaseImbalance {
			p = max(p, d)
		}
		return p
	}
	peakRatio := float64(peak(rc)) / float64(peak(rf))
	totalRatio := float64(rc.TotalImbalance()) / float64(rf.TotalImbalance())
	l.need(len(late) > len(early), "more chares carry high differential duration late than early")
	l.need(peakRatio >= 2, "the 64-chare run's peak phase imbalance is at most half the 8-chare run's")
	l.need(totalRatio > 1, "the 64-chare run's total imbalance is lower")
	return fmt.Sprintf("high-differential chares grow %d→%d between early and late thirds (64-chare run); peak phase imbalance ratio %.1fx; total imbalance ratio %.2fx",
		len(early), len(late), peakRatio, totalRatio)
}

func fig24(l *lab) string {
	cfg := pdes.DefaultConfig()
	missing := l.extract("unrecorded", pdes.MustTrace(cfg), core.DefaultOptions())
	cfg.TraceDetectorCall = true
	traced := l.extract("recorded", pdes.MustTrace(cfg), core.DefaultOptions())
	pm, pt := phasePattern(missing), phasePattern(traced)
	cm, ct := missing.ConcurrentPhases(), traced.ConcurrentPhases()
	l.need(len(cm) == 1 && strings.HasPrefix(pm, "a*2"), "unrecorded: the simulation and detector phases share offset 0, one concurrent pair")
	l.need(len(ct) == 0 && !strings.Contains(pt, "*"), "recorded: no concurrent phases")
	return fmt.Sprintf("unrecorded: `%s`, exactly %d concurrent phase pair (simulation, detector) at offset 0; recording the call (the §7.1 recommendation) gives `%s` and %d",
		pm, len(cm), pt, len(ct))
}

func sec5(l *lab) string {
	cfg := jacobi.DefaultConfig()
	with := jacobi.MustTrace(cfg)
	cfg.TraceReductions = false
	without := jacobi.MustTrace(cfg)
	l.extract("with", with, core.DefaultOptions())
	l.extract("without", without, core.DefaultOptions())
	// Recorded dependencies from an application chare to a runtime one.
	anchored := func(tr *trace.Trace) int {
		n := 0
		for _, ev := range tr.Events {
			if ev.Kind != trace.Send || tr.IsRuntimeChare(ev.Chare) {
				continue
			}
			for _, r := range tr.MatchingRecvs(ev.ID) {
				if tr.IsRuntimeChare(tr.Events[r].Chare) {
					n++
				}
			}
		}
		return n
	}
	extra, aw, ao := len(with.Events)-len(without.Events), anchored(with), anchored(without)
	l.need(aw > 0 && ao == 0, "only the additions record application→runtime dependencies")
	l.need(extra <= 4*aw, "the additions cost at most four events per contribute")
	return fmt.Sprintf("+%d events over the %d-event stock trace (one send+receive per contribute plus chain records); with additions, %d recorded application→runtime dependencies anchor the reduction phases; without, %d — ordering then rests entirely on inferred physical-time heuristics",
		extra, len(without.Events), aw, ao)
}

func abl1(l *lab) string {
	tr := lulesh.MustCharmTrace(lulesh.DefaultConfig())
	on := l.extract("on", tr, core.DefaultOptions())
	opt := core.DefaultOptions()
	opt.NeighborSerialMerge = false
	off := l.extract("off", tr, opt)
	l.need(phasePattern(on) == phasePattern(off), "on LULESH the refinement changes no phase")
	return fmt.Sprintf("phase structure unchanged on LULESH (%d vs %d): the other merges already connect the serials; the refinement is a safety net",
		on.NumPhases(), off.NumPhases())
}

func abl2(l *lab) string {
	cfg := jacobi.DefaultConfig()
	cfg.Grid, cfg.Iterations = 6, 2
	tr := jacobi.MustTrace(cfg)
	// A topology-aware rank: squared distance from the domain centre.
	topo := core.DefaultOptions()
	topo.ChareRank = make([]int32, len(tr.Chares))
	for i, c := range tr.Chares {
		topo.ChareRank[i] = int32(i)
		if !c.Runtime {
			dx, dy := 2*(c.Index%cfg.Grid)-(cfg.Grid-1), 2*(c.Index/cfg.Grid)-(cfg.Grid-1)
			topo.ChareRank[i] = int32(dx*dx + dy*dy)
		}
	}
	invoker := iterationMatch(l.extract("invoking-chare", tr, core.DefaultOptions()))
	rank := iterationMatch(l.extract("topology-rank", tr, topo))
	phys := iterationMatch(l.extract("physical-time", tr, recorded(core.DefaultOptions())))
	l.need(invoker == 1 && rank == 1, "both reorderings are stable across iterations")
	l.need(phys <= 0.75, "physical time is not (at most 75 % of positions match)")
	return fmt.Sprintf("cross-iteration pattern stability: invoking-chare %.0f%%, topology-rank %.0f%%, physical time %.0f%% — both reorderings are stable; ranks change only presentation order (the paper's §3.2.1 intuition)",
		100*invoker, 100*rank, 100*phys)
}

func inv1(l *lab) string {
	const seeds = 8
	cfg := jacobi.DefaultConfig()
	base := l.extract(fmt.Sprintf("seed=%d", cfg.Seed), jacobi.MustTrace(cfg), core.DefaultOptions())
	same := 0
	for seed := int64(2); seed < 2+seeds; seed++ {
		cfg.Seed = seed
		d, err := structdiff.Compare(base, l.extract(fmt.Sprintf("seed=%d", seed), jacobi.MustTrace(cfg), core.DefaultOptions()))
		if err != nil {
			l.tb.Fatal(err)
		}
		if d.Empty() {
			same++
		}
	}
	l.need(same == seeds, "every seed recovers an equivalent structure")
	return fmt.Sprintf("%d/%d alternative-seed Jacobi runs — different network jitter and execution interleavings — recover an equivalent logical structure (`structdiff` certified)",
		same, seeds)
}
