package core

// The comparator ordering the ordering stage used until PR 19 — a time
// comparator sort per phase, heap-driven orderFragments and stepPhase under
// closure comparators, a packed-key comparator sort for the output order —
// kept as the oracle the comparison-free stage is held against: identical
// fragment placement, local steps and phase event order, phase by phase.

import (
	"fmt"
	"slices"
	"testing"

	"charmtrace/internal/apps/faultsim"
	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lassen"
	"charmtrace/internal/apps/lbmigrate"
	"charmtrace/internal/apps/lulesh"
	"charmtrace/internal/apps/mergetree"
	"charmtrace/internal/apps/nasbt"
	"charmtrace/internal/apps/ordstress"
	"charmtrace/internal/apps/pdes"
	"charmtrace/internal/flat"
	"charmtrace/internal/trace"
)

// timeOrderLess orders events by time, sends before receives at equal time
// (a message's send never follows its receive), then by ID.
func timeOrderLess(tr *trace.Trace, a, b trace.EventID) bool {
	ea, eb := &tr.Events[a], &tr.Events[b]
	if ea.Time != eb.Time {
		return ea.Time < eb.Time
	}
	if ea.Kind != eb.Kind {
		return ea.Kind == trace.Send
	}
	return a < b
}

// miniHeap is a minimal binary min-heap under a closure comparator. Every
// comparator used with it is a total order, so the pop sequence is the sorted
// order of the ready set — independent of push order and heap internals.
type miniHeap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *miniHeap[T]) push(x T) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *miniHeap[T]) pop() T {
	it := h.items
	top := it[0]
	n := len(it) - 1
	it[0] = it[n]
	it = it[:n]
	h.items = it
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(it[l], it[m]) {
			m = l
		}
		if r < n && h.less(it[r], it[m]) {
			m = r
		}
		if m == i {
			break
		}
		it[i], it[m] = it[m], it[i]
		i = m
	}
	return top
}

// refOrderFragments is the old orderFragments over the lane's fragment
// tables: a Kahn traversal of the deduplicated fragment graph whose ready
// heap is ordered by the recursive comparator.
func refOrderFragments(tr *trace.Trace, opt Options, nf int, ar *extractArena, ls *laneScratch, phaseOf []int32, pi int32) []int32 {
	invoker := func(fi int32) trace.ChareID {
		if send := tr.MatchingSend(ls.fragFirst[fi]); send != trace.NoEvent {
			return tr.Events[send].Chare
		}
		return trace.NoChare
	}
	sourceFrag := func(fi int32) int32 {
		if send := tr.MatchingSend(ls.fragFirst[fi]); send != trace.NoEvent && phaseOf[send] == pi {
			return ar.fragOf[send]
		}
		return -1
	}
	rank := func(c trace.ChareID) int32 {
		if opt.ChareRank != nil && c >= 0 && int(c) < len(opt.ChareRank) {
			return opt.ChareRank[c]
		}
		return int32(c)
	}
	wi := ls.fragWInit
	var cmp func(f, g int32, depth int) int
	cmp = func(f, g int32, depth int) int {
		if wi[f] != wi[g] {
			return int(wi[f]) - int(wi[g])
		}
		if rf, rg := rank(invoker(f)), rank(invoker(g)); rf != rg {
			return int(rf) - int(rg)
		}
		if invoker(f) != invoker(g) {
			return int(invoker(f)) - int(invoker(g))
		}
		if depth < 4 {
			sf, sg := sourceFrag(f), sourceFrag(g)
			if sf >= 0 && sg >= 0 && sf != sg {
				if c := cmp(sf, sg, depth+1); c != 0 {
					return c
				}
			}
		}
		return 0
	}
	less := func(f, g int32) bool {
		if opt.Reorder {
			if c := cmp(f, g, 0); c != 0 {
				return c < 0
			}
		}
		if tf, tg := tr.Events[ls.fragFirst[f]].Time, tr.Events[ls.fragFirst[g]].Time; tf != tg {
			return tf < tg
		}
		return ls.fragBlock[f] < ls.fragBlock[g]
	}

	seen := map[[2]int32]bool{}
	succ := make([][]int32, nf)
	indeg := make([]int32, nf)
	for gi := int32(0); gi < int32(nf); gi++ {
		for _, e := range ls.fragEvents[ls.fragOff[gi]:ls.fragOff[gi+1]] {
			send := tr.MatchingSend(e)
			if send == trace.NoEvent || phaseOf[send] != pi {
				continue
			}
			if si := ar.fragOf[send]; si != gi && !seen[[2]int32{si, gi}] {
				seen[[2]int32{si, gi}] = true
				succ[si] = append(succ[si], gi)
				indeg[gi]++
			}
		}
	}
	ready := &miniHeap[int32]{less: less}
	for i := int32(0); i < int32(nf); i++ {
		if indeg[i] == 0 {
			ready.push(i)
		}
	}
	var out []int32
	for len(out) < nf {
		if len(ready.items) == 0 {
			best := int32(-1)
			for i := int32(0); i < int32(nf); i++ {
				if indeg[i] > 0 && (best < 0 || less(i, best)) {
					best = i
				}
			}
			indeg[best] = 0
			ready.push(best)
			continue
		}
		f := ready.pop()
		out = append(out, f)
		for _, gi := range succ[f] {
			indeg[gi]--
			if indeg[gi] == 0 {
				ready.push(gi)
			}
		}
	}
	return out
}

// refStepPhase is the old stepPhase: Kahn over the intra-fragment and
// send -> receive edges, the ready heap ordered by (fragment placement,
// position in fragment). It returns the phase events' local steps.
func refStepPhase(tr *trace.Trace, events []trace.EventID, placed []int32, phaseOf []int32, pi int32, ls *laneScratch) map[trace.EventID]int32 {
	place, pos := map[trace.EventID]int{}, map[trace.EventID]int{}
	indeg := map[trace.EventID]int{}
	adj := map[trace.EventID][]trace.EventID{}
	sendDep := map[trace.EventID]trace.EventID{}
	for pl, fi := range placed {
		evs := ls.fragEvents[ls.fragOff[fi]:ls.fragOff[fi+1]]
		for p, e := range evs {
			place[e], pos[e] = pl, p
			if p > 0 {
				adj[evs[p-1]] = append(adj[evs[p-1]], e)
				indeg[e]++
			}
		}
	}
	for _, e := range events {
		if send := tr.MatchingSend(e); send != trace.NoEvent && phaseOf[send] == pi {
			sendDep[e] = send
			adj[send] = append(adj[send], e)
			indeg[e]++
		}
	}
	h := &miniHeap[trace.EventID]{less: func(a, b trace.EventID) bool {
		if place[a] != place[b] {
			return place[a] < place[b]
		}
		return pos[a] < pos[b]
	}}
	for _, e := range events {
		if indeg[e] == 0 {
			h.push(e)
		}
	}
	step := map[trace.EventID]int32{}
	last := map[trace.ChareID]int32{}
	for len(h.items) > 0 {
		e := h.pop()
		c := tr.Events[e].Chare
		st := int32(0)
		if p, ok := last[c]; ok {
			st = p + 1
		}
		if sd, ok := sendDep[e]; ok && step[sd]+1 > st {
			st = step[sd] + 1
		}
		step[e], last[c] = st, st
		for _, n := range adj[e] {
			if indeg[n]--; indeg[n] == 0 {
				h.push(n)
			}
		}
	}
	return step
}

// checkAgainstReference re-orders every phase of an extracted structure the
// old way — on a fresh lane, from the phase's event set alone — and fails
// unless the new stage agrees: the fragment placement of a second run of the
// new orderFragments on the same lane, the LocalStep of every event, and
// Phases[i].Events element for element.
func checkAgainstReference(t *testing.T, tr *trace.Trace, opt Options) {
	t.Helper()
	s, err := Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	a := buildAtoms(tr, opt)
	ar := a.arena
	ar.w = flat.Grow(ar.w, ar.nEvents)
	ar.fragOf = flat.Grow(ar.fragOf, ar.nEvents)
	rankChares(ar, opt.ChareRank)
	ar.ensureLanes(1)
	ls := ar.lanes[0]
	for pi := range s.Phases {
		ph := &s.Phases[pi]
		events := slices.Clone(ph.Events)
		slices.SortFunc(events, func(x, y trace.EventID) int {
			if timeOrderLess(tr, x, y) {
				return -1
			}
			return 1
		})
		ls.epoch++
		phaseW(tr, opt, events, a, ar, ls, s.PhaseOf, int32(pi))
		nf := buildFragments(tr, events, a, ar, ls)
		want := refOrderFragments(tr, opt, nf, ar, ls, s.PhaseOf, int32(pi))
		if got := orderFragments(tr, opt, nf, ar, ls, s.PhaseOf, int32(pi)); !slices.Equal(got, want) {
			t.Fatalf("phase %d: fragments placed %v, reference %v", pi, got, want)
		}
		step := refStepPhase(tr, events, want, s.PhaseOf, int32(pi), ls)
		for _, e := range events {
			if s.LocalStep[e] != step[e] {
				t.Fatalf("phase %d: event %d has LocalStep %d, reference %d", pi, e, s.LocalStep[e], step[e])
			}
		}
		slices.SortFunc(events, func(x, y trace.EventID) int {
			kx := int64(step[x])<<32 | int64(uint32(tr.Events[x].Chare))
			ky := int64(step[y])<<32 | int64(uint32(tr.Events[y].Chare))
			if kx != ky {
				if kx < ky {
					return -1
				}
				return 1
			}
			return int(x) - int(y)
		})
		if !slices.Equal(ph.Events, events) {
			t.Fatalf("phase %d: Events differ from the reference output order", pi)
		}
	}
}

// refWorkloads generates every zoo app at a given simulator seed.
var refWorkloads = []struct {
	name string
	mp   bool
	gen  func(seed int64) (*trace.Trace, error)
}{
	{"jacobi", false, func(seed int64) (*trace.Trace, error) {
		cfg := jacobi.DefaultConfig()
		cfg.Seed = seed
		return jacobi.Trace(cfg)
	}},
	{"lulesh-charm", false, func(seed int64) (*trace.Trace, error) {
		cfg := lulesh.DefaultConfig()
		cfg.Seed = seed
		return lulesh.CharmTrace(cfg)
	}},
	{"lulesh-mpi", true, func(seed int64) (*trace.Trace, error) {
		cfg := lulesh.DefaultConfig()
		cfg.Seed = seed
		return lulesh.MPITrace(cfg)
	}},
	{"lassen", false, func(seed int64) (*trace.Trace, error) {
		cfg := lassen.DefaultConfig()
		cfg.Seed = seed
		return lassen.CharmTrace(cfg)
	}},
	{"mergetree", true, func(seed int64) (*trace.Trace, error) {
		cfg := mergetree.DefaultConfig()
		cfg.Procs, cfg.Seed = 128, seed
		return mergetree.Trace(cfg)
	}},
	{"nasbt", true, func(seed int64) (*trace.Trace, error) {
		cfg := nasbt.DefaultConfig()
		cfg.Seed = seed
		return nasbt.Trace(cfg)
	}},
	{"pdes", false, func(seed int64) (*trace.Trace, error) {
		cfg := pdes.DefaultConfig()
		cfg.Seed = seed
		return pdes.Trace(cfg)
	}},
	{"lbmigrate", false, func(seed int64) (*trace.Trace, error) {
		cfg := lbmigrate.DefaultConfig()
		cfg.Seed = seed
		return lbmigrate.Trace(cfg)
	}},
	{"faultsim", false, func(seed int64) (*trace.Trace, error) {
		cfg := faultsim.DefaultConfig()
		cfg.Seed = seed
		return faultsim.Trace(cfg)
	}},
	{"ordstress", false, func(seed int64) (*trace.Trace, error) {
		cfg := ordstress.DefaultConfig()
		cfg.Seed = seed
		return ordstress.Trace(cfg)
	}},
}

// TestOrderingMatchesReference: the zoo at three seeds, each trace under
// both presets, Reorder on and off, and a scrambled ChareRank.
func TestOrderingMatchesReference(t *testing.T) {
	for _, w := range refWorkloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 7, 1234} {
				tr, err := w.gen(seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, preset := range []Options{DefaultOptions(), MessagePassingOptions()} {
					for _, reorder := range []bool{true, false} {
						opt := preset
						opt.Reorder = reorder
						checkAgainstReference(t, tr, opt)
					}
				}
				opt := DefaultOptions()
				if w.mp {
					opt = MessagePassingOptions()
				}
				opt.ChareRank = make([]int32, len(tr.Chares))
				for c := range opt.ChareRank {
					opt.ChareRank[c] = int32(c*7919%13) - 6
				}
				checkAgainstReference(t, tr, opt)
			}
		})
	}
}

// TestOrderingMatchesReferenceHandBuilt covers the shapes generators rarely
// produce.
func TestOrderingMatchesReferenceHandBuilt(t *testing.T) {
	// fanOut builds n chares that each receive from chare 0's one serial
	// block, every event stamped by at(i).
	fanOut := func(n int, at func(i int) trace.Time) *trace.Trace {
		b := trace.NewBuilder(n)
		eSend := b.AddSDAGEntry("serial_0", 0, false)
		eRecv := b.AddSDAGEntry("recv", 1, true)
		chares := make([]trace.ChareID, n)
		for i := range chares {
			chares[i] = b.AddChare("arr", 0, i, trace.PE(i))
		}
		msgs := make([]trace.MsgID, n)
		b.BeginBlock(chares[0], 0, eSend, at(0))
		for i := 1; i < n; i++ {
			msgs[i] = b.NewMsg()
			b.Send(chares[0], msgs[i], at(0))
		}
		b.EndBlock(chares[0], at(0))
		for i := 1; i < n; i++ {
			b.BeginBlock(chares[i], trace.PE(i), eRecv, at(i))
			b.Recv(chares[i], msgs[i], at(i))
			b.Send(chares[i], b.NewMsg(), at(i))
			b.EndBlock(chares[i], at(i))
		}
		return b.MustFinish()
	}
	cases := map[string]*trace.Trace{
		"equal timestamps": fanOut(40, func(int) trace.Time { return 5 }),
		"negative times":   fanOut(40, func(i int) trace.Time { return trace.Time(-1000 + 3*(i%7)) }),
		"times near the bound": fanOut(40, func(i int) trace.Time {
			return trace.Time(1<<62 - 100 + i%5)
		}),
		"widest span": fanOut(40, func(i int) trace.Time {
			if i == 0 {
				return -(1<<62 - 1)
			}
			return trace.Time(1<<62 - 1 - i%3)
		}),
	}

	// Two serial blocks that each receive, mid-block, what the other sent:
	// the fragment graph is a 2-cycle although the events are acyclic, so the
	// traversal starts with nothing ready and must release a blocked fragment.
	b := trace.NewBuilder(2)
	e := b.AddEntry("work")
	c0, c1 := b.AddChare("a", 0, 0, 0), b.AddChare("a", 0, 1, 1)
	m0, m1 := b.NewMsg(), b.NewMsg()
	b.BeginBlock(c0, 0, e, 0)
	b.Send(c0, m0, 1)
	b.BeginBlock(c1, 1, e, 0)
	b.Send(c1, m1, 2)
	b.Recv(c0, m1, 10)
	b.EndBlock(c0, 20)
	b.Recv(c1, m0, 11)
	b.EndBlock(c1, 20)
	cases["fragment dependency cycle"] = b.MustFinish()

	// Two chains of serial blocks, A and B, fan out from one root and meet on
	// a shared chare at every level from 1 on, so A's and B's block there tie
	// on (w, invoker) and the comparison walks back through their sources
	// until level 0, where the chains sit on different chares: k-1 steps back
	// for level k. B runs earlier throughout, so physical time contradicts
	// the chain order, and level 6 lies beyond the four-step limit.
	const levels = 7
	b = trace.NewBuilder(levels + 2)
	e = b.AddEntry("work")
	root := b.AddChare("root", 0, 0, 0)
	var host [2][levels]trace.ChareID // chain, level -> chare, homed on PE chare
	for k := 0; k < levels; k++ {
		host[0][k] = b.AddChare("level", 1, k, trace.PE(k+1))
		host[1][k] = host[0][k]
	}
	host[1][0] = b.AddChare("level0b", 1, levels, levels+1)
	in := [2]trace.MsgID{b.NewMsg(), b.NewMsg()}
	b.BeginBlock(root, 0, e, 0)
	b.Send(root, in[0], 1)
	b.Send(root, in[1], 1)
	b.EndBlock(root, 2)
	for k := 0; k < levels; k++ {
		for _, chain := range []int{1, 0} { // B first
			c := host[chain][k]
			t0 := trace.Time(100*(k+1) + 10*(1-chain))
			b.BeginBlock(c, trace.PE(c), e, t0)
			b.Recv(c, in[chain], t0)
			in[chain] = b.NewMsg()
			b.Send(c, in[chain], t0+1)
			b.EndBlock(c, t0+2)
		}
	}
	cases["chain depth limit"] = b.MustFinish()

	b = trace.NewBuilder(1)
	e = b.AddEntry("work")
	c0 = b.AddChare("a", 0, 0, 0)
	b.BeginBlock(c0, 0, e, 0)
	b.Send(c0, b.NewMsg(), 1)
	b.EndBlock(c0, 2)
	cases["a phase of one event"] = b.MustFinish()

	for name, tr := range cases {
		for _, preset := range []Options{DefaultOptions(), MessagePassingOptions()} {
			for _, reorder := range []bool{true, false} {
				opt := preset
				opt.Reorder = reorder
				t.Run(fmt.Sprintf("%s/mp=%v/reorder=%v", name, opt.MessagePassing, reorder), func(t *testing.T) {
					checkAgainstReference(t, tr, opt)
				})
			}
		}
	}
}
