package core

import (
	"slices"

	"charmtrace/internal/trace"
)

// The ordering stage works on fragments: a serial block's run of events
// inside one phase. Reordering (§3.2.1) permutes fragments per chare; events
// inside a fragment keep their recorded order, since the order within a
// serial block is determined explicitly by the developer.
//
// Fragments live as struct-of-arrays in the pool lane's scratch
// (laneScratch.frag*): fragment fi of the lane's current phase has canonical
// block fragBlock[fi], initial event fragFirst[fi], w-clock of that event
// fragWInit[fi], and events fragEvents[fragOff[fi]:fragOff[fi+1]]. The
// per-event tables (w, fragOf, place, pos, sendDep, indeg, adjOff, adjCur)
// are shared across lanes in the arena: phases touch disjoint event sets,
// each cell is initialized by its phase before being read, and cross-phase
// lookups are guarded by PhaseOf — so the arrays never need clearing.

// assignSteps runs the ordering stage (§3.2): per-phase w-clock computation,
// per-chare fragment reordering, local step assignment, and global offsets
// from the phase DAG.
func assignSteps(tr *trace.Trace, opt Options, a *atoms, t *tel) *Structure {
	v := a.set.View()
	if !v.Acyclic() {
		a.set.CycleMerge()
		v = a.set.View()
	}
	leap, _ := v.Leaps()
	ar := a.arena

	s := &Structure{
		Trace:       tr,
		Opts:        opt,
		Phases:      make([]Phase, len(v.Parts)),
		DAG:         v.G,
		PhaseOf:     make([]int32, len(tr.Events)),
		LocalStep:   make([]int32, len(tr.Events)),
		Step:        make([]int32, len(tr.Events)),
		chareEvents: make([][]trace.EventID, len(tr.Chares)),
	}
	for i := range s.PhaseOf {
		s.PhaseOf[i] = -1
		s.LocalStep[i] = -1
		s.Step[i] = -1
	}

	// PhaseOf must be complete before any phase is stepped: stepPhase
	// consults it to keep cross-phase sends out of a phase's dependencies.
	for pi := range v.Parts {
		for _, atomID := range v.Parts[pi].Atoms {
			for _, e := range a.set.AtomEvents(atomID) {
				s.PhaseOf[e] = int32(pi)
			}
		}
	}

	// Output layout: every phase's Events and Chares are regions of two flat
	// buffers, with offsets computed up front so parallel workers fill
	// disjoint regions. The regions are full-capacity subslices: an append to
	// one phase's slice after extraction reallocates instead of clobbering
	// its neighbour.
	nParts := len(v.Parts)
	evOff := make([]int32, nParts+1)
	chOff := make([]int32, nParts+1)
	var evTot, chTot int32
	for pi := range v.Parts {
		evOff[pi] = evTot
		chOff[pi] = chTot
		for _, atomID := range v.Parts[pi].Atoms {
			evTot += int32(len(a.set.AtomEvents(atomID)))
		}
		chTot += int32(len(v.Parts[pi].Chares))
	}
	evOff[nParts] = evTot
	chOff[nParts] = chTot
	eventsBuf := make([]trace.EventID, evTot)
	charesBuf := make([]trace.ChareID, chTot)

	// Shared per-event scratch for the ordering stage. timeKey packs
	// timeOrderLess's (time, kind) lexicographic rank into one int64 (kinds
	// are Send=0, Recv=1, and |Time| < 2^62), so the phase-event sort
	// compares one precomputed key instead of re-reading two Event structs;
	// built once here, read-only in the worker lanes.
	ar.timeKey = grow64(ar.timeKey, ar.nEvents)
	for i := range tr.Events {
		ev := &tr.Events[i]
		ar.timeKey[i] = int64(ev.Time)*2 + int64(ev.Kind)
	}
	ar.stepKey = grow64(ar.stepKey, ar.nEvents)
	ar.w = grow32(ar.w, ar.nEvents)
	ar.fragOf = grow32(ar.fragOf, ar.nEvents)
	ar.place = grow32(ar.place, ar.nEvents)
	ar.pos = grow32(ar.pos, ar.nEvents)
	ar.sendDep = growEv(ar.sendDep, ar.nEvents)
	ar.indeg = grow32(ar.indeg, ar.nEvents)
	ar.adjOff = grow32(ar.adjOff, ar.nEvents)
	ar.adjCur = grow32(ar.adjCur, ar.nEvents)

	// orderPhase handles one phase on one pool lane; phases touch disjoint
	// events (and disjoint scratch cells), so the stage parallelizes cleanly
	// (§3.3: "this stage could be parallelized").
	orderPhase := func(pi int, ls *laneScratch) {
		part := &v.Parts[pi]
		ph := &s.Phases[pi]
		ph.ID = int32(pi)
		ph.Runtime = part.Runtime
		ph.Leap = leap[pi]
		ph.Chares = append(charesBuf[chOff[pi]:chOff[pi]:chOff[pi+1]], part.Chares...)

		// The phase's events, sorted by (time, kind, ID) — the timeOrderLess
		// order, compared through the precomputed key.
		events := eventsBuf[evOff[pi]:evOff[pi]:evOff[pi+1]]
		for _, atomID := range part.Atoms {
			events = append(events, a.set.AtomEvents(atomID)...)
		}
		key := ar.timeKey
		slices.SortFunc(events, func(x, y trace.EventID) int {
			if key[x] != key[y] {
				if key[x] < key[y] {
					return -1
				}
				return 1
			}
			return int(x) - int(y)
		})

		// One epoch per phase invalidates every chare-/block-indexed lane
		// table at once.
		ls.epoch++
		phaseW(tr, opt, events, a, ar, ls, s.PhaseOf, int32(pi))
		nf := buildFragments(tr, events, a, ar, ls)
		placed := orderFragments(tr, opt, nf, ar, ls, s.PhaseOf, int32(pi))
		ph.MaxLocalStep = stepPhase(tr, events, placed, s.PhaseOf, int32(pi), s.LocalStep, ar, ls)

		// Output order (local step, chare, ID), packed into one key per
		// event: both components are non-negative int32s, so the pair fits
		// one int64 compare.
		ph.Events = events
		skey := ar.stepKey
		for _, e := range events {
			skey[e] = int64(s.LocalStep[e])<<32 | int64(uint32(tr.Events[e].Chare))
		}
		slices.SortFunc(ph.Events, func(x, y trace.EventID) int {
			if skey[x] != skey[y] {
				if skey[x] < skey[y] {
					return -1
				}
				return 1
			}
			return int(x) - int(y)
		})
	}

	// Phases are the ordering stage's pool items, one per block: the span of
	// each lands on the lane that ran it — per-phase spans are what expose
	// ordering-stage imbalance (one huge phase pinning a lane while the others
	// drain) in a self-trace — and that lane's scratch is the phase's alone
	// while it runs. /debug/flights shows "phases ordered / total".
	workers := opt.Workers()
	ar.ensureLanes(min(workers, nParts))
	t.forEach("order-phase", nParts, 1, workers, func(pi, lane int) {
		orderPhase(pi, ar.lanes[lane])
	})

	computeOffsets(s, ar)
	for e := range tr.Events {
		if s.PhaseOf[e] >= 0 {
			s.Step[e] = s.Phases[s.PhaseOf[e]].Offset + s.LocalStep[e]
		}
	}
	stitchChareTimelines(s)
	return s
}

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

// phaseW computes the idealized-replay clock w (§3.2.1) for a phase's
// events, which must be sorted by timeOrderLess, into ar.w.
//
// Task-based rule: the phase's initial sends get w = 0; subsequent sends of
// a serial block count up; a receive gets w_send + 1; sends after a receive
// count up from the receive's w.
//
// Message-passing rule (Figure 9): a receive still gets w_send + 1, but a
// send is pinned after every receive that physically preceded it on its
// timeline: w_send = 1 + max{w_recv | recv before send}, so receives may be
// reordered around the send while the send keeps its position.
//
// The last-w-per-block and max-receive-w-per-chare tables are the lane's
// epoch-marked arrays: a slot is live only when its mark equals the lane's
// current epoch.
func phaseW(tr *trace.Trace, opt Options, events []trace.EventID, a *atoms, ar *extractArena, ls *laneScratch, phaseOf []int32, pi int32) {
	w := ar.w
	epoch := ls.epoch
	for _, e := range events {
		ev := &tr.Events[e]
		cb := a.canonicalBlock(ev.Block)
		var val int32
		if ev.Kind == trace.Recv {
			val = 0
			// The matching send is in this phase (Alg. 1 merges endpoints)
			// and was processed earlier (sends precede receives in time
			// order); the guard covers synthetic cross-phase records.
			if send := tr.MatchingSend(e); send != trace.NoEvent && phaseOf[send] == pi {
				val = w[send] + 1
			}
			if !opt.MessagePassing {
				if ls.lastWMark[cb] == epoch && ls.lastW[cb]+1 > val {
					val = ls.lastW[cb] + 1
				}
			} else {
				if ls.maxRecvMark[ev.Chare] != epoch || val > ls.maxRecvW[ev.Chare] {
					ls.maxRecvW[ev.Chare] = val
					ls.maxRecvMark[ev.Chare] = epoch
				}
			}
		} else { // Send
			if opt.MessagePassing {
				if ls.maxRecvMark[ev.Chare] == epoch {
					val = ls.maxRecvW[ev.Chare] + 1
				}
			} else if ls.lastWMark[cb] == epoch {
				val = ls.lastW[cb] + 1
			}
		}
		w[e] = val
		ls.lastW[cb] = val
		ls.lastWMark[cb] = epoch
	}
}

// buildFragments groups a phase's events by canonical serial block,
// preserving per-block recorded order, into the lane's fragment tables.
// Absorbed block pairs (§2.1) order as one serial block. Returns the
// fragment count; ar.fragOf maps each of the phase's events to its fragment.
func buildFragments(tr *trace.Trace, events []trace.EventID, a *atoms, ar *extractArena, ls *laneScratch) int {
	epoch := ls.epoch
	ls.fragBlock = ls.fragBlock[:0]
	ls.fragChare = ls.fragChare[:0]
	ls.fragWInit = ls.fragWInit[:0]
	ls.fragFirst = ls.fragFirst[:0]
	nf := 0
	for _, e := range events {
		ev := &tr.Events[e]
		canon := a.canonicalBlock(ev.Block)
		var fi int32
		if ls.blockMark[canon] == epoch {
			fi = ls.fragOfBlock[canon]
		} else {
			fi = int32(nf)
			nf++
			ls.blockMark[canon] = epoch
			ls.fragOfBlock[canon] = fi
			ls.fragBlock = append(ls.fragBlock, canon)
			ls.fragChare = append(ls.fragChare, ev.Chare)
			ls.fragWInit = append(ls.fragWInit, ar.w[e])
			ls.fragFirst = append(ls.fragFirst, e)
		}
		ar.fragOf[e] = fi
	}
	// Group the phase's events by fragment: counting sort into fragEvents.
	ls.fragOff = grow32(ls.fragOff, nf+1)
	ls.fragCur = grow32(ls.fragCur, nf)
	cnt := ls.fragCur
	for i := range cnt {
		cnt[i] = 0
	}
	for _, e := range events {
		cnt[ar.fragOf[e]]++
	}
	total := int32(0)
	for i := 0; i < nf; i++ {
		ls.fragOff[i] = total
		total += cnt[i]
		cnt[i] = 0
	}
	ls.fragOff[nf] = total
	ls.fragEvents = growEv(ls.fragEvents, int(total))
	for _, e := range events {
		fi := ar.fragOf[e]
		ls.fragEvents[ls.fragOff[fi]+cnt[fi]] = e
		cnt[fi]++
	}
	return nf
}

// miniHeap is a minimal binary min-heap under a closure comparator, backing
// the ordering stage's deterministic ready queues. Every comparator used
// with it is a total order, so the pop sequence is the sorted order of the
// ready set — independent of push order and heap internals.
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

// orderFragments orders a phase's fragments (§3.2.1): by the w of the
// fragment's initial event, ties broken by the chare that invoked the serial
// block, then by comparing source fragments one step back (Figure 7), and
// finally by physical time. Without Reorder, fragments order by physical
// time. The placement respects every intra-phase message dependency between
// fragments (a dependency-aware traversal whose ready set is prioritized by
// the comparator); the returned slice is the global placement order, which
// step assignment uses as its scheduling priority.
func orderFragments(tr *trace.Trace, opt Options, nf int, ar *extractArena, ls *laneScratch, phaseOf []int32, pi int32) []int32 {
	fragEvs := func(fi int32) []trace.EventID {
		return ls.fragEvents[ls.fragOff[fi]:ls.fragOff[fi+1]]
	}
	// invoker returns the chare that invoked a fragment: the chare of the
	// send matching its initial receive, or NoChare for send-initial
	// (phase-source) fragments.
	invoker := func(fi int32) trace.ChareID {
		if send := tr.MatchingSend(ls.fragFirst[fi]); send != trace.NoEvent {
			return tr.Events[send].Chare
		}
		return trace.NoChare
	}
	// sourceFrag returns the fragment containing the send that invoked f, if
	// it is in the same phase; -1 otherwise.
	sourceFrag := func(fi int32) int32 {
		if send := tr.MatchingSend(ls.fragFirst[fi]); send != trace.NoEvent && phaseOf[send] == pi {
			return ar.fragOf[send]
		}
		return -1
	}
	// rank orders invoking chares: by the caller-supplied topology rank
	// when one is given (the paper's suggestion that data-topology-aware
	// tie-breaking is more intuitive), by chare ID otherwise.
	rank := func(c trace.ChareID) int32 {
		if opt.ChareRank != nil && c >= 0 && int(c) < len(opt.ChareRank) {
			return opt.ChareRank[c]
		}
		return int32(c)
	}
	// The comparator runs O(log n) times per heap operation, so its inputs
	// (invoking chare, its rank, the source fragment, the initial event's
	// physical time) are memoized into flat per-fragment arrays once; the
	// closures above run once per fragment, never per comparison.
	ls.fragInv = grow32(ls.fragInv, nf)
	ls.fragRank = grow32(ls.fragRank, nf)
	ls.fragSrc = grow32(ls.fragSrc, nf)
	ls.fragTime = growTime(ls.fragTime, nf)
	inv, rnk, src, tim := ls.fragInv, ls.fragRank, ls.fragSrc, ls.fragTime
	for i := int32(0); i < int32(nf); i++ {
		c := invoker(i)
		inv[i], rnk[i], src[i] = int32(c), rank(c), sourceFrag(i)
		tim[i] = tr.Events[ls.fragFirst[i]].Time
	}
	wi := ls.fragWInit
	var cmp func(f, g int32, depth int) int
	cmp = func(f, g int32, depth int) int {
		if wi[f] != wi[g] {
			return int(wi[f]) - int(wi[g])
		}
		if rnk[f] != rnk[g] {
			return int(rnk[f]) - int(rnk[g])
		}
		if inv[f] != inv[g] {
			return int(inv[f]) - int(inv[g])
		}
		if depth < 4 {
			sf, sg := src[f], src[g]
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
		if tim[f] != tim[g] {
			return tim[f] < tim[g]
		}
		// Canonical blocks are unique per fragment, making the order total.
		return ls.fragBlock[f] < ls.fragBlock[g]
	}

	// Fragments are placed in a single phase-wide order that respects every
	// intra-phase message dependency between fragments: a Kahn traversal
	// whose ready set is prioritized by the paper's comparator. A plain sort
	// can invert two same-w fragments against an explicit dependency (the
	// invoker tie-break knows nothing about messages between the tied
	// blocks); the dependency-aware traversal only applies the comparator
	// among fragments whose predecessors are already placed.
	//
	// Edges dedup without a map or a sort: one epoch-marked open-addressing
	// probe per candidate edge, keeping the first occurrence of each
	// (source, target) pair. Successor-list order only controls the order
	// tied fragments enter the ready heap, and the heap's comparator is a
	// total order (fragBlock is unique), so the placement is invariant to it.
	eu, evv := ls.edgeU[:0], ls.edgeV[:0]
	nev := len(ls.fragEvents)
	size := 16
	for size < 2*nev {
		size <<= 1
	}
	if cap(ls.edgeKey) < size {
		ls.edgeKey = make([]int64, size)
		ls.edgeMark = make([]int32, size)
		ls.edgeEpoch = 0
	}
	keys := ls.edgeKey[:size]
	marks := ls.edgeMark[:size]
	ls.edgeEpoch++
	if ls.edgeEpoch <= 0 { // epoch wrapped: stale marks could alias it
		clear(ls.edgeMark[:cap(ls.edgeMark)])
		ls.edgeEpoch = 1
	}
	epoch := ls.edgeEpoch
	mask := uint64(size - 1)
	for gi := int32(0); gi < int32(nf); gi++ {
		for _, e := range fragEvs(gi) {
			send := tr.MatchingSend(e)
			if send == trace.NoEvent || phaseOf[send] != pi {
				continue
			}
			si := ar.fragOf[send]
			if si == gi {
				continue
			}
			k := int64(si)<<32 | int64(uint32(gi))
			h := uint64(k)
			h ^= h >> 33
			h *= 0x9e3779b97f4a7c15
			h ^= h >> 29
			i := h & mask
			for {
				if marks[i] != epoch {
					marks[i], keys[i] = epoch, k
					eu = append(eu, si)
					evv = append(evv, gi)
					break
				}
				if keys[i] == k {
					break
				}
				i = (i + 1) & mask
			}
		}
	}
	ls.edgeU, ls.edgeV = eu, evv
	ls.fragIndeg = grow32(ls.fragIndeg, nf)
	ls.fragSuccOff = grow32(ls.fragSuccOff, nf+1)
	ls.fragSuccCur = grow32(ls.fragSuccCur, nf)
	indeg, succOff, succCur := ls.fragIndeg, ls.fragSuccOff, ls.fragSuccCur
	for i := 0; i < nf; i++ {
		indeg[i], succCur[i] = 0, 0
	}
	for i := range eu {
		succCur[eu[i]]++
		indeg[evv[i]]++
	}
	t := int32(0)
	for i := 0; i < nf; i++ {
		succOff[i] = t
		t += succCur[i]
		succCur[i] = 0
	}
	succOff[nf] = t
	ls.fragSucc = grow32(ls.fragSucc, int(t))
	for i := range eu {
		u := eu[i]
		ls.fragSucc[succOff[u]+succCur[u]] = evv[i]
		succCur[u]++
	}

	ready := &miniHeap[int32]{items: ls.fragHeap[:0], less: less}
	for i := int32(0); i < int32(nf); i++ {
		if indeg[i] == 0 {
			ready.push(i)
		}
	}
	out := ls.placed[:0]
	for len(out) < nf {
		if len(ready.items) == 0 {
			// Dependency cycle among fragments (pathological multi-receive
			// blocks): release the earliest-starting blocked fragment. Step
			// assignment only treats intra-fragment and message edges as
			// hard, so a released cycle cannot corrupt the steps.
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
		for _, gi := range ls.fragSucc[succOff[f]:succOff[f+1]] {
			indeg[gi]--
			if indeg[gi] == 0 {
				ready.push(gi)
			}
		}
	}
	ls.fragHeap = ready.items
	ls.placed = out
	return out
}

// stepPhase assigns local logical steps within a phase. The phase's initial
// sources get step 0; every other event gets one over the maximum of the
// events that happened-before it — the prior event along its chare's
// timeline and its matching send when it is a receive.
//
// The hard constraints are the intra-fragment event order and the message
// edges; both point strictly forward in (time, kind) order, so their union
// is always acyclic and the assignment never needs a fallback. The fragment
// placement computed by orderFragments acts as the scheduling priority:
// ready events pop in placement order, which keeps each fragment's events
// together whenever dependencies permit. The pop order restricted to one
// chare IS that chare's timeline, so per-chare steps are strictly
// increasing and every receive lands after its send, by construction —
// which also lets stitchChareTimelines recover the timeline from the steps
// instead of recording pop order per chare.
func stepPhase(tr *trace.Trace, events []trace.EventID, placed []int32, phaseOf []int32, pi int32, localStep []int32, ar *extractArena, ls *laneScratch) int32 {
	// Priority of each event: (fragment placement, position in fragment).
	for pl, fi := range placed {
		for pos, e := range ls.fragEvents[ls.fragOff[fi]:ls.fragOff[fi+1]] {
			ar.place[e] = int32(pl)
			ar.pos[e] = int32(pos)
		}
	}
	// Hard edges: consecutive events of a fragment, and send -> receive.
	// Out-degrees are counted first, then the edges fill a flat adjacency
	// buffer; event e's successors are adj[adjOff[e]:adjCur[e]].
	indeg, adjOff, adjCur := ar.indeg, ar.adjOff, ar.adjCur
	for _, e := range events {
		ar.sendDep[e] = trace.NoEvent
		indeg[e] = 0
		adjOff[e] = 0
	}
	for _, fi := range placed {
		evs := ls.fragEvents[ls.fragOff[fi]:ls.fragOff[fi+1]]
		for i := 0; i+1 < len(evs); i++ {
			adjOff[evs[i]]++
			indeg[evs[i+1]]++
		}
	}
	for _, e := range events {
		if send := tr.MatchingSend(e); send != trace.NoEvent && phaseOf[send] == pi {
			ar.sendDep[e] = send
			adjOff[send]++
			indeg[e]++
		}
	}
	total := int32(0)
	for _, e := range events {
		deg := adjOff[e]
		adjOff[e] = total
		adjCur[e] = total
		total += deg
	}
	ls.adj = growEv(ls.adj, int(total))
	adj := ls.adj
	addEdge := func(from, to trace.EventID) {
		adj[adjCur[from]] = to
		adjCur[from]++
	}
	for _, fi := range placed {
		evs := ls.fragEvents[ls.fragOff[fi]:ls.fragOff[fi+1]]
		for i := 0; i+1 < len(evs); i++ {
			addEdge(evs[i], evs[i+1])
		}
	}
	for _, e := range events {
		if sd := ar.sendDep[e]; sd != trace.NoEvent {
			addEdge(sd, e)
		}
	}

	// Deterministic priority queue over ready events: (place, pos) is unique
	// per event, so the order is total.
	h := &miniHeap[trace.EventID]{items: ls.eventHeap[:0], less: func(a, b trace.EventID) bool {
		if ar.place[a] != ar.place[b] {
			return ar.place[a] < ar.place[b]
		}
		return ar.pos[a] < ar.pos[b]
	}}
	for _, e := range events {
		if indeg[e] == 0 {
			h.push(e)
		}
	}
	epoch := ls.epoch
	var maxStep int32
	for len(h.items) > 0 {
		e := h.pop()
		ev := &tr.Events[e]
		st := int32(0)
		if ls.chareMark[ev.Chare] == epoch {
			if p := ls.lastStep[ev.Chare]; p+1 > st {
				st = p + 1
			}
		}
		if sd := ar.sendDep[e]; sd != trace.NoEvent {
			if p := localStep[sd]; p+1 > st {
				st = p + 1
			}
		}
		localStep[e] = st
		if st > maxStep {
			maxStep = st
		}
		ls.lastStep[ev.Chare] = st
		ls.chareMark[ev.Chare] = epoch
		for _, n := range adj[adjOff[e]:adjCur[e]] {
			indeg[n]--
			if indeg[n] == 0 {
				h.push(n)
			}
		}
	}
	ls.eventHeap = h.items
	return maxStep
}

// computeOffsets assigns each phase its global step offset: the maximum over
// phase-DAG predecessors of (their offset + their max local step + 1). An
// implementation refinement guards the per-chare uniqueness of global steps:
// if two phases sharing a chare remain unordered and their global spans
// collide, an order edge (earlier initial event first) is inserted and
// offsets are recomputed.
func computeOffsets(s *Structure, ar *extractArena) {
	for round := 0; round < 64; round++ {
		order, ok := s.DAG.TopoSort()
		if !ok {
			// Cannot happen: edges are only added between unordered phases.
			break
		}
		for i := range s.Phases {
			s.Phases[i].Offset = 0
		}
		for _, p := range order {
			ph := &s.Phases[p]
			for _, q := range s.DAG.Adj[p] {
				if need := ph.Offset + ph.MaxLocalStep + 1; s.Phases[q].Offset < need {
					s.Phases[q].Offset = need
				}
			}
		}
		if !fixChareCollision(s, ar) {
			return
		}
	}
}

// fixChareCollision finds one pair of unordered phases that share a chare
// and collide in global steps, adds an order edge, and reports whether it
// did. Phases connected in the DAG can never collide (the offset rule
// separates them), so the added edge cannot create a cycle. The per-chare
// span lists are counting-sorted into the arena's flat span tables; chares
// are scanned in ascending ID order, so the edge chosen is deterministic.
func fixChareCollision(s *Structure, ar *extractArena) bool {
	nc := ar.nChares
	ar.spanOff = grow32(ar.spanOff, nc+1)
	ar.spanCur = grow32(ar.spanCur, nc)
	cnt := ar.spanCur
	for i := 0; i < nc; i++ {
		cnt[i] = 0
	}
	total := int32(0)
	for i := range s.Phases {
		for _, c := range s.Phases[i].Chares {
			cnt[c]++
		}
		total += int32(len(s.Phases[i].Chares))
	}
	off := ar.spanOff
	t := int32(0)
	for i := 0; i < nc; i++ {
		off[i] = t
		t += cnt[i]
		cnt[i] = 0
	}
	off[nc] = t
	ar.spanPhase = grow32(ar.spanPhase, int(total))
	ar.spanLo = grow32(ar.spanLo, int(total))
	ar.spanHi = grow32(ar.spanHi, int(total))
	for i := range s.Phases {
		ph := &s.Phases[i]
		lo, hi := ph.GlobalSpan()
		for _, c := range ph.Chares {
			k := off[c] + cnt[c]
			ar.spanPhase[k] = int32(i)
			ar.spanLo[k] = lo
			ar.spanHi[k] = hi
			cnt[c]++
		}
	}
	for c := 0; c < nc; c++ {
		lo, hi := off[c], off[c+1]
		if hi-lo < 2 {
			continue
		}
		// Sweep by span start: a collision exists iff a span begins before
		// the previous maximum end.
		ord := ar.spanOrd[:0]
		for k := lo; k < hi; k++ {
			ord = append(ord, k)
		}
		slices.SortFunc(ord, func(x, y int32) int {
			if ar.spanLo[x] != ar.spanLo[y] {
				return int(ar.spanLo[x]) - int(ar.spanLo[y])
			}
			return int(ar.spanPhase[x]) - int(ar.spanPhase[y])
		})
		ar.spanOrd = ord
		maxIdx := ord[0]
		for i := 1; i < len(ord); i++ {
			a, b := maxIdx, ord[i]
			if ar.spanLo[b] > ar.spanHi[a] {
				if ar.spanHi[b] > ar.spanHi[a] {
					maxIdx = b
				}
				continue
			}
			// Colliding spans imply the phases are unordered.
			first, second := ar.spanPhase[a], ar.spanPhase[b]
			if phaseStartTime(s, second) < phaseStartTime(s, first) {
				first, second = second, first
			}
			s.DAG.AddEdge(first, second)
			return true
		}
	}
	return false
}

// phaseStartTime returns the earliest event time of a phase.
func phaseStartTime(s *Structure, p int32) trace.Time {
	best := trace.Time(1<<62 - 1)
	for _, e := range s.Phases[p].Events {
		if t := s.Trace.Events[e].Time; t < best {
			best = t
		}
	}
	return best
}

// stitchChareTimelines builds each chare's global event timeline. Within a
// phase, the per-chare step-assignment pop order IS the chare's timeline and
// per-chare local steps strictly increase along it; across phases, timelines
// concatenate in phase order (offset, then leap, then ID). Both orders are
// recoverable after the fact: walking phases in that rank order and each
// phase's Events in its (LocalStep, Chare, ID) sort order visits every
// chare's events in exactly timeline order, so one counting pass fills all
// timelines into a single flat buffer.
func stitchChareTimelines(s *Structure) {
	nc := len(s.chareEvents)
	order := make([]int32, len(s.Phases))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		px, py := &s.Phases[x], &s.Phases[y]
		if px.Offset != py.Offset {
			return int(px.Offset) - int(py.Offset)
		}
		if px.Leap != py.Leap {
			return int(px.Leap) - int(py.Leap)
		}
		return int(x) - int(y)
	})
	off := make([]int32, nc+1)
	for e := range s.PhaseOf {
		if s.PhaseOf[e] >= 0 {
			off[s.Trace.Events[e].Chare+1]++
		}
	}
	for c := 0; c < nc; c++ {
		off[c+1] += off[c]
	}
	buf := make([]trace.EventID, off[nc])
	cur := make([]int32, nc)
	for _, pi := range order {
		for _, e := range s.Phases[pi].Events {
			c := s.Trace.Events[e].Chare
			buf[off[c]+cur[c]] = e
			cur[c]++
		}
	}
	for c := 0; c < nc; c++ {
		if lo, hi := off[c], off[c]+cur[c]; lo < hi {
			s.chareEvents[c] = buf[lo:hi:hi]
		}
	}
}
