package core

import (
	"math/bits"
	"slices"

	"charmtrace/internal/flat"
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
// per-event tables (w, fragOf, rank, waitHead, waitNext) are shared across
// lanes in the arena: phases touch disjoint event sets, each cell is
// initialized by its phase before being read, and cross-phase lookups are
// guarded by PhaseOf — so the arrays never need clearing.

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
	//
	// Output layout: every phase's Events and Chares are regions of two flat
	// buffers, with offsets computed up front so parallel workers fill
	// disjoint regions. The regions are full-capacity subslices: an append to
	// one phase's slice after extraction reallocates instead of clobbering
	// its neighbour.
	nParts := len(v.Parts)
	chOff := make([]int32, nParts+1)
	for pi := range v.Parts {
		for _, atomID := range v.Parts[pi].Atoms {
			for _, e := range a.set.AtomEvents(atomID) {
				s.PhaseOf[e] = int32(pi)
			}
		}
		chOff[pi+1] = chOff[pi] + int32(len(v.Parts[pi].Chares))
	}
	charesBuf := make([]trace.ChareID, chOff[nParts])

	rankChares(ar, opt.ChareRank)

	// Two orders of all the events are computed once here, phase by phase:
	// every phase finds its events in (time, kind, ID) order — timeOrderLess —
	// in its region of eventsBuf, and in (chare, ID) order in the same region
	// of byChare. The first is the time order of all events grouped stably by
	// phase; its key is the offset from the trace's first event, twice, plus
	// the kind (Send=0, Recv=1); trace validation bounds |Time| below 2^62,
	// so the key cannot wrap and a shifted trace gets the same order. The
	// second is one more sort, on (phase, chare) — an event without a phase
	// sorts after them all — left in the arena's sort columns, which nothing
	// touches again before the phases are done.
	n := len(tr.Events)
	var minTime trace.Time
	for i := range tr.Events {
		if t := tr.Events[i].Time; i == 0 || t < minTime {
			minTime = t
		}
	}
	keys, ids := ar.sort.Columns(n)
	for i := range tr.Events {
		ev := &tr.Events[i]
		keys[i], ids[i] = uint64(ev.Time-minTime)*2+uint64(ev.Kind), int32(i)
	}
	_, order := ar.sort.Sort(n)
	byTime := flat.Group[trace.EventID](nParts, nil, nil, order, s.PhaseOf)
	evOff, eventsBuf := byTime.Off, byTime.IDs
	keys, ids = ar.sort.Columns(n)
	chareBits := bits.Len(uint(ar.nChares))
	for i := range tr.Events {
		keys[i], ids[i] = uint64(uint32(s.PhaseOf[i]))<<chareBits|uint64(tr.Events[i].Chare), int32(i)
	}
	_, byChare := ar.sort.Sort(n)

	// Per-event scratch of the ordering stage, shared by the lanes.
	ar.w = flat.Grow(ar.w, ar.nEvents)
	ar.fragOf = flat.Grow(ar.fragOf, ar.nEvents)
	ar.rank = flat.Grow(ar.rank, ar.nEvents)
	ar.waitHead = flat.Grow(ar.waitHead, ar.nEvents)
	ar.waitNext = flat.Grow(ar.waitNext, ar.nEvents)

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

		// The phase's events in time order, until the output order below
		// overwrites them.
		events := eventsBuf[evOff[pi]:evOff[pi+1]:evOff[pi+1]]

		// One epoch per phase invalidates every chare-/block-indexed lane
		// table at once.
		ls.epoch++
		phaseW(tr, opt, events, a, ar, ls, s.PhaseOf, int32(pi))
		nf := buildFragments(tr, events, a, ar, ls)
		placed := orderFragments(tr, opt, nf, ar, ls, s.PhaseOf, int32(pi))
		ph.MaxLocalStep = stepPhase(tr, events, placed, s.PhaseOf, int32(pi), s.LocalStep, ar, ls)

		// Output order (local step, chare, ID): a stable counting sort by
		// local step of the phase's events in (chare, ID) order.
		ph.Events = events
		ls.stepNext = flat.Group(int(ph.MaxLocalStep)+1, ls.stepNext, events, byChare[evOff[pi]:evOff[pi+1]], s.LocalStep).Off
	}

	// Phases are the ordering stage's pool items, one per block, and the
	// scratch of the lane that runs one is the phase's alone while it runs.
	// /debug/flights shows "phases ordered / total".
	workers := opt.Workers()
	ar.ensureLanes(min(workers, nParts))
	t.forEach(nParts, 1, workers, func(pi, lane int) {
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

// rankChares fills ar.charePos, the order of invoking chares that
// orderFragments breaks w ties by: the caller-supplied topology rank when one
// is given (the paper's suggestion that data-topology-aware tie-breaking is
// more intuitive), chare ID otherwise, ID breaking rank ties. Slot c+1 is
// chare c's position; slot 0 is NoChare's, which ranks as -1.
func rankChares(ar *extractArena, chareRank []int32) {
	ar.charePos = flat.Grow(ar.charePos, ar.nChares+1)
	keys, ids := ar.sort.Columns(ar.nChares + 1)
	for i := range ids {
		rank := int32(i - 1)
		if i > 0 && i <= len(chareRank) {
			rank = chareRank[i-1]
		}
		keys[i], ids[i] = uint64(uint32(rank)^(1<<31)), int32(i)
	}
	_, order := ar.sort.Sort(ar.nChares + 1)
	for pos, i := range order {
		ar.charePos[i] = int32(pos)
	}
}

// phaseW computes the idealized-replay clock w (§3.2.1) for a phase's
// events, which must be in (time, kind, ID) order, into ar.w.
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
			ls.fragWInit = append(ls.fragWInit, ar.w[e])
			ls.fragFirst = append(ls.fragFirst, e)
		}
		ar.fragOf[e] = fi
	}
	frags := flat.Group(nf, ls.fragOff, ls.fragEvents, events, ar.fragOf)
	ls.fragOff, ls.fragEvents = frags.Off, frags.IDs
	return nf
}

// orderFragments orders a phase's fragments (§3.2.1): by the w of the
// fragment's initial event, ties broken by the chare that invoked the serial
// block, then by comparing source fragments one step back (Figure 7), and
// finally by physical time. Without Reorder, fragments order by physical
// time. The placement respects every intra-phase message dependency between
// fragments (a dependency-aware traversal whose ready set is prioritized by
// that order); the returned slice is the global placement order, which step
// assignment uses as its scheduling priority.
func orderFragments(tr *trace.Trace, opt Options, nf int, ar *extractArena, ls *laneScratch, phaseOf []int32, pi int32) []int32 {
	order, rank := rankFragments(tr, opt, nf, ar, ls, phaseOf, pi)

	// Fragments are placed in a single phase-wide order that respects every
	// intra-phase message dependency between fragments: a Kahn traversal
	// whose ready set is prioritized by rank. The rank order alone can invert
	// two same-w fragments against an explicit dependency (the invoker
	// tie-break knows nothing about messages between the tied blocks); the
	// dependency-aware traversal only applies it among fragments whose
	// predecessors are already placed.
	//
	// A pair of fragments gets one edge per message between them: the
	// traversal counts a fragment's in-edges down to zero, which happens when
	// its last predecessor is placed whatever the multiplicities. Successor-
	// list order only controls the order fragments enter the ready queue,
	// which pops by rank, so the placement is invariant to it.
	eu, evv := ls.edgeU[:0], ls.edgeV[:0]
	for gi := int32(0); gi < int32(nf); gi++ {
		for _, e := range ls.fragEvents[ls.fragOff[gi]:ls.fragOff[gi+1]] {
			send := tr.MatchingSend(e)
			if send == trace.NoEvent || phaseOf[send] != pi {
				continue
			}
			if si := ar.fragOf[send]; si != gi {
				eu = append(eu, si)
				evv = append(evv, gi)
			}
		}
	}
	ls.edgeU, ls.edgeV = eu, evv
	// Successor rows: the edges' positions grouped by source fragment, then
	// each position replaced by the edge's target.
	succ := flat.GroupAll(nf, ls.fragSuccOff, ls.fragSucc, eu)
	ls.fragSuccOff, ls.fragSucc = succ.Off, succ.IDs
	ls.fragIndeg = flat.Grow(ls.fragIndeg, nf)
	indeg, succOff := ls.fragIndeg, succ.Off
	clear(indeg)
	for k, i := range succ.IDs {
		succ.IDs[k] = evv[i]
		indeg[evv[i]]++
	}

	ready := &ls.queue
	ready.reset(nf)
	for i := 0; i < nf; i++ {
		if indeg[i] == 0 {
			ready.push(rank[i])
		}
	}
	out := ls.placed[:0]
	blocked := 0 // no fragment ranked below order[blocked] is blocked
	for len(out) < nf {
		if ready.empty() {
			// Dependency cycle among fragments (pathological multi-receive
			// blocks): release the lowest-ranked blocked fragment. Step
			// assignment only treats intra-fragment and message edges as
			// hard, so a released cycle cannot corrupt the steps. In-degrees
			// only fall, so the search resumes where the last one ended.
			for indeg[order[blocked]] <= 0 {
				blocked++
			}
			indeg[order[blocked]] = 0
			ready.push(int32(blocked))
			continue
		}
		f := order[ready.pop()]
		out = append(out, f)
		for _, gi := range ls.fragSucc[succOff[f]:succOff[f+1]] {
			indeg[gi]--
			if indeg[gi] == 0 {
				ready.push(rank[gi])
			}
		}
	}
	ls.placed = out
	return out
}

// rankFragments computes the total order orderFragments places by: the
// fragments in that order (in the lane's sort scratch, so valid until the
// lane sorts again), and each fragment's position in it.
//
// The order is lexicographic on a chain of keys. A fragment's key is (w of
// its initial event, position of its invoking chare in ar.charePos); the
// chain is the fragment's key, its source fragment's (the fragment holding
// the send that invoked it, when that is in this phase), that one's source's,
// and so on for four steps back; chains that tie fall to (physical time,
// canonical block) of the fragment itself, and canonical blocks are unique
// per fragment. This is a total order because fragments with equal keys
// either all have a source or none does: a fragment invoked from inside the
// phase starts with w >= 1 and a real invoker, while w = 0 or no invoker
// means no source — so tied chains have the same length, and chains that
// reach the same fragment are equal from there on. Without Reorder only the
// (time, block) part applies.
//
// It is computed by refinement with stable radix sorts instead of comparing
// chains pairwise: sort by (time, block); sort by key, which groups the
// fragments into classes of equal key; then, while some class still holds two
// fragments whose chains continue into different fragments, sort by (class,
// key class of the next chain element) and split the classes accordingly.
func rankFragments(tr *trace.Trace, opt Options, nf int, ar *extractArena, ls *laneScratch, phaseOf []int32, pi int32) (order, rank []int32) {
	// Fragments are numbered by first appearance in time order, so equal
	// times are adjacent and a running count of distinct times stands in for
	// the time itself.
	keys, ids := ls.sort.Columns(nf)
	blockBits := bits.Len(uint(ar.nBlocks))
	run := uint64(0)
	for f := 0; f < nf; f++ {
		if f > 0 && tr.Events[ls.fragFirst[f]].Time != tr.Events[ls.fragFirst[f-1]].Time {
			run++
		}
		keys[f], ids[f] = run<<blockBits|uint64(ls.fragBlock[f]), int32(f)
	}
	keys, order = ls.sort.Sort(nf)

	if opt.Reorder {
		ls.fragSrc = flat.Grow(ls.fragSrc, nf)
		ls.fragNext = flat.Grow(ls.fragNext, nf)
		ls.fragKeyClass = flat.Grow(ls.fragKeyClass, nf)
		ls.fragClass = flat.Grow(ls.fragClass, nf)
		// next[f] is the chain element the coming round compares: f's source
		// to begin with, -1 once the chain has left the phase.
		src, next, keyClass, class := ls.fragSrc, ls.fragNext, ls.fragKeyClass, ls.fragClass
		chareBits := bits.Len(uint(ar.nChares))
		for i, f := range order {
			inv := trace.NoChare
			src[f] = -1
			if send := tr.MatchingSend(ls.fragFirst[f]); send != trace.NoEvent {
				inv = tr.Events[send].Chare
				if phaseOf[send] == pi {
					src[f] = ar.fragOf[send]
				}
			}
			keys[i] = uint64(ls.fragWInit[f])<<chareBits | uint64(ar.charePos[inv+1])
		}
		copy(next, src)
		// classify numbers the runs of equal keys in the sorted columns and
		// reports whether some run's chains continue into different fragments.
		classify := func() (split bool) {
			c := int32(0)
			for i, f := range order {
				if i > 0 {
					if keys[i] != keys[i-1] {
						c++
					} else if next[f] != next[order[i-1]] {
						split = true
					}
				}
				class[f] = c
			}
			return split
		}
		keys, order = ls.sort.Sort(nf)
		split := classify()
		copy(keyClass, class)
		for depth := 1; split && depth <= 4; depth++ {
			for i, f := range order {
				keys[i] = uint64(class[f]) << 32
				if g := next[f]; g >= 0 {
					keys[i] |= uint64(keyClass[g] + 1)
					next[f] = src[g]
				}
			}
			keys, order = ls.sort.Sort(nf)
			split = classify()
		}
	}
	ls.fragRank = flat.Grow(ls.fragRank, nf)
	for pos, f := range order {
		ls.fragRank[f] = int32(pos)
	}
	return order, ls.fragRank
}

// stepPhase assigns local logical steps within a phase. The phase's initial
// sources get step 0; every other event gets one over the maximum of the
// events that happened-before it — the prior event along its chare's
// timeline and its matching send when it is a receive.
//
// The hard constraints are the intra-fragment event order and the message
// edges; both point strictly forward in (time, kind) order, so their union
// is always acyclic and the assignment never needs a fallback. The fragment
// placement computed by orderFragments acts as the scheduling priority: an
// event's rank is its position in the concatenation of the fragments in
// placement order, and ready events pop in rank order, which keeps each
// fragment's events together whenever dependencies permit. The pop order
// restricted to one chare IS that chare's timeline, so per-chare steps are
// strictly increasing and every receive lands after its send, by
// construction — which also lets stitchChareTimelines recover the timeline
// from the steps instead of recording pop order per chare.
//
// An event waits for at most two others: the one before it in its fragment —
// its neighbour in rank — and, a receive, its send. So no adjacency is built:
// once its fragment predecessor is stepped an event is either queued or, its
// send still unstepped (LocalStep < 0), parked on the send's list of waiting
// receives, which the send queues when it is stepped.
func stepPhase(tr *trace.Trace, events []trace.EventID, placed []int32, phaseOf []int32, pi int32, localStep []int32, ar *extractArena, ls *laneScratch) int32 {
	ls.byRank = flat.Grow(ls.byRank, len(events))
	byRank := ls.byRank
	n := int32(0)
	for _, fi := range placed {
		for _, e := range ls.fragEvents[ls.fragOff[fi]:ls.fragOff[fi+1]] {
			byRank[n] = e
			ar.rank[e] = n
			ar.waitHead[e] = trace.NoEvent
			n++
		}
	}
	sendIn := func(e trace.EventID) trace.EventID {
		if send := tr.MatchingSend(e); send != trace.NoEvent && phaseOf[send] == pi {
			return send
		}
		return trace.NoEvent
	}
	ready := &ls.queue
	ready.reset(int(n))
	// release is called once e's fragment predecessor is stepped.
	release := func(e trace.EventID) {
		if send := sendIn(e); send != trace.NoEvent && localStep[send] < 0 {
			ar.waitNext[e] = ar.waitHead[send]
			ar.waitHead[send] = e
		} else {
			ready.push(ar.rank[e])
		}
	}
	for _, fi := range placed {
		release(ls.fragEvents[ls.fragOff[fi]])
	}
	epoch := ls.epoch
	var maxStep int32
	for !ready.empty() {
		r := ready.pop()
		e := byRank[r]
		ev := &tr.Events[e]
		st := int32(0)
		if ls.chareMark[ev.Chare] == epoch {
			if p := ls.lastStep[ev.Chare]; p+1 > st {
				st = p + 1
			}
		}
		if send := sendIn(e); send != trace.NoEvent {
			if p := localStep[send]; p+1 > st {
				st = p + 1
			}
		}
		localStep[e] = st
		if st > maxStep {
			maxStep = st
		}
		ls.lastStep[ev.Chare] = st
		ls.chareMark[ev.Chare] = epoch
		if r+1 < n && ar.fragOf[byRank[r+1]] == ar.fragOf[e] {
			release(byRank[r+1])
		}
		for w := ar.waitHead[e]; w != trace.NoEvent; w = ar.waitNext[w] {
			ready.push(ar.rank[w])
		}
	}
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
// separates them), so the added edge cannot create a cycle. Every chare's
// phases are grouped into one row of the arena's flat span tables; chares are
// scanned in ascending ID order, so the edge chosen is deterministic.
func fixChareCollision(s *Structure, ar *extractArena) bool {
	// One (chare, phase) pair per chare a phase holds, grouped by chare; the
	// grouped positions are then replaced by their phases.
	total := 0
	ar.spanLo = flat.Grow(ar.spanLo, len(s.Phases)) // phase -> span start, compact for the row sorts
	for i := range s.Phases {
		total += len(s.Phases[i].Chares)
		ar.spanLo[i] = s.Phases[i].Offset
	}
	ar.spanChare, ar.spanPhase = flat.Grow(ar.spanChare, total), flat.Grow(ar.spanPhase, total)
	chares, phases := ar.spanChare[:0], ar.spanPhase[:0]
	for i := range s.Phases {
		for _, c := range s.Phases[i].Chares {
			chares, phases = append(chares, c), append(phases, int32(i))
		}
	}
	spans := flat.GroupAll(ar.nChares, ar.spanOff, ar.spanRow, chares)
	ar.spanOff, ar.spanRow = spans.Off, spans.IDs
	for k, i := range spans.IDs {
		spans.IDs[k] = phases[i]
	}
	for c := 0; c < ar.nChares; c++ {
		row := spans.Row(c)
		if len(row) < 2 {
			continue
		}
		// Sweep by span start: a collision exists iff a span begins before
		// the previous maximum end.
		slices.SortFunc(row, func(x, y int32) int {
			if ar.spanLo[x] != ar.spanLo[y] {
				return int(ar.spanLo[x]) - int(ar.spanLo[y])
			}
			return int(x) - int(y)
		})
		last := row[0] // the phase whose span ends latest so far
		for _, b := range row[1:] {
			lo, hi := s.Phases[b].GlobalSpan()
			if _, end := s.Phases[last].GlobalSpan(); lo > end {
				if hi > end {
					last = b
				}
				continue
			}
			// Colliding spans imply the phases are unordered.
			first, second := last, b
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
	// Hand-written rather than flat.Group: the key is a field of the event
	// records, not a column. Count into off[c+2] and prefix-sum, so that
	// off[c+1] is chare c's start and advances to its end as the row fills.
	off := make([]int32, nc+2)
	for e := range s.PhaseOf {
		if s.PhaseOf[e] >= 0 {
			off[s.Trace.Events[e].Chare+2]++
		}
	}
	for c := 2; c < len(off); c++ {
		off[c] += off[c-1]
	}
	buf := make([]trace.EventID, off[nc+1])
	for _, pi := range order {
		for _, e := range s.Phases[pi].Events {
			c := s.Trace.Events[e].Chare
			buf[off[c+1]] = e
			off[c+1]++
		}
	}
	for c := 0; c < nc; c++ {
		if lo, hi := off[c], off[c+1]; lo < hi {
			s.chareEvents[c] = buf[lo:hi:hi]
		}
	}
}
