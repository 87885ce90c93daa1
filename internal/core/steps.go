package core

import (
	"math/bits"
	"slices"

	"charmtrace/internal/flat"
	"charmtrace/internal/graph"
	"charmtrace/internal/partition"
	"charmtrace/internal/trace"
)

// ordering is the working state of the ordering stage (§3.2), which works on
// fragments: a serial block's run of events inside one phase. Reordering
// (§3.2.1) permutes fragments per chare; events inside a fragment keep their
// recorded order. No fragment edge, stepping constraint or w dependency
// crosses a phase, and the stage orders every phase at once in passes whose
// tables and keys have the phase as their most significant part, so that a
// pass computes for each phase what a pass over it alone would (DESIGN.md
// §3a). Phase pi's fragments are [fragOff[pi], fragOff[pi+1]) and its events
// events[evOff[pi]:evOff[pi+1]], also its ranges of fragment and event ranks.
type ordering struct {
	tr        *trace.Trace
	phaseOf   []int32
	chare     []trace.ChareID // event -> chare, read instead of the event records
	events    []trace.EventID // phased events, phase-major in (time, kind, ID) order
	evOff     []int32
	w, fragOf []int32 // event -> w clock within its phase, fragment
	fragOff   []int32
	fragFirst []trace.EventID // fragment -> initial event; frags.Row(f) lists its events
	fragLast  []int32         // w of the fragment's latest event while clocking, then its rank
	wBase     []int32         // phase -> one past the previous phases' largest w
	timeOrder bool            // fragment numbers already ascend by time key (see clock)
	frags     flat.Rows[trace.EventID]
	pairChare []trace.ChareID // the phases' distinct (phase, chare) pairs, phase-major
	pairPhase []int32
	sort      flat.Sorter[int32]
	queue     rankQueue // fragments by rank while placing, then events while stepping
}

// assignSteps runs the ordering stage: the w clock, fragment reordering,
// local step assignment, and global offsets from the phase DAG. Its sweeps
// poll the extraction context once per sweepBlock events; on expiry the
// partly built structure is returned, for Extract to discard.
func assignSteps(tr *trace.Trace, opt Options, a *atoms, t *tel) *Structure {
	a.set.CycleMerge()
	// The phase DAG and every atom's phase; the chares of a phase come from
	// the clock sweep, so the set's part rows are never filled.
	v := a.set.Graph()
	leap, _ := v.Leaps()
	n, nParts := len(tr.Events), len(v.G.Adj)
	s := &Structure{
		Trace:       tr,
		Opts:        opt,
		Phases:      make([]Phase, nParts),
		DAG:         &graph.Graph{Adj: slices.Clone(v.G.Adj)}, // fixChareCollision appends; the set's snapshot stays as built
		PhaseOf:     make([]int32, n),
		LocalStep:   make([]int32, n),
		Step:        make([]int32, n),
		chareEvents: make([][]trace.EventID, len(tr.Chares)),
	}
	o := &ordering{tr: tr, phaseOf: s.PhaseOf, chare: make([]trace.ChareID, n), w: make([]int32, n), fragOf: make([]int32, n)}

	// One pass over the event records: each event's phase (its atom's; an
	// event no block lists has none), chare, canonical block (complemented
	// for a receive, in fragOf until clock numbers the fragments) and (time,
	// kind) sort key: twice the time plus the kind (Send=0, Recv=1) less
	// twice the earliest time, modulo 2^64, exact since trace validation
	// bounds |Time| below 2^62.
	keys, ids := o.sort.Columns(n)
	var minTime trace.Time
	for e := range tr.Events {
		ev := &tr.Events[e]
		s.PhaseOf[e], s.LocalStep[e], o.chare[e], o.fragOf[e] = -1, -1, ev.Chare, int32(a.canonicalBlock(ev.Block))
		if ev.Kind == trace.Recv {
			o.fragOf[e] = ^o.fragOf[e]
		}
		if atom := a.of[e]; atom >= 0 {
			s.PhaseOf[e] = v.PartOf[atom]
		}
		keys[e], ids[e] = uint64(ev.Time)*2+uint64(ev.Kind), int32(e)
		if e == 0 || ev.Time < minTime {
			minTime = ev.Time
		}
	}
	for e := range keys {
		keys[e] -= uint64(minTime) * 2
	}
	_, order := o.sort.Sort(n)
	byTime := flat.Group[trace.EventID](nParts, nil, nil, order, s.PhaseOf)
	o.events, o.evOff = byTime.IDs, byTime.Off
	// Events starts as the time-ordered region, all computeOffsets reads of
	// it. A phase's runtime flag is its partition's: any of its atoms'.
	seen := make([]bool, nParts)
	for atom, pi := range v.PartOf {
		if !seen[pi] {
			seen[pi] = true
			lo, hi := o.evOff[pi], o.evOff[pi+1]
			s.Phases[pi] = Phase{ID: pi, Runtime: a.set.IsRuntime(partition.ID(atom)), Leap: leap[pi], Events: o.events[lo:hi:hi]}
		}
	}

	t.prog.StartLoop(int64(nParts)) // /debug/flights shows phases stepped out of the total
	if !o.clock(opt, a, t) {
		return s
	}
	phasesOf := o.phaseChares(s)
	o.frags = flat.Group[trace.EventID](len(o.fragFirst), nil, nil, o.events, o.fragOf)
	order, rank := o.rankFragments(opt)
	popped, popEnd, ok := o.stepEvents(s, o.orderFragments(order, rank), t)
	if !ok {
		return s
	}
	computeOffsets(s, phasesOf)
	o.outputOrder(s, popped, popEnd)
	return s
}

// clock computes the idealized-replay clock w (§3.2.1) of every phased event
// and numbers the fragments, in one sweep of events.
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
// A fragment is a (phase, canonical block) pair; absorbed block pairs (§2.1)
// order as one serial block. Chare-indexed state is live while its mark is
// the current phase's. Fragment f's time key, the count of distinct (phase,
// time) pairs before its first event's followed by its canonical block, goes
// straight into the sort's key column, free until rankFragments sorts.
func (o *ordering) clock(opt Options, a *atoms, t *tel) bool {
	tr, nParts, nf := o.tr, len(o.evOff)-1, a.set.NumAtoms() // a fragment holds an atom at least
	o.fragOff, o.wBase = make([]int32, nParts+1), make([]int32, nParts)
	o.fragFirst, o.fragLast = make([]trace.EventID, 0, nf), make([]int32, 0, nf)
	pairs := min(len(o.events), len(tr.Chares)*nParts)
	o.pairChare, o.pairPhase = make([]trace.ChareID, 0, pairs), make([]int32, 0, pairs)
	timeKey, _ := o.sort.Columns(len(o.events))
	// fragOfBlock[b] is block b's latest fragment: the current phase's
	// exactly when it is not below the phase's first.
	fragOfBlock := make([]int32, len(tr.Blocks))
	for i := range fragOfBlock {
		fragOfBlock[i] = -1
	}
	chareMark, recvMark, maxRecvW := make([]int32, len(tr.Chares)), make([]int32, len(tr.Chares)), make([]int32, len(tr.Chares))
	blockBits := bits.Len(uint(len(tr.Blocks)))
	o.timeOrder = true
	run, runTime, base, k := uint64(0), trace.Time(0), int32(0), 0
	for pi := int32(0); pi < int32(nParts); pi++ {
		first, top := int32(len(o.fragFirst)), int32(0)
		o.fragOff[pi], o.wBase[pi] = first, base
		for _, e := range o.events[o.evOff[pi]:o.evOff[pi+1]] {
			if k++; k%sweepBlock == 0 && t.cancelled() {
				return false
			}
			c, cb := o.chare[e], trace.BlockID(o.fragOf[e])
			recv := cb < 0
			if recv {
				cb = ^cb
			}
			if chareMark[c] != pi+1 {
				chareMark[c] = pi + 1
				o.pairChare, o.pairPhase = append(o.pairChare, c), append(o.pairPhase, pi)
			}
			f := fragOfBlock[cb]
			fresh := f < first
			var val int32
			if recv {
				// The matching send is in this phase (Alg. 1 merges
				// endpoints) and was processed earlier (sends precede
				// receives in time order); the guard covers synthetic
				// cross-phase records.
				if send := o.sendIn(e, pi); send != trace.NoEvent {
					val = o.w[send] + 1
				}
				if !opt.MessagePassing {
					if !fresh && o.fragLast[f]+1 > val {
						val = o.fragLast[f] + 1
					}
				} else if recvMark[c] != pi+1 || val > maxRecvW[c] {
					maxRecvW[c], recvMark[c] = val, pi+1
				}
			} else if opt.MessagePassing {
				if recvMark[c] == pi+1 {
					val = maxRecvW[c] + 1
				}
			} else if !fresh {
				val = o.fragLast[f] + 1
			}
			if fresh {
				f = int32(len(o.fragFirst))
				fragOfBlock[cb] = f
				tm := tr.Events[e].Time
				if f > 0 && (f == first || tm != runTime) {
					run++
				}
				runTime, timeKey[f] = tm, run<<blockBits|uint64(cb)
				o.timeOrder = o.timeOrder && (f == 0 || timeKey[f] > timeKey[f-1])
				o.fragFirst, o.fragLast = append(o.fragFirst, e), append(o.fragLast, val)
			}
			o.fragLast[f], o.w[e], o.fragOf[e] = val, val, f
			top = max(top, val)
		}
		base += top + 1
	}
	o.fragOff[nParts] = int32(len(o.fragFirst))
	return true
}

// phaseChares fills every phase's Chares, its events' chares in ascending
// order, from the pairs clock listed grouped by chare and then stably by
// phase, and returns the first grouping: row c lists chare c's phases.
func (o *ordering) phaseChares(s *Structure) flat.Rows[int32] {
	byChare := flat.GroupAll[int32](len(o.tr.Chares), nil, nil, o.pairChare)
	rows := flat.Group[trace.ChareID](len(s.Phases), nil, nil, byChare.IDs, o.pairPhase)
	for i, k := range rows.IDs {
		rows.IDs[i] = o.pairChare[k]
	}
	for pi := range s.Phases {
		s.Phases[pi].Chares = rows.Row(pi)
	}
	for i, k := range byChare.IDs {
		byChare.IDs[i] = o.pairPhase[k]
	}
	return byChare
}

// rankFragments computes the total order orderFragments places by: the
// fragments in that order (in the sort scratch, valid until the next sort),
// and each fragment's position in it. Within a phase the order is
// lexicographic on a chain of keys. A fragment's key is (w of its initial
// event, position of its invoking chare in (ChareRank, ID) order: the
// paper's topology-aware tie-break); the chain is the fragment's key, its
// source fragment's (the one holding the send that invoked it, when that is
// in the phase), and so on for four steps back; tied chains fall to
// (physical time, canonical block) of the fragment itself. This is a total
// order: a fragment invoked from inside the phase starts with w >= 1 and a
// real invoker, while w = 0 or no invoker means no source, so tied chains
// have one length, and chains that reach one fragment are equal from there
// on. Without Reorder only the (time, block) part applies.
//
// It is computed by refinement with stable radix sorts of phase-major keys:
// sort by the time key (unless the numbering follows it); by key, its w
// offset by the phase's base, which groups the fragments into classes of
// equal key; then, while some class holds two fragments whose chains go on
// to different fragments, by (class, key class of the next chain element),
// splitting the classes. Refining until no class anywhere splits is refining
// each phase until none of its own does: a class that survives a round
// unsplit holds chains that reach one fragment. Keys fit 64 bits, since w is
// at most a phase's event count and the bases below twice the trace's.
func (o *ordering) rankFragments(opt Options) (order, rank []int32) {
	nf, nc := len(o.fragFirst), len(o.tr.Chares)
	keys, order := o.sort.Columns(nf)
	for f := range order {
		order[f] = int32(f)
	}
	if !o.timeOrder {
		keys, order = o.sort.Sort(nf)
	}
	if opt.Reorder {
		// next[f] is the chain element the coming round compares: f's
		// source to begin with, -1 once the chain has left the phase.
		src, class := make([]int32, nf), make([]int32, nf)
		next, keyClass := src, class
		var chares flat.Sorter[int32]
		cKeys, cIDs := chares.Columns(nc + 1)
		for i := range cIDs { // slot c+1 is chare c, slot 0 is NoChare
			r := int32(i - 1)
			if i > 0 && i <= len(opt.ChareRank) {
				r = opt.ChareRank[i-1]
			}
			cKeys[i], cIDs[i] = uint64(uint32(r)^(1<<31)), int32(i)
		}
		_, byRank := chares.Sort(nc + 1)
		charePos := cKeys // spent
		for pos, i := range byRank {
			charePos[i] = uint64(pos)
		}
		chareBits := bits.Len(uint(nc))
		for i, f := range order {
			first := o.fragFirst[f]
			pi, inv := o.phaseOf[first], trace.NoChare
			src[f] = -1
			if send := o.tr.MatchingSend(first); send != trace.NoEvent {
				inv = o.chare[send]
				if o.phaseOf[send] == pi {
					src[f] = o.fragOf[send]
				}
			}
			keys[i] = uint64(o.wBase[pi]+o.w[first])<<chareBits | charePos[inv+1]
		}
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
		keys, order = o.sort.Sort(nf)
		split := classify()
		if split {
			next, keyClass = slices.Clone(src), slices.Clone(class)
		}
		for depth := 1; split && depth <= 4; depth++ {
			for i, f := range order {
				keys[i] = uint64(class[f]) << bits.Len(uint(nf)) // key classes are below nf
				if g := next[f]; g >= 0 {
					keys[i] |= uint64(keyClass[g] + 1)
					next[f] = src[g]
				}
			}
			keys, order = o.sort.Sort(nf)
			split = classify()
		}
	}
	rank = o.fragLast // spent
	for pos, f := range order {
		rank[f] = int32(pos)
	}
	return order, rank
}

// orderFragments places each phase's fragments (§3.2.1) in an order that
// respects every message between them, the scheduling priority of step
// assignment: a Kahn traversal popping the lowest rank among fragments whose
// senders are placed, since the invoker tie-break knows nothing of messages
// between tied blocks. A phase none of whose messages go backwards in rank
// would be placed in rank order, and is copied instead.
func (o *ordering) orderFragments(order, rank []int32) []int32 {
	tr, nf, nParts := o.tr, len(o.fragFirst), len(o.fragOff)-1
	indeg, tangled := make([]int32, nf), make([]bool, nParts)
	for e, pi := range o.phaseOf {
		if send := o.sendIn(trace.EventID(e), pi); pi >= 0 && send != trace.NoEvent {
			if fs, fe := o.fragOf[send], o.fragOf[e]; fs != fe {
				indeg[fe]++
				tangled[pi] = tangled[pi] || rank[fs] > rank[fe]
			}
		}
	}
	placed := order
	if slices.Contains(tangled, true) {
		placed = make([]int32, nf)
	}
	ready := &o.queue
	ready.reset(nf)
	for pi := range nParts {
		lo, hi := o.fragOff[pi], o.fragOff[pi+1]
		if !tangled[pi] {
			copy(placed[lo:hi], order[lo:hi]) // a no-op unless some phase is tangled
			continue
		}
		// Ready are the fragments from the cursor on with no sender left and,
		// queued, those readied after the cursor passed them, ranked lower.
		cur, blocked := lo, lo // no fragment ranked below order[blocked] is blocked
		for at := lo; at < hi; at++ {
			for cur < hi && indeg[order[cur]] != 0 {
				cur++
			}
			var r int32
			switch {
			case !ready.empty():
				r = ready.pop()
			case cur < hi:
				r, cur = cur, cur+1
			default:
				// A cycle of multi-receive blocks: release the lowest-ranked
				// blocked fragment; steps rest on event edges alone.
				for indeg[order[blocked]] <= 0 {
					blocked++
				}
				r, indeg[order[blocked]] = blocked, 0
			}
			f := order[r]
			placed[at] = f
			for _, e := range o.frags.Row(int(f)) {
				for _, r := range tr.MatchingRecvs(e) {
					if g := o.fragOf[r]; o.phaseOf[r] == int32(pi) && g != f {
						if indeg[g]--; indeg[g] == 0 && rank[g] < cur {
							ready.push(rank[g])
						}
					}
				}
			}
		}
	}
	return placed
}

// stepEvents assigns local logical steps and returns each phase's events in
// step order, phase pi's in popped[evOff[pi]:popEnd[pi]]. An event's step is
// one over the maximum of its chare's previous event's and, a receive, its
// send's (0 for none). The ready event of lowest rank — position in the
// phase's fragments in placement order — is stepped next, which keeps each
// fragment's events together whenever dependencies permit. The step order of
// one chare IS its timeline in the phase, so per-chare steps increase and a
// receive lands after its send, by construction.
//
// An event waits on its neighbour in rank if that is in its fragment, and on
// its send. A cursor walks the ranks and steps each event it finds ready;
// one it finds waiting is released by its neighbour, or parked on its send's
// list, and queued when it can go. Queued ranks are below the cursor, so the
// queue goes first. Fragment order and message edges point forward in
// (time, kind) order, so a phase drains unless receives recorded before
// their sends (clock skew) close a cycle; those stay unstepped.
func (o *ordering) stepEvents(s *Structure, placed []int32, t *tel) (popped []trace.EventID, popEnd []int32, ok bool) {
	tr, localStep := o.tr, s.LocalStep
	// Spent: the sort's spare payload column (placed may be the other), and
	// a phase's fragment rows once read into byRank.
	byRank, popped, popEnd := o.sort.TmpVal[:len(o.events)], o.frags.IDs, make([]int32, len(s.Phases))
	// Parked receives: waitHead[send] and waitNext[recv] hold an event plus
	// one, zero ending a list; rank[e] is a parked or released e's rank.
	var waitHead, waitNext []int32
	rank := o.w // spent
	// lastStep[c] is chare c's latest step, live while mark[c] is the
	// current phase's (plus one, so that zero is no phase).
	lastStep, mark := make([]int32, len(tr.Chares)), make([]int32, len(tr.Chares))
	ready := &o.queue
	ready.reset(len(o.events))
	k := 0
	for pi := int32(0); pi < int32(len(s.Phases)); pi++ {
		ph, lo, hi := &s.Phases[pi], o.evOff[pi], o.evOff[pi+1]
		r := lo
		for _, f := range placed[o.fragOff[pi]:o.fragOff[pi+1]] {
			for _, e := range o.frags.Row(int(f)) {
				byRank[r] = int32(e)
				r++
			}
		}
		// wait parks e (rank r, neighbour stepped) on its unstepped send, or
		// queues it.
		wait := func(e trace.EventID, r int32) {
			rank[e] = r
			if send := o.sendIn(e, pi); send != trace.NoEvent && localStep[send] < 0 {
				if waitHead == nil {
					waitHead, waitNext = make([]int32, len(tr.Events)), make([]int32, len(tr.Events))
				}
				waitNext[e], waitHead[send] = waitHead[send], int32(e)+1
			} else {
				ready.push(r)
			}
		}
		cur, at := lo, lo
		for ; at < hi; at++ {
			if k++; k%sweepBlock == 0 && t.cancelled() {
				return nil, nil, false
			}
			if !ready.empty() {
				r = ready.pop()
			} else {
				for ; cur < hi; cur++ {
					e := trace.EventID(byRank[cur])
					if cur > lo && o.fragOf[byRank[cur-1]] == o.fragOf[e] && localStep[byRank[cur-1]] < 0 {
						continue // its neighbour releases it
					}
					if send := o.sendIn(e, pi); send == trace.NoEvent || localStep[send] >= 0 {
						break
					}
					wait(e, cur)
				}
				if cur == hi {
					break // a cycle through skewed messages
				}
				r, cur = cur, cur+1
			}
			e := trace.EventID(byRank[r])
			c, st := o.chare[e], int32(0)
			if mark[c] == pi+1 {
				st = lastStep[c] + 1
			}
			if send := o.sendIn(e, pi); send != trace.NoEvent {
				st = max(st, localStep[send]+1)
			}
			localStep[e], lastStep[c], mark[c], popped[at] = st, st, pi+1, e
			ph.MaxLocalStep = max(ph.MaxLocalStep, st)
			if r+1 < cur && o.fragOf[byRank[r+1]] == o.fragOf[e] {
				wait(trace.EventID(byRank[r+1]), r+1)
			}
			if waitHead != nil {
				for w := waitHead[e]; w != 0; w = waitNext[w-1] {
					ready.push(rank[w-1])
				}
				waitHead[e] = 0
			}
		}
		popEnd[pi] = at
		t.prog.Add(1)
	}
	return popped, popEnd, true
}

// sendIn returns receive e's send if that is in phase pi, NoEvent otherwise.
func (o *ordering) sendIn(e trace.EventID, pi int32) trace.EventID {
	if send := o.tr.MatchingSend(e); send != trace.NoEvent && o.phaseOf[send] == pi {
		return send
	}
	return trace.NoEvent
}

// outputOrder fills the global steps, the chare timelines and each phase's
// Events in (local step, chare) order. The phases' step orders, phases in
// (offset, leap, ID) order, grouped by chare are the timelines, and those
// grouped by (phase, local step) every phase's Events: counting sorts both,
// as a (phase, local step, chare) holds one event at most.
func (o *ordering) outputOrder(s *Structure, popped []trace.EventID, popEnd []int32) {
	var phases flat.Sorter[int32]
	keys, ids := phases.Columns(len(s.Phases))
	for i := range ids { // offsets and leaps are not negative
		keys[i], ids[i] = uint64(s.Phases[i].Offset)<<32|uint64(s.Phases[i].Leap), int32(i)
	}
	_, byOffset := phases.Sort(len(s.Phases))
	// Spent buffers hold the concatenation, the slots and their offsets.
	cat, slot, base, slots := o.events[:0], o.w, make([]int32, len(s.Phases)), int32(0)
	for _, pi := range byOffset {
		cat = append(cat, popped[o.evOff[pi]:popEnd[pi]]...)
		base[pi] = slots // the slot of the phase's local step 0
		slots += s.Phases[pi].MaxLocalStep + 1
	}
	for e, pi := range s.PhaseOf {
		slot[e], s.Step[e] = -1, -1
		if pi >= 0 {
			s.Step[e] = s.Phases[pi].Offset + s.LocalStep[e]
			if s.LocalStep[e] >= 0 {
				slot[e] = base[pi] + s.LocalStep[e]
			}
		}
	}
	timelines := flat.Group[trace.EventID](len(s.chareEvents), nil, nil, cat, o.chare)
	for c := range s.chareEvents {
		s.chareEvents[c] = timelines.Row(c)
	}
	bySlot := flat.Group(int(slots), o.fragOf, o.events, timelines.IDs, slot)
	for pi := range s.Phases {
		lo, hi := bySlot.Off[base[pi]], bySlot.Off[base[pi]+s.Phases[pi].MaxLocalStep+1]
		s.Phases[pi].Events = bySlot.IDs[lo:hi:hi]
	}
}

// computeOffsets assigns each phase its global step offset: the maximum over
// phase-DAG predecessors of (their offset + their max local step + 1). An
// implementation refinement guards the per-chare uniqueness of global steps:
// if two phases sharing a chare remain unordered and their global spans
// collide, an order edge (earlier initial event first) is inserted and
// offsets are recomputed. Row c of phasesOf lists chare c's phases.
func computeOffsets(s *Structure, phasesOf flat.Rows[int32]) {
	spanLo := make([]int32, len(s.Phases))
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
		if !fixChareCollision(s, phasesOf, spanLo) {
			return
		}
	}
}

// fixChareCollision finds one pair of unordered phases that share a chare
// and collide in global steps, adds an order edge, and reports whether it
// did. Phases connected in the DAG can never collide (the offset rule
// separates them), so the added edge cannot create a cycle. Chares are
// scanned in ascending ID order, so the edge chosen is deterministic;
// spanLo is scratch for every phase's span start.
func fixChareCollision(s *Structure, phasesOf flat.Rows[int32], spanLo []int32) bool {
	for i := range s.Phases {
		spanLo[i] = s.Phases[i].Offset
	}
	for c := 0; c < len(phasesOf.Off)-1; c++ {
		row := phasesOf.Row(c)
		if len(row) < 2 {
			continue
		}
		// Sweep by span start: a collision exists iff a span begins before
		// the previous maximum end.
		slices.SortFunc(row, func(x, y int32) int {
			if spanLo[x] != spanLo[y] {
				return int(spanLo[x]) - int(spanLo[y])
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
