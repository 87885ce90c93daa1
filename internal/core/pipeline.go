package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"charmtrace/internal/flat"
	"charmtrace/internal/partition"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
)

// tel carries the telemetry context through the pipeline: the metrics
// registry backing Stats, the cancellation context and the live progress.
type tel struct {
	reg  *telemetry.Registry
	ctx  context.Context // nil = never cancelled
	prog *Progress       // nil = no live progress reporting
}

// cancelled reports whether the extraction's context has expired. Safe to
// call from pool lanes (ctx.Err is concurrency-safe).
func (t *tel) cancelled() bool {
	return t.ctx != nil && t.ctx.Err() != nil
}

// Test hooks, nil outside tests: partInfoHook sees every buildPartInfo
// result beside the snapshot it was built from, extractHook the phase-finding
// state behind every structure Extract returns.
var (
	partInfoHook func(*trace.Trace, *atoms, *partition.View, *partInfos)
	extractHook  func(*atoms, *Structure)
)

// Extract recovers the logical structure of a trace (Section 3). The trace
// must be indexed (Builder.Finish and tracefile.Read both index); Extract
// indexes it if not.
func Extract(tr *trace.Trace, opt Options) (*Structure, error) {
	if !tr.Indexed() {
		if err := tr.Index(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	workers := opt.Workers()
	t := &tel{reg: telemetry.NewRegistry(), ctx: opt.Context, prog: opt.Progress}
	t.reg.Gauge("trace.events").Set(float64(len(tr.Events)))
	t.reg.Gauge("trace.blocks").Set(float64(len(tr.Blocks)))
	t.reg.Gauge("trace.chares").Set(float64(len(tr.Chares)))
	t.reg.Gauge("pipeline.workers").Set(float64(workers))

	// stage wraps one pipeline stage: wall time and merge count into the
	// registry (the single bookkeeping path — Stats is materialized from the
	// registry below).
	// cancelErr latches the first cancellation observed at a stage
	// boundary; once set, the remaining stages are skipped and Extract
	// returns the error instead of a (partially built) structure.
	var cancelErr error
	stage := func(name string, f func() int) {
		if cancelErr != nil {
			return
		}
		if err := opt.ctxErr(); err != nil {
			cancelErr = err
			return
		}
		t.prog.SetStage(name)
		start := time.Now()
		merged := f()
		d := time.Since(start)
		t.reg.Counter(telemetry.StageNSPrefix + name).Add(d.Nanoseconds())
		t.reg.Counter(telemetry.StageMergedPrefix + name).Add(int64(merged))
	}

	a := findPhases(tr, opt, workers, t, stage)
	var s *Structure
	stage("step-assignment", func() int {
		s = assignSteps(tr, opt, a, t)
		return 0
	})
	if cancelErr == nil {
		// Catch a cancellation that landed inside the final stage: its
		// structure is partially stepped and must not escape.
		cancelErr = opt.ctxErr()
	}
	if cancelErr != nil {
		if opt.Metrics != nil {
			t.reg.MergeInto(opt.Metrics)
		}
		return nil, fmt.Errorf("core: extract cancelled: %w", cancelErr)
	}
	s.Stats = statsFromRegistry(t.reg, workers)
	if extractHook != nil {
		extractHook(a, s)
	}
	if opt.Metrics != nil {
		t.reg.MergeInto(opt.Metrics)
	}
	return s, nil
}

// findPhases runs the phase-finding stages (§3.1), each through stage —
// Extract's per-stage bookkeeping, which skips every stage once the
// extraction is cancelled — and returns the atoms in their final partition
// state, nil if the first stage was skipped.
func findPhases(tr *trace.Trace, opt Options, workers int, t *tel, stage func(name string, f func() int)) *atoms {
	var a *atoms
	stage("initial", func() int {
		a = buildAtoms(tr, opt)
		t.reg.Gauge("pipeline.initial_partitions").Set(float64(a.set.NumAtoms()))
		return 0
	})
	stage("dependency-merge", func() int { return dependencyMerge(tr, a, t) })
	stage("cycle-merge", func() int { return a.set.CycleMerge() })
	stage("repair-merge", func() int { return repairMerge(tr, a, opt) })
	stage("cycle-merge", func() int { return a.set.CycleMerge() })
	if opt.InferDependencies {
		stage("infer-dependencies", func() int { return inferDependencies(tr, a, workers, t) })
		stage("cycle-merge", func() int { return a.set.CycleMerge() })
		stage("leap-merge", func() int { return leapMerge(a) })
		stage("cycle-merge", func() int { return a.set.CycleMerge() })
	}
	stage("enforce-orderability", func() int {
		merged, rounds := enforceOrderability(tr, a, opt, workers, t)
		t.reg.Gauge("pipeline.enforce_rounds").Set(float64(rounds))
		return merged
	})
	stage("enforce-chare-paths", func() int { return enforceCharePaths(tr, a) })
	return a
}

// The sequential sweeps poll the extraction context and credit the live
// progress once per fixed block of items, so cancellation latency and the
// /debug/flights counters are the same at every worker count; the pooled
// loops do the same per pool item (parallel.go).
const (
	sweepBlock = 1 << 14 // events per poll of the Alg. 1 sweep and of the ordering stage's two sweeps
	leapBlock  = 16      // leaps per poll of the overlap scan
	partItems  = 64      // pool items buildPartInfo cuts its partitions into
)

// dependencyMerge is Algorithm 1: partitions containing the matching
// endpoints of a remote method invocation belong in the same phase. One
// sweep over the events merges the partitions of every (send, receive)
// pair in sweep order, skipping the pairs an earlier union already joined.
// The sweep reads nothing a union writes, so this is the pseudocode's
// schedule-then-merge without the schedule.
func dependencyMerge(tr *trace.Trace, a *atoms, t *tel) int {
	n := len(tr.Events)
	t.reg.Counter("pipeline.events_scanned").Add(int64(n))
	merged := 0
	t.prog.StartLoop(int64(n))
	for lo := 0; lo < n && !t.cancelled(); lo += sweepBlock {
		hi := min(lo+sweepBlock, n)
		for i := lo; i < hi; i++ {
			for _, r := range tr.MatchingRecvs(trace.EventID(i)) {
				if send, recv := a.of[i], a.of[r]; !a.set.SamePartition(send, recv) {
					a.set.Union(send, recv)
					merged++
				}
			}
		}
		t.prog.Add(int64(hi - lo))
	}
	return merged
}

// repairMerge is Algorithm 2: restore merges that the application/runtime
// split of serial blocks prevented. For consecutive events within one serial
// block whose partitions now differ but agree on runtime-ness, merge. With
// opt.NeighborSerialMerge it additionally applies the §3.1.3 refinement for
// neighbouring SDAG serials.
func repairMerge(tr *trace.Trace, a *atoms, opt Options) int {
	merged := 0
	for bi := range tr.Blocks {
		blk := &tr.Blocks[bi]
		for i := 0; i+1 < len(blk.Events); i++ {
			p := a.of[blk.Events[i]]
			q := a.of[blk.Events[i+1]]
			if a.set.SamePartition(p, q) {
				continue
			}
			if a.set.IsRuntime(p) == a.set.IsRuntime(q) {
				a.set.Union(p, q)
				merged++
			}
		}
	}
	if opt.NeighborSerialMerge {
		merged += neighborSerialMerge(tr, a)
	}
	return merged
}

// neighborSerialMerge: if a set of chares participates in SDAG serial n
// within a single partition and those chares immediately participate in
// serial n+1 spread over several partitions, the control likely flowed from
// one multi-chare group to the next, so the latter partitions are merged.
func neighborSerialMerge(tr *trace.Trace, a *atoms) int {
	// next[p] collects, per partition p holding serial-n blocks, the
	// partitions of the immediately following serial-(n+1) blocks.
	next := make(map[partition.ID][]partition.ID)
	for c := range tr.Chares {
		blocks := tr.BlocksOfChare(trace.ChareID(c))
		for i := 0; i+1 < len(blocks); i++ {
			ce := &tr.Entries[tr.Blocks[blocks[i]].Entry]
			ne := &tr.Entries[tr.Blocks[blocks[i+1]].Entry]
			if ce.SDAGSerial < 0 || ne.SDAGSerial != ce.SDAGSerial+1 {
				continue
			}
			la, fb := a.lastOf[blocks[i]], a.firstOf[blocks[i+1]]
			if la < 0 || fb < 0 {
				continue
			}
			p := a.set.Find(la)
			next[p] = append(next[p], fb)
		}
	}
	merged := 0
	for _, followers := range next {
		if len(followers) < 2 {
			continue
		}
		first := followers[0]
		for _, f := range followers[1:] {
			if a.set.IsRuntime(first) != a.set.IsRuntime(f) {
				continue
			}
			if !a.set.SamePartition(first, f) {
				a.set.Union(first, f)
				merged++
			}
		}
	}
	return merged
}

// buildPartInfo computes the per-partition ordering information used by the
// §3.1.4 heuristics — the earliest event per chare (aligned with the view's
// sorted chare rows), the earliest partition-starting source time per PE,
// and overall minima — into the arena's flat partInfos tables. It reads one
// event per atom, the atom's earliest (buildAtoms): an atom's events share
// a chare and (time, ID) is a total order, so the minima over those are the
// minima over all the events. Partitions are independent pool items, handed
// out in partItems blocks — the cut depends on the partition count alone,
// so sixteen thousand five-event partitions and sixteen six-thousand-event
// ones (one trace, before and after the leap merge) both spread over the
// lanes. Each scan only reads the view and the atoms' immutable tables and
// writes its own row, so the result is identical for any worker count.
func buildPartInfo(tr *trace.Trace, a *atoms, v *partition.View, workers int, t *tel) *partInfos {
	info := &a.arena.info
	n := len(v.Parts)
	info.chareOff = flat.Grow(info.chareOff, n+1)
	total := int32(0)
	for pi := range v.Parts {
		info.chareOff[pi] = total
		total += int32(len(v.Parts[pi].Chares))
	}
	info.chareOff[n] = total
	info.initEvent = flat.Grow(info.initEvent, int(total))
	info.minTime = flat.Grow(info.minTime, n)
	info.src = flat.Grow(info.src, int(total))
	info.srcEnd = flat.Grow(info.srcEnd, n)
	t.forEach(n, max(1, n/partItems), workers, func(pi, _ int) {
		part := &v.Parts[pi]
		chares := part.Chares
		base := info.chareOff[pi]
		row := info.initEvent[base : base+int32(len(chares))]
		for i := range row {
			row[i] = trace.NoEvent
		}
		minTime := trace.Time(1<<62 - 1)
		for _, atomID := range part.Atoms {
			e := a.minEvent[atomID]
			ci := chareIndex(chares, a.set.AtomChare(atomID))
			if cur := row[ci]; cur == trace.NoEvent || less(tr, e, cur) {
				row[ci] = e
			}
			minTime = min(minTime, tr.Events[e].Time)
		}
		info.minTime[pi] = minTime
		// Partition-starting sources: per-chare initial events that are
		// sends, reduced to the earliest time per PE (sort by (PE, time),
		// keep the first of each PE run).
		w := base
		for _, e := range row {
			if e == trace.NoEvent {
				continue
			}
			ev := &tr.Events[e]
			if ev.Kind != trace.Send {
				continue
			}
			info.src[w] = peTime{pe: ev.PE, t: ev.Time}
			w++
		}
		seg := info.src[base:w]
		slices.SortFunc(seg, func(x, y peTime) int {
			if x.pe != y.pe {
				return int(x.pe) - int(y.pe)
			}
			if x.t != y.t {
				if x.t < y.t {
					return -1
				}
				return 1
			}
			return 0
		})
		out := base
		for i := range seg {
			if i == 0 || seg[i].pe != seg[i-1].pe {
				info.src[out] = seg[i]
				out++
			}
		}
		info.srcEnd[pi] = out
	})
	if partInfoHook != nil {
		partInfoHook(tr, a, v, info)
	}
	return info
}

// less orders events by (time, ID) for deterministic minima.
func less(tr *trace.Trace, a, b trace.EventID) bool {
	ta, tb := tr.Events[a].Time, tr.Events[b].Time
	if ta != tb {
		return ta < tb
	}
	return a < b
}

// inferDependencies is Algorithm 3: the initial events in each partition are
// sources; the physical-time order between partition-starting sources on the
// same chare is inferred as a happened-before relationship between their
// partitions (Figure 5).
func inferDependencies(tr *trace.Trace, a *atoms, workers int, t *tel) int {
	v := a.set.View()
	info := buildPartInfo(tr, a, v, workers, t)
	ar := a.arena
	// Flatten the partition-starting sources into (chare, event, part) rows
	// in partition order, then group them by chare with a stable counting
	// sort: each partition contributes at most one source per chare, so a
	// chare's row reproduces the per-chare list the map-based version
	// accumulated — but chares are now visited in sorted order, keeping the
	// edge insertion order deterministic.
	srcChare, srcEvent, srcPart := ar.srcChare[:0], ar.srcEvent[:0], ar.srcPart[:0]
	for pi := range v.Parts {
		chares := v.Parts[pi].Chares
		base := info.chareOff[pi]
		for j, c := range chares {
			e := info.initEvent[base+int32(j)]
			if e == trace.NoEvent || tr.Events[e].Kind != trace.Send {
				continue
			}
			srcChare = append(srcChare, c)
			srcEvent = append(srcEvent, e)
			srcPart = append(srcPart, int32(pi))
		}
	}
	ar.srcChare, ar.srcEvent, ar.srcPart = srcChare, srcEvent, srcPart
	byChare := flat.GroupAll[int32](ar.nChares, nil, nil, srcChare)
	for c := 0; c < ar.nChares; c++ {
		run := byChare.Row(c)
		// Physical-time order of the chare's sources ((time, ID) is total,
		// so the sort is deterministic).
		slices.SortFunc(run, func(x, y int32) int {
			if less(tr, srcEvent[x], srcEvent[y]) {
				return -1
			}
			return 1
		})
		for k := 0; k+1 < len(run); k++ {
			p, q := run[k], run[k+1]
			if srcPart[p] == srcPart[q] {
				continue
			}
			a.set.AddEdge(a.of[srcEvent[p]], a.of[srcEvent[q]])
		}
	}
	return 0 // Alg. 3 adds edges; partitions are merged by the cycle merge that follows.
}

// leapMerge is Algorithm 4: partitions in the same leap that overlap in
// chares cannot be ordered, so they are assumed to be the same phase and
// merged. Application and runtime partitions are only ever merged by cycle
// merges, so the merge is restricted to same-kind pairs; cross-kind overlap
// is ordered later by enforceOrderability.
func leapMerge(a *atoms) int {
	a.set.CycleMerge()
	v := a.set.View()
	byLeap := v.PartsAtLeap()
	ar := a.arena
	plan := a.set.NewMergePlan()
	for _, parts := range byLeap {
		ar.nextLeap()
		for _, pi := range parts {
			p := &v.Parts[pi]
			// One half of the occupancy table per kind.
			kindOff := 0
			if p.Runtime {
				kindOff = ar.nChares
			}
			for _, c := range p.Chares {
				if first, held := ar.claim(kindOff+int(c), pi); held {
					plan.Schedule(v.Parts[first].Atoms[0], p.Atoms[0])
				}
			}
		}
	}
	return plan.Apply()
}

// enforceOrderability iterates until no two partitions at the same leap
// share a chare (DAG property 1). Same-kind overlaps are merged when
// dependency inference is enabled; application/runtime overlaps — and all
// overlaps when inference is disabled (the Figure 17 ablation) — are instead
// forced into sequence by the physical time of their initial sources.
// Each round's latency lands in the pipeline.enforce_round_ns histogram, so
// slow convergence (the §3.1.4 cost the scaling figures attribute) is
// directly visible.
func enforceOrderability(tr *trace.Trace, a *atoms, opt Options, workers int, t *tel) (merged, rounds int) {
	const maxRounds = 64
	hist := t.reg.Histogram("pipeline.enforce_round_ns")
	for rounds = 0; rounds < maxRounds; rounds++ {
		// Convergence can take many rounds on adversarial traces; a
		// cancelled extraction must not ride the loop to the end. The
		// partial merge state is discarded by Extract's boundary check.
		if t.cancelled() {
			return merged, rounds
		}
		start := time.Now()
		m, done := enforceRound(tr, a, opt, workers, t)
		merged += m
		hist.Observe(float64(time.Since(start).Nanoseconds()))
		if done {
			return merged, rounds + 1
		}
	}
	// Safety valve: merge any remaining overlaps so the pipeline terminates.
	a.set.CycleMerge()
	return merged, maxRounds
}

// enforceRound runs one orderability round: detect same-leap chare
// overlaps, merge or sequence them. done reports that no overlaps remain.
func enforceRound(tr *trace.Trace, a *atoms, opt Options, workers int, t *tel) (merged int, done bool) {
	a.set.CycleMerge()
	v := a.set.View()
	infos := buildPartInfo(tr, a, v, workers, t)
	byLeap := v.PartsAtLeap()
	ar := a.arena
	plan := a.set.NewMergePlan()
	done = true
	t.prog.StartLoop(int64(len(byLeap)))
	for lo := 0; lo < len(byLeap) && !t.cancelled(); lo += leapBlock {
		hi := min(lo+leapBlock, len(byLeap))
		for _, parts := range byLeap[lo:hi] {
			ar.nextLeap()
			for _, q := range parts {
				for _, c := range v.Parts[q].Chares {
					// A part never lists a chare twice, so a held slot is a
					// genuine cross-partition overlap; two parts sharing
					// several chares are one overlap. PartsAtLeap lists a
					// leap's partitions in ascending order, so p < q.
					p, held := ar.claim(int(c), q)
					if !held {
						continue
					}
					key := int64(p)<<32 | int64(q)
					if _, dup := ar.overlapSeen[key]; dup {
						continue
					}
					ar.overlapSeen[key] = struct{}{}
					done = false
					if v.Parts[p].Runtime == v.Parts[q].Runtime && opt.InferDependencies {
						plan.Schedule(v.Parts[p].Atoms[0], v.Parts[q].Atoms[0])
						continue
					}
					first, second := p, q
					if partLater(tr, v, infos, p, q) {
						first, second = q, p
					}
					a.set.AddEdge(v.Parts[first].Atoms[0], v.Parts[second].Atoms[0])
				}
			}
			clear(ar.overlapSeen)
		}
		t.prog.Add(int64(hi - lo))
	}
	return plan.Apply(), done
}

// partLater reports whether partition p starts later than q, comparing the
// physical time of initial sources on shared chares, falling back to shared
// processors, then to the overall earliest event (§3.1.4, "Enforcing DAG
// Properties"). The shared-key scans are merge-joins over the partitions'
// sorted chare rows and PE-sorted source rows.
func partLater(tr *trace.Trace, v *partition.View, info *partInfos, p, q int32) bool {
	// Shared chares: compare earliest initial events there.
	pc, qc := v.Parts[p].Chares, v.Parts[q].Chares
	pRow := info.initEvent[info.chareOff[p] : info.chareOff[p]+int32(len(pc))]
	qRow := info.initEvent[info.chareOff[q] : info.chareOff[q]+int32(len(qc))]
	bestP, bestQ := trace.Time(1<<62-1), trace.Time(1<<62-1)
	i, j := 0, 0
	for i < len(pc) && j < len(qc) {
		switch {
		case pc[i] == qc[j]:
			if ep, eq := pRow[i], qRow[j]; ep != trace.NoEvent && eq != trace.NoEvent {
				if t := tr.Events[ep].Time; t < bestP {
					bestP = t
				}
				if t := tr.Events[eq].Time; t < bestQ {
					bestQ = t
				}
			}
			i++
			j++
		case pc[i] < qc[j]:
			i++
		default:
			j++
		}
	}
	if bestP != bestQ {
		return bestP > bestQ
	}
	// Shared processors: compare earliest initial-source times.
	ps := info.src[info.chareOff[p]:info.srcEnd[p]]
	qs := info.src[info.chareOff[q]:info.srcEnd[q]]
	bestP, bestQ = 1<<62-1, 1<<62-1
	i, j = 0, 0
	for i < len(ps) && j < len(qs) {
		switch {
		case ps[i].pe == qs[j].pe:
			if ps[i].t < bestP {
				bestP = ps[i].t
			}
			if qs[j].t < bestQ {
				bestQ = qs[j].t
			}
			i++
			j++
		case ps[i].pe < qs[j].pe:
			i++
		default:
			j++
		}
	}
	if bestP != bestQ {
		return bestP > bestQ
	}
	if info.minTime[p] != info.minTime[q] {
		return info.minTime[p] > info.minTime[q]
	}
	return p > q
}

// enforceCharePaths is Algorithm 5 (DAG property 2): walking leaps from the
// last to the first, every partition whose direct successors do not span all
// of its chares gains happened-before edges to the partitions of the next
// leap containing the missing chares (Figure 6).
func enforceCharePaths(tr *trace.Trace, a *atoms) int {
	a.set.CycleMerge()
	v := a.set.View()
	byLeap := v.PartsAtLeap()
	ar := a.arena
	// lastLeap[c]: nearest later leap containing chare c, -1 for none.
	lastLeap := flat.Grow(ar.lastLeap, ar.nChares)
	for i := range lastLeap {
		lastLeap[i] = -1
	}
	if len(ar.coveredMark) < ar.nChares {
		ar.coveredMark = make([]int32, ar.nChares)
		ar.wantMark = make([]int32, ar.nChares)
	}
	ar.lastLeap = lastLeap
	added := 0
	for k := int32(len(byLeap)) - 1; k >= 0; k-- {
		for _, pi := range byLeap[k] {
			p := &v.Parts[pi]
			// Chares covered by direct successors (epoch-marked set).
			ar.coveredEpoch++
			for _, succ := range v.G.Adj[pi] {
				for _, c := range v.Parts[succ].Chares {
					ar.coveredMark[c] = ar.coveredEpoch
				}
			}
			// Missing chares grouped by the next leap that contains them:
			// collected in p.Chares order, then index-sorted by (leap,
			// position) — the same per-leap chare lists and ascending leap
			// walk the sorted-keys map version produced.
			missC, missL := ar.missChare[:0], ar.missLeap[:0]
			for _, c := range p.Chares {
				if ar.coveredMark[c] == ar.coveredEpoch {
					continue
				}
				if l := lastLeap[c]; l >= 0 {
					missC = append(missC, c)
					missL = append(missL, l)
				}
				// No later leap contains c: property 2 already satisfied.
			}
			ord := ar.missOrd[:0]
			for i := range missC {
				ord = append(ord, int32(i))
			}
			slices.SortFunc(ord, func(x, y int32) int {
				if missL[x] != missL[y] {
					return int(missL[x]) - int(missL[y])
				}
				return int(x) - int(y)
			})
			ar.missChare, ar.missLeap, ar.missOrd = missC, missL, ord
			for i := 0; i < len(ord); {
				j := i
				l := missL[ord[i]]
				ar.wantEpoch++
				for j < len(ord) && missL[ord[j]] == l {
					ar.wantMark[missC[ord[j]]] = ar.wantEpoch
					j++
				}
				for _, qi := range byLeap[l] {
					q := &v.Parts[qi]
					hit := false
					for _, c := range q.Chares {
						if ar.wantMark[c] == ar.wantEpoch {
							hit = true
							ar.wantMark[c] = 0 // claimed by q
						}
					}
					if hit {
						a.set.AddEdge(p.Atoms[0], q.Atoms[0])
						added++
					}
				}
				i = j
			}
		}
		for _, pi := range byLeap[k] {
			for _, c := range v.Parts[pi].Chares {
				lastLeap[c] = k
			}
		}
	}
	return 0
}
