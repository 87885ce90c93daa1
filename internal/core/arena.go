package core

import (
	"charmtrace/internal/flat"
	"charmtrace/internal/trace"
)

// extractArena is the per-extraction scratch allocator. Every pipeline
// stage that used to allocate per-round or per-phase working state (maps,
// per-partition slices, Kahn queues) instead borrows flat buffers from
// here. Buffers are sized once against the trace's event/chare/block counts
// and reused round after round; set-valued state is epoch-marked rather
// than cleared, so resetting between rounds costs one counter increment.
//
// The arena is created with the atoms decomposition and dies with the
// extraction — nothing in it is referenced by the returned Structure, so an
// arena bug cannot leak state between extractions. Sequential stages share
// the singleton buffers; the ordering stage borrows one laneScratch per pool
// lane, and the shared per-event arrays are only ever indexed by events of
// the lane's own phase (phases are disjoint event sets).
type extractArena struct {
	nEvents, nChares, nBlocks int

	// buildPartInfo output, reused across enforce rounds.
	info partInfos

	// inferDependencies: flattened (chare, event, part) source rows.
	srcChare []trace.ChareID
	srcEvent []trace.EventID
	srcPart  []int32
	srcOrd   []int32

	// Chare occupancy of the leap being scanned (leapMerge, enforceRound's
	// overlap scan): slot -> first partition of this leap to claim it,
	// epoch-guarded. 2*nChares slots: the overlap scan keys on the chare,
	// leapMerge on (chare, kind) with the runtime half at [nChares, 2*nChares).
	seenPart  []int32
	seenMark  []int32
	seenEpoch int32
	// Overlap scan: partition pairs already reported at the current leap.
	overlapSeen map[int64]struct{}

	// enforceCharePaths.
	lastLeap     []int32 // chare -> nearest later leap containing it
	coveredMark  []int32
	coveredEpoch int32
	wantMark     []int32
	wantEpoch    int32
	missChare    []trace.ChareID
	missLeap     []int32
	missOrd      []int32

	// fixChareCollision: the (chare, phase) pairs of all phases, the phases
	// grouped by chare, and every phase's span start.
	spanChare []trace.ChareID
	spanPhase []int32
	spanLo    []int32
	spanOff   []int32
	spanRow   []int32

	// Ordering stage, computed once for all phases: the radix-sort scratch
	// of the global event orders, whose ID column holds the events in
	// (phase, chare, ID) order while the phases are ordered, and every
	// chare's position (slot chare+1; slot 0 is NoChare) in (ChareRank, ID)
	// order.
	sort     flat.Sorter[int32]
	charePos []int32

	// Ordering-stage per-event arrays, shared across phases (disjoint event
	// sets; each cell is written by its phase before being read).
	w        []int32
	fragOf   []int32         // event -> fragment index within its phase
	rank     []int32         // event -> position in its phase's placement order
	waitHead []trace.EventID // send -> first receive parked on it (stepPhase)
	waitNext []trace.EventID // receive -> next receive parked on the same send

	// Per-pool-lane scratch of the ordering stage (ensureLanes).
	lanes []*laneScratch
}

// partInfos is the struct-of-arrays replacement for the old per-partition
// map pair: per (partition, chare) earliest events aligned with the view's
// sorted chare rows, per-partition earliest source times reduced per PE,
// and per-partition minima. All rows live in flat buffers indexed through
// chareOff.
type partInfos struct {
	chareOff  []int32         // nParts+1: part pi's row is [chareOff[pi], chareOff[pi+1])
	initEvent []trace.EventID // aligned with v.Parts[pi].Chares
	minTime   []trace.Time
	src       []peTime // per part: sources sorted by PE, region [chareOff[pi], srcEnd[pi])
	srcEnd    []int32
}

// peTime is one partition-starting source: the earliest source time on one
// processor.
type peTime struct {
	pe trace.PE
	t  trace.Time
}

// laneScratch is the working state of one ordering-stage pool lane. Block-
// and chare-indexed tables are epoch-marked: bumping epoch invalidates the
// whole table in O(1) when the lane moves to its next phase.
type laneScratch struct {
	epoch int32

	// w-clock (phaseW): last w per canonical serial block, max receive w
	// per chare timeline.
	lastW       []int32
	lastWMark   []int32
	maxRecvW    []int32
	maxRecvMark []int32

	// Fragment table of the lane's current phase (struct-of-arrays).
	fragBlock   []trace.BlockID
	fragWInit   []int32
	fragFirst   []trace.EventID // initial event of each fragment
	fragOff     []int32         // fragment -> offset into fragEvents
	fragEvents  []trace.EventID // phase events grouped by fragment
	fragOfBlock []int32         // canonical block -> fragment index
	blockMark   []int32

	// Fragment placement (orderFragments): the fragment graph's edge list,
	// its successor rows and the traversal's in-degrees.
	edgeU, edgeV []int32
	fragIndeg    []int32
	fragSuccOff  []int32
	fragSucc     []int32
	placed       []int32 // fragment indices in placement order

	// Fragment ranking (rankFragments): radix-sort scratch and the chain
	// refinement's per-fragment state.
	sort         flat.Sorter[int32]
	fragSrc      []int32 // fragment -> source fragment (-1 if none in phase)
	fragNext     []int32 // fragment -> chain element the next round compares
	fragKeyClass []int32 // fragment -> class of its own key
	fragClass    []int32 // fragment -> class of its chain so far
	fragRank     []int32 // fragment -> position in the total order

	// The lane's ready queue: fragments by rank in orderFragments, then
	// events by rank in stepPhase.
	queue rankQueue

	// Step assignment (stepPhase) and the output order.
	byRank    []trace.EventID // phase events in rank order
	lastStep  []int32         // chare -> local step of the chare's last popped event
	chareMark []int32
	stepNext  []int32 // row offsets of the output order's grouping by local step
}

func newExtractArena(tr *trace.Trace) *extractArena {
	nChares := len(tr.Chares)
	return &extractArena{
		nEvents: len(tr.Events),
		nChares: nChares,
		nBlocks: len(tr.Blocks),
		// Every extraction runs at least one overlap scan.
		seenPart:    make([]int32, 2*nChares),
		seenMark:    make([]int32, 2*nChares),
		overlapSeen: make(map[int64]struct{}),
	}
}

// nextLeap empties the chare-occupancy table for the next leap: one epoch
// bump instead of a clear.
func (ar *extractArena) nextLeap() { ar.seenEpoch++ }

// claim records partition pi as a holder of slot at the current leap. It
// returns the leap's first holder of the slot and whether there was one
// before pi.
func (ar *extractArena) claim(slot int, pi int32) (first int32, held bool) {
	if ar.seenMark[slot] == ar.seenEpoch {
		return ar.seenPart[slot], true
	}
	ar.seenMark[slot], ar.seenPart[slot] = ar.seenEpoch, pi
	return pi, false
}

// ensureLanes creates lane scratch 0..n-1 before the ordering stage's pool
// starts: lane lookup from the pool is then a read-only index, never a
// concurrent append.
func (ar *extractArena) ensureLanes(n int) {
	for len(ar.lanes) < n {
		ar.lanes = append(ar.lanes, &laneScratch{
			lastW:       make([]int32, ar.nBlocks),
			lastWMark:   make([]int32, ar.nBlocks),
			maxRecvW:    make([]int32, ar.nChares),
			maxRecvMark: make([]int32, ar.nChares),
			fragOfBlock: make([]int32, ar.nBlocks),
			blockMark:   make([]int32, ar.nBlocks),
			lastStep:    make([]int32, ar.nChares),
			chareMark:   make([]int32, ar.nChares),
		})
	}
}

// chareIndex returns the position of c in the sorted chare row.
func chareIndex(chares []trace.ChareID, c trace.ChareID) int {
	lo, hi := 0, len(chares)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if chares[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
