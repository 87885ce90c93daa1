package core

import "charmtrace/internal/trace"

// extractArena is the per-extraction scratch allocator. Every pipeline
// stage that used to allocate per-round or per-phase working state (maps,
// per-partition slices, Kahn queues) instead borrows flat buffers from
// here. Buffers are sized once against the trace's event/chare/block counts
// and reused round after round; set-valued state is epoch-marked rather
// than cleared, so resetting between rounds costs one counter increment.
//
// The arena is created with the atoms decomposition and dies with the
// extraction — nothing in it is referenced by the returned Structure, so an
// arena bug cannot leak state between extractions. The ordering stage runs
// once per extraction and keeps its own working state (steps.go).
type extractArena struct {
	nChares int

	// buildPartInfo output, reused across enforce rounds.
	info partInfos

	// inferDependencies: flattened (chare, event, part) source rows.
	srcChare []trace.ChareID
	srcEvent []trace.EventID
	srcPart  []int32

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

func newExtractArena(tr *trace.Trace) *extractArena {
	nChares := len(tr.Chares)
	return &extractArena{
		nChares: nChares,
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
