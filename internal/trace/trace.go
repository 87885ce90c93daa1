package trace

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"unsafe"

	"charmtrace/internal/flat"
)

// Trace is a complete recorded execution. Slices are indexed by the
// corresponding ID types; Events, Blocks, Chares and Entries must therefore
// be dense with IDs equal to positions. Call Index after construction (or
// use a Builder, which does so) to populate the lookup structures and
// validate the trace.
//
// The lookup structures are flat (DESIGN.md §3a): one open-addressing table
// for messages and three CSR row sets (offsets into one shared ID array
// each), so indexing a trace costs a fixed handful of allocations however
// many messages, chares or processors it has.
type Trace struct {
	NumPE   int
	Chares  []Chare
	Entries []Entry
	Blocks  []Block
	Events  []Event
	Idles   []Idle

	indexed bool
	// msgTab maps a message to its send event: linear probing over a
	// power-of-two table at most half full, slots ordered by the seeded
	// hashMsg. Only the probe order depends on the seed; what a lookup
	// returns does not.
	msgTab []msgSlot
	// recvs lists, per send event, the receive events of its message in
	// event order (one for point-to-point, several for broadcasts).
	recvs flat.Rows[EventID]
	// matchSend[e] is the send event of receive e's message (NoEvent for
	// non-receives and unmatched receives): the O(1) dense form of
	// SendOf(Events[e].Msg), for the extraction hot path.
	matchSend []EventID
	// blocksByChare lists each chare's blocks in (Begin, ID) order.
	blocksByChare flat.Rows[BlockID]
	// blocksByPE lists each processor's blocks in (Begin, ID) order.
	blocksByPE flat.Rows[BlockID]
	// tab memoises Table(); Index renews it.
	tab *tableMemo
}

// msgSlot is one slot of the message table; send1 is the send event's ID
// plus one, so the zero slot is empty.
type msgSlot struct {
	msg   MsgID
	send1 int32
}

// msgSeed randomizes the message table's probe order per process, as Go's
// maps do: message IDs come from untrusted uploads, and a fixed hash would
// let one craft IDs that all probe the same run of slots (quadratic Index).
var msgSeed = rand.Uint64()

// hashMsg mixes a message ID with the process seed (two multiply-xorshift
// rounds, so every input bit reaches the low bits that pick the slot).
func hashMsg(m MsgID) uint64 {
	h := (uint64(m) ^ msgSeed) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	return h ^ h>>32
}

// Index builds the message and per-chare/per-PE lookup structures and
// validates structural invariants. It is idempotent.
func (t *Trace) Index() error {
	if err := t.validateShape(); err != nil {
		return err
	}
	orphan, err := t.indexMessages()
	if err != nil {
		return err
	}
	key := make([]int32, len(t.Blocks)) // the grouping's key column, filled twice
	for i := range t.Blocks {
		key[i] = int32(t.Blocks[i].Chare)
	}
	t.blocksByChare = t.blockRows(len(t.Chares), key)
	for i := range t.Blocks {
		key[i] = int32(t.Blocks[i].PE)
	}
	t.blocksByPE = t.blockRows(t.NumPE, key)
	t.tab = new(tableMemo)
	t.indexed = true
	return t.validateSemantics(orphan)
}

// indexMessages fills msgTab, matchSend and recvs. A message sent twice is
// an error; the first receive whose message was never sent is returned for
// validateSemantics to report (NoEvent when every receive is matched).
func (t *Trace) indexMessages() (orphan EventID, err error) {
	sends := 0
	for i := range t.Events {
		if ev := &t.Events[i]; ev.Kind == Send && ev.Msg != NoMsg {
			sends++
		}
	}
	t.msgTab = nil
	if sends > 0 {
		t.msgTab = make([]msgSlot, 1<<bits.Len(uint(2*sends-1)))
	}
	mask := uint64(len(t.msgTab) - 1)
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.Kind != Send || ev.Msg == NoMsg {
			continue
		}
		h := hashMsg(ev.Msg) & mask
		for ; t.msgTab[h].send1 != 0; h = (h + 1) & mask {
			if t.msgTab[h].msg == ev.Msg {
				return NoEvent, fmt.Errorf("trace: message %d sent twice (events %d and %d)", ev.Msg, t.msgTab[h].send1-1, ev.ID)
			}
		}
		t.msgTab[h] = msgSlot{msg: ev.Msg, send1: int32(ev.ID) + 1}
	}

	orphan = NoEvent
	t.matchSend = make([]EventID, len(t.Events))
	for i := range t.Events {
		t.matchSend[i] = NoEvent
		ev := &t.Events[i]
		if ev.Kind != Recv || ev.Msg == NoMsg {
			continue
		}
		if t.matchSend[i] = t.SendOf(ev.Msg); t.matchSend[i] == NoEvent && orphan == NoEvent {
			orphan = ev.ID
		}
	}
	t.recvs = flat.GroupAll[EventID](len(t.Events), nil, nil, t.matchSend)
	return orphan, nil
}

// blockRows groups block IDs by key (block i's chare or PE in key[i], already
// range-checked by validateShape) into n rows in (Begin, ID) order. The
// counting sort leaves a row in ID order, which is (Begin, ID) order whenever
// the row's begin times never decrease — the normal case for a recorded
// trace — so only the other rows pay for a comparison sort.
func (t *Trace) blockRows(n int, key []int32) flat.Rows[BlockID] {
	r := flat.GroupAll[BlockID](n, nil, nil, key)
	last := make([]Time, n) // begin time of the latest block seen in each row
	for i := range last {
		last[i] = math.MinInt64
	}
	var disordered []int32 // rows where a block begins before an earlier-numbered one, once per inversion
	for i, k := range key {
		begin := t.Blocks[i].Begin
		if begin < last[k] {
			disordered = append(disordered, k)
		}
		last[k] = begin
	}
	slices.Sort(disordered)
	for _, k := range slices.Compact(disordered) {
		slices.SortFunc(r.Row(int(k)), func(a, b BlockID) int {
			if c := cmp.Compare(t.Blocks[a].Begin, t.Blocks[b].Begin); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	return r
}

// validateShape checks that IDs are dense and references are in range.
func (t *Trace) validateShape() error {
	if t.NumPE <= 0 {
		return errors.New("trace: NumPE must be positive")
	}
	for i, c := range t.Chares {
		if int(c.ID) != i {
			return fmt.Errorf("trace: chare at position %d has ID %d", i, c.ID)
		}
		if c.Home < 0 || int(c.Home) >= t.NumPE {
			return fmt.Errorf("trace: chare %d home PE %d out of range", c.ID, c.Home)
		}
	}
	for i, e := range t.Entries {
		if int(e.ID) != i {
			return fmt.Errorf("trace: entry at position %d has ID %d", i, e.ID)
		}
	}
	for i, b := range t.Blocks {
		if int(b.ID) != i {
			return fmt.Errorf("trace: block at position %d has ID %d", i, b.ID)
		}
		if b.Chare < 0 || int(b.Chare) >= len(t.Chares) {
			return fmt.Errorf("trace: block %d references unknown chare %d", b.ID, b.Chare)
		}
		if b.Entry < 0 || int(b.Entry) >= len(t.Entries) {
			return fmt.Errorf("trace: block %d references unknown entry %d", b.ID, b.Entry)
		}
		if b.PE < 0 || int(b.PE) >= t.NumPE {
			return fmt.Errorf("trace: block %d PE %d out of range", b.ID, b.PE)
		}
		if b.End < b.Begin {
			return fmt.Errorf("trace: block %d ends (%d) before it begins (%d)", b.ID, b.End, b.Begin)
		}
		if !timeInRange(b.Begin) || !timeInRange(b.End) {
			return fmt.Errorf("trace: block %d span [%d,%d] out of range (|time| must be below 2^62)", b.ID, b.Begin, b.End)
		}
	}
	for i, ev := range t.Events {
		if int(ev.ID) != i {
			return fmt.Errorf("trace: event at position %d has ID %d", i, ev.ID)
		}
		if ev.Block < 0 || int(ev.Block) >= len(t.Blocks) {
			return fmt.Errorf("trace: event %d references unknown block %d", ev.ID, ev.Block)
		}
		if ev.Chare < 0 || int(ev.Chare) >= len(t.Chares) {
			return fmt.Errorf("trace: event %d references unknown chare %d", ev.ID, ev.Chare)
		}
		if ev.PE < 0 || int(ev.PE) >= t.NumPE {
			return fmt.Errorf("trace: event %d PE %d out of range", ev.ID, ev.PE)
		}
		if !timeInRange(ev.Time) {
			return fmt.Errorf("trace: event %d time %d out of range (|time| must be below 2^62)", ev.ID, ev.Time)
		}
	}
	// Idle and event PEs index per-PE tables downstream (metrics, profile,
	// skew) exactly as block PEs do, so they get the same range check.
	for i, idle := range t.Idles {
		if idle.PE < 0 || int(idle.PE) >= t.NumPE {
			return fmt.Errorf("trace: idle %d PE %d out of range", i, idle.PE)
		}
		if idle.End < idle.Begin {
			return fmt.Errorf("trace: idle %d ends (%d) before it begins (%d)", i, idle.End, idle.Begin)
		}
		if !timeInRange(idle.Begin) || !timeInRange(idle.End) {
			return fmt.Errorf("trace: idle %d span [%d,%d] out of range (|time| must be below 2^62)", i, idle.Begin, idle.End)
		}
	}
	return nil
}

// timeInRange bounds every recorded time to |t| < 2^62. Downstream code
// subtracts times, doubles offsets from the first event into sort keys
// (core's ordering stage) and uses ±2^62 as "before/after everything"
// sentinels; inside the bound none of that can wrap, so a trace shifted in
// time either is rejected here or analyses exactly like the unshifted one.
func timeInRange(t Time) bool { return t > -1<<62 && t < 1<<62 }

// validateSemantics checks cross-structure invariants that need the index.
// orphan is indexMessages' first unmatched receive.
func (t *Trace) validateSemantics(orphan EventID) error {
	for _, b := range t.Blocks {
		var prev Time = -1 << 62
		for _, eid := range b.Events {
			if eid < 0 || int(eid) >= len(t.Events) {
				return fmt.Errorf("trace: block %d lists unknown event %d", b.ID, eid)
			}
			ev := &t.Events[eid]
			if ev.Block != b.ID {
				return fmt.Errorf("trace: event %d listed in block %d but records block %d", eid, b.ID, ev.Block)
			}
			if ev.Chare != b.Chare {
				return fmt.Errorf("trace: event %d chare %d differs from its block's chare %d", eid, ev.Chare, b.Chare)
			}
			if ev.Time < b.Begin || ev.Time > b.End {
				return fmt.Errorf("trace: event %d at time %d outside block %d span [%d,%d]", eid, ev.Time, b.ID, b.Begin, b.End)
			}
			if ev.Time < prev {
				return fmt.Errorf("trace: events of block %d are not time-ordered", b.ID)
			}
			prev = ev.Time
		}
	}
	if orphan != NoEvent {
		return fmt.Errorf("trace: message %d received (event %d) but never sent", t.Events[orphan].Msg, orphan)
	}
	for pe := 0; pe < t.NumPE; pe++ {
		var prevEnd Time = -1 << 62
		for _, id := range t.blocksByPE.Row(pe) {
			b := &t.Blocks[id]
			if b.Begin < prevEnd {
				return fmt.Errorf("trace: blocks overlap on PE %d (block %d begins at %d before previous end %d)", pe, id, b.Begin, prevEnd)
			}
			prevEnd = b.End
		}
	}
	return nil
}

// Indexed reports whether Index has completed successfully.
func (t *Trace) Indexed() bool { return t.indexed }

// Bytes estimates the resident size of the indexed trace (records plus
// lookup structures, names aside), for memory accounting.
func (t *Trace) Bytes() int64 {
	return int64(len(t.Events))*int64(unsafe.Sizeof(Event{})+4+4) + // + its slot in a block's list and in matchSend
		int64(len(t.Blocks))*int64(unsafe.Sizeof(Block{})+4+4) + // + blocksByChare, blocksByPE
		int64(len(t.Chares))*int64(unsafe.Sizeof(Chare{})) +
		int64(len(t.Entries))*int64(unsafe.Sizeof(Entry{})) +
		int64(len(t.Idles))*int64(unsafe.Sizeof(Idle{})) +
		int64(len(t.msgTab))*int64(unsafe.Sizeof(msgSlot{})) +
		int64(len(t.recvs.Off)+len(t.recvs.IDs))*4
}

// SendOf returns the send event of a message, or NoEvent if the send was not
// recorded.
func (t *Trace) SendOf(m MsgID) EventID {
	if len(t.msgTab) == 0 {
		return NoEvent
	}
	mask := uint64(len(t.msgTab) - 1)
	for h := hashMsg(m) & mask; ; h = (h + 1) & mask {
		switch s := &t.msgTab[h]; {
		case s.send1 == 0:
			return NoEvent
		case s.msg == m:
			return EventID(s.send1 - 1)
		}
	}
}

// MatchingSend returns the send event of receive e's message, or NoEvent
// when e is not a receive or its send was not recorded. It is equivalent to
// SendOf(Events[e].Msg) but a dense array read instead of a table probe.
func (t *Trace) MatchingSend(e EventID) EventID { return t.matchSend[e] }

// RecvsOf returns the receive events of a message (nil if none recorded).
// The returned slice must not be modified.
func (t *Trace) RecvsOf(m MsgID) []EventID {
	send := t.SendOf(m)
	if send == NoEvent {
		return nil
	}
	return t.recvs.Row(int(send))
}

// BlocksOfChare returns a chare's serial blocks in begin-time order.
// The returned slice must not be modified.
func (t *Trace) BlocksOfChare(c ChareID) []BlockID { return t.blocksByChare.Row(int(c)) }

// BlocksOfPE returns a processor's serial blocks in begin-time order.
// The returned slice must not be modified.
func (t *Trace) BlocksOfPE(pe PE) []BlockID { return t.blocksByPE.Row(int(pe)) }

// IsRuntimeChare reports whether a chare belongs to the runtime system.
func (t *Trace) IsRuntimeChare(c ChareID) bool { return t.Chares[c].Runtime }

// Span returns the earliest block begin and the latest block end in the
// trace, or (0, 0) for an empty trace.
func (t *Trace) Span() (Time, Time) {
	if len(t.Blocks) == 0 {
		return 0, 0
	}
	lo, hi := t.Blocks[0].Begin, t.Blocks[0].End
	for _, b := range t.Blocks[1:] {
		if b.Begin < lo {
			lo = b.Begin
		}
		if b.End > hi {
			hi = b.End
		}
	}
	return lo, hi
}

// CountKind returns the number of events of the given kind.
func (t *Trace) CountKind(k EventKind) int {
	n := 0
	for _, ev := range t.Events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// ApplicationChares returns the IDs of all non-runtime chares.
func (t *Trace) ApplicationChares() []ChareID {
	var out []ChareID
	for _, c := range t.Chares {
		if !c.Runtime {
			out = append(out, c.ID)
		}
	}
	return out
}

// IdleBefore returns the idle span on pe that ends exactly at time tm, or a
// zero Idle and false if there is none. Simulators record an idle record
// whenever a PE's scheduler had an empty queue.
func (t *Trace) IdleBefore(pe PE, tm Time) (Idle, bool) {
	for _, idle := range t.Idles {
		if idle.PE == pe && idle.End == tm {
			return idle, true
		}
	}
	return Idle{}, false
}
