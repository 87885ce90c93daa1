package trace_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"charmtrace/internal/conformance"
	. "charmtrace/internal/trace"
)

// refIndex is the index Trace.Index built before it went flat — two Go
// maps for messages, one appended and comparison-sorted slice per chare and
// per PE — kept as the oracle the tables are compared against (DESIGN.md
// §6, "index tables ≡ naive maps"). It reads exported fields only and
// carries its own copy of every validation rule, so it shares no code with
// the implementation it checks.
type refIndex struct {
	sendOf        map[MsgID]EventID
	recvsOf       map[MsgID][]EventID
	blocksByChare [][]BlockID
	blocksByPE    [][]BlockID
}

func buildRefIndex(t *Trace) (*refIndex, error) {
	if err := refValidateShape(t); err != nil {
		return nil, err
	}
	r := &refIndex{
		sendOf:  make(map[MsgID]EventID),
		recvsOf: make(map[MsgID][]EventID),
	}
	for _, ev := range t.Events {
		if ev.Msg == NoMsg {
			continue
		}
		switch ev.Kind {
		case Send:
			if prev, dup := r.sendOf[ev.Msg]; dup {
				return nil, fmt.Errorf("message %d sent twice (events %d and %d)", ev.Msg, prev, ev.ID)
			}
			r.sendOf[ev.Msg] = ev.ID
		case Recv:
			r.recvsOf[ev.Msg] = append(r.recvsOf[ev.Msg], ev.ID)
		}
	}
	r.blocksByChare = make([][]BlockID, len(t.Chares))
	r.blocksByPE = make([][]BlockID, t.NumPE)
	for _, b := range t.Blocks {
		r.blocksByChare[b.Chare] = append(r.blocksByChare[b.Chare], b.ID)
		r.blocksByPE[b.PE] = append(r.blocksByPE[b.PE], b.ID)
	}
	byBegin := func(ids []BlockID) {
		sort.Slice(ids, func(i, j int) bool {
			bi, bj := &t.Blocks[ids[i]], &t.Blocks[ids[j]]
			if bi.Begin != bj.Begin {
				return bi.Begin < bj.Begin
			}
			return ids[i] < ids[j]
		})
	}
	for _, ids := range r.blocksByChare {
		byBegin(ids)
	}
	for _, ids := range r.blocksByPE {
		byBegin(ids)
	}
	return r, r.validateSemantics(t)
}

func refValidateShape(t *Trace) error {
	if t.NumPE <= 0 {
		return errors.New("NumPE must be positive")
	}
	for i, c := range t.Chares {
		if int(c.ID) != i || c.Home < 0 || int(c.Home) >= t.NumPE {
			return fmt.Errorf("chare %d", i)
		}
	}
	for i, e := range t.Entries {
		if int(e.ID) != i {
			return fmt.Errorf("entry %d", i)
		}
	}
	for i, b := range t.Blocks {
		if int(b.ID) != i ||
			b.Chare < 0 || int(b.Chare) >= len(t.Chares) ||
			b.Entry < 0 || int(b.Entry) >= len(t.Entries) ||
			b.PE < 0 || int(b.PE) >= t.NumPE || b.End < b.Begin || refTimeTooBig(b.Begin) || refTimeTooBig(b.End) {
			return fmt.Errorf("block %d", i)
		}
	}
	for i, ev := range t.Events {
		if int(ev.ID) != i ||
			ev.Block < 0 || int(ev.Block) >= len(t.Blocks) ||
			ev.Chare < 0 || int(ev.Chare) >= len(t.Chares) ||
			ev.PE < 0 || int(ev.PE) >= t.NumPE || refTimeTooBig(ev.Time) {
			return fmt.Errorf("event %d", i)
		}
	}
	for i, idle := range t.Idles {
		if idle.PE < 0 || int(idle.PE) >= t.NumPE || idle.End < idle.Begin || refTimeTooBig(idle.Begin) || refTimeTooBig(idle.End) {
			return fmt.Errorf("idle %d", i)
		}
	}
	return nil
}

// refTimeTooBig is the reference's copy of the |time| < 2^62 rule.
func refTimeTooBig(t Time) bool { return t <= math.MinInt64/2 || t >= -(math.MinInt64/2) }

func (r *refIndex) validateSemantics(t *Trace) error {
	for _, b := range t.Blocks {
		var prev Time = -1 << 62
		for _, eid := range b.Events {
			if eid < 0 || int(eid) >= len(t.Events) {
				return fmt.Errorf("block %d lists unknown event %d", b.ID, eid)
			}
			ev := &t.Events[eid]
			if ev.Block != b.ID || ev.Chare != b.Chare || ev.Time < b.Begin || ev.Time > b.End || ev.Time < prev {
				return fmt.Errorf("block %d and event %d disagree", b.ID, eid)
			}
			prev = ev.Time
		}
	}
	for msg := range r.recvsOf {
		if _, ok := r.sendOf[msg]; !ok {
			return fmt.Errorf("message %d received but never sent", msg)
		}
	}
	for pe, ids := range r.blocksByPE {
		var prevEnd Time = -1 << 62
		for _, id := range ids {
			if b := &t.Blocks[id]; b.Begin < prevEnd {
				return fmt.Errorf("blocks overlap on PE %d", pe)
			} else {
				prevEnd = b.End
			}
		}
	}
	return nil
}

// checkAgainstRef indexes a copy of tr both ways and fails unless the two
// agree: on accept/reject and, when accepted, on every lookup — SendOf and
// RecvsOf for every message in the trace and a few that are not,
// MatchingSend and MatchingRecvs for every event, BlocksOfChare and
// BlocksOfPE for every row.
// It reports whether the trace was accepted.
func checkAgainstRef(t *testing.T, tr *Trace) bool {
	t.Helper()
	tr = cloneTrace(tr)
	ref, refErr := buildRefIndex(tr)
	err := tr.Index()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Index err = %v, reference err = %v", err, refErr)
	}
	if err != nil {
		return false
	}
	msgs := []MsgID{NoMsg, 0, 1, -2, math.MaxInt64, math.MinInt64, 1 << 40}
	for _, ev := range tr.Events {
		msgs = append(msgs, ev.Msg, ev.Msg+1, ev.Msg^(1<<33))
	}
	for _, m := range msgs {
		want, ok := ref.sendOf[m]
		if !ok {
			want = NoEvent
		}
		if got := tr.SendOf(m); got != want {
			t.Fatalf("SendOf(%d) = %d, reference %d", m, got, want)
		}
		if got, want := tr.RecvsOf(m), ref.recvsOf[m]; !reflect.DeepEqual(got, want) {
			t.Fatalf("RecvsOf(%d) = %v, reference %v", m, got, want)
		}
	}
	for i, ev := range tr.Events {
		want := NoEvent
		if id, ok := ref.sendOf[ev.Msg]; ok && ev.Kind == Recv && ev.Msg != NoMsg {
			want = id
		}
		if got := tr.MatchingSend(EventID(i)); got != want {
			t.Fatalf("MatchingSend(%d) = %d, reference %d", i, got, want)
		}
		var wantRecvs []EventID
		if ev.Kind == Send && ev.Msg != NoMsg {
			wantRecvs = ref.recvsOf[ev.Msg]
		}
		if got := tr.MatchingRecvs(EventID(i)); !reflect.DeepEqual(got, wantRecvs) {
			t.Fatalf("MatchingRecvs(%d) = %v, reference %v", i, got, wantRecvs)
		}
	}
	for c := range tr.Chares {
		if got, want := tr.BlocksOfChare(ChareID(c)), ref.blocksByChare[c]; !reflect.DeepEqual(got, want) {
			t.Fatalf("BlocksOfChare(%d) = %v, reference %v", c, got, want)
		}
	}
	for pe := 0; pe < tr.NumPE; pe++ {
		if got, want := tr.BlocksOfPE(PE(pe)), ref.blocksByPE[pe]; !reflect.DeepEqual(got, want) {
			t.Fatalf("BlocksOfPE(%d) = %v, reference %v", pe, got, want)
		}
	}
	return true
}

// cloneTrace copies a trace's exported fields (the index is not copied).
func cloneTrace(tr *Trace) *Trace {
	out := &Trace{
		NumPE:   tr.NumPE,
		Chares:  append([]Chare(nil), tr.Chares...),
		Entries: append([]Entry(nil), tr.Entries...),
		Blocks:  append([]Block(nil), tr.Blocks...),
		Events:  append([]Event(nil), tr.Events...),
		Idles:   append([]Idle(nil), tr.Idles...),
	}
	for i := range out.Blocks {
		out.Blocks[i].Events = append([]EventID(nil), out.Blocks[i].Events...)
	}
	return out
}

// underSeeds runs f under several message-table seeds, fixed ones included
// so that a failure reproduces.
func underSeeds(t *testing.T, f func(t *testing.T)) {
	for _, seed := range []uint64{0, 1, math.MaxUint64, 0x9E3779B97F4A7C15, rand.Uint64()} {
		restore := SetMsgSeed(seed)
		t.Run(fmt.Sprintf("seed=%#x", seed), f)
		restore()
	}
}

// TestIndexMatchesReferenceOnZoo: the flat index answers exactly as the
// map-based one on the nine conformance workloads, whatever the seed.
func TestIndexMatchesReferenceOnZoo(t *testing.T) {
	for _, w := range conformance.Zoo() {
		tr := w.MustGen()
		underSeeds(t, func(t *testing.T) {
			if !checkAgainstRef(t, tr) {
				t.Fatalf("%s: zoo trace rejected", w.Name)
			}
		})
	}
}

// msgTrace builds a valid trace around hand-picked message IDs: message i
// is sent from chare 0 and received recvs[i] times (0 = never received, >1
// = a broadcast), each receive in its own block on chare 1.
func msgTrace(t *testing.T, msgs []MsgID, recvs []int) *Trace {
	t.Helper()
	b := NewBuilder(2)
	e := b.AddEntry("work")
	src := b.AddChare("src", NoArray, -1, 0)
	dst := b.AddChare("dst", NoArray, -1, 1)
	var now Time
	b.BeginBlock(src, 0, e, now)
	for _, m := range msgs {
		now++
		b.Send(src, m, now)
	}
	b.EndBlock(src, now)
	for i, m := range msgs {
		for k := 0; k < recvs[i]; k++ {
			now++
			b.BeginBlock(dst, 1, e, now)
			b.Recv(dst, m, now)
			b.EndBlock(dst, now)
		}
	}
	tr, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestIndexMatchesReferenceOnAdversarialMessageIDs covers the IDs a
// simulator never produces but an upload can: negative, extreme, sparse,
// all equal in the low bits a power-of-two table masks by, broadcasts with
// many receives, sends never received, and NoMsg events (which neither
// index may file under any message).
func TestIndexMatchesReferenceOnAdversarialMessageIDs(t *testing.T) {
	const n = 300
	ones := func(v int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	gen := func(f func(i int) MsgID) []MsgID {
		out := make([]MsgID, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	mixed := ones(1)
	for i := range mixed {
		mixed[i] = []int{0, 1, 1, 40}[i%4]
	}
	cases := []struct {
		name  string
		msgs  []MsgID
		recvs []int
	}{
		{"negative", gen(func(i int) MsgID { return MsgID(-2 - i) }), ones(1)},
		{"extremes", []MsgID{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, 0, -2}, []int{1, 1, 2, 0, 1, 3}},
		{"sparse", gen(func(i int) MsgID { return MsgID(i) * 1_000_000_007_000 }), ones(1)},
		{"equal low 32 bits", gen(func(i int) MsgID { return MsgID(i)<<32 | 5 }), ones(1)},
		{"equal low 48 bits", gen(func(i int) MsgID { return MsgID(i)<<48 | 0xBEEF }), ones(2)},
		{"only the top bit differs", []MsgID{7, 7 | math.MinInt64}, []int{1, 1}},
		{"broadcasts and unreceived sends", gen(func(i int) MsgID { return MsgID(3 * i) }), mixed},
		{"single send", []MsgID{42}, []int{0}},
	}
	for _, c := range cases {
		tr := msgTrace(t, c.msgs, c.recvs)
		// NoMsg events: a send and a receive that belong to no message.
		last := &tr.Blocks[len(tr.Blocks)-1]
		for _, kind := range []EventKind{Send, Recv} {
			id := EventID(len(tr.Events))
			tr.Events = append(tr.Events, Event{
				ID: id, Kind: kind, Time: last.End, Chare: last.Chare, PE: last.PE, Msg: NoMsg, Block: last.ID,
			})
			last.Events = append(last.Events, id)
		}
		t.Run(c.name, func(t *testing.T) {
			underSeeds(t, func(t *testing.T) {
				if !checkAgainstRef(t, tr) {
					t.Fatal("valid trace rejected")
				}
			})
		})
	}

	t.Run("no messages at all", func(t *testing.T) {
		if !checkAgainstRef(t, &Trace{NumPE: 1}) {
			t.Fatal("empty trace rejected")
		}
	})
}

// TestIndexRowsMatchReferenceWhenRecordedOutOfOrder: block IDs need not
// follow time. With the blocks renumbered — reversed, and shuffled — the
// trace stays valid but no row comes out of the counting sort in (Begin,
// ID) order, so every row takes the comparison-sort path.
func TestIndexRowsMatchReferenceWhenRecordedOutOfOrder(t *testing.T) {
	base := msgTrace(t, []MsgID{1, 2, 3, 4, 5, 6, 7, 8}, []int{3, 1, 2, 1, 4, 1, 1, 2})
	n := len(base.Blocks)
	reversed := make([]int, n)
	for i := range reversed {
		reversed[i] = n - 1 - i
	}
	for name, perm := range map[string][]int{"reversed": reversed, "shuffled": rand.New(rand.NewSource(3)).Perm(n)} {
		tr := cloneTrace(base)
		for old, id := range perm { // block old becomes block id
			b := base.Blocks[old]
			b.ID = BlockID(id)
			b.Events = append([]EventID(nil), b.Events...)
			tr.Blocks[id] = b
			for _, e := range b.Events {
				tr.Events[e].Block = b.ID
			}
		}
		t.Run(name, func(t *testing.T) {
			if !checkAgainstRef(t, tr) {
				t.Fatal("valid trace rejected")
			}
		})
	}
}

// TestIndexAgreesWithReferenceOnMutatedTraces: one random field of a valid
// trace is overwritten with a value from a small hostile domain, many
// times over; the flat index must reject exactly the mutants the map-based
// one rejects and answer identically on those both accept. This is where
// duplicate sends, orphan receives, PE overlaps, unsorted rows and
// block/event inconsistencies come from.
func TestIndexAgreesWithReferenceOnMutatedTraces(t *testing.T) {
	base := msgTrace(t, []MsgID{5, 6, 7, 8, 9, -4, 1 << 35}, []int{1, 2, 0, 1, 3, 1, 1})
	base.Idles = []Idle{{PE: 0, Begin: 0, End: 1}, {PE: 1, Begin: 2, End: 4}}
	rng := rand.New(rand.NewSource(12))
	pick := func() int64 {
		vals := []int64{-2, -1, 0, 1, 2, 3, 5, 6, 7, 9, 10, 1 << 35, math.MaxInt32, math.MinInt64, math.MaxInt64}
		return vals[rng.Intn(len(vals))]
	}
	accepted, rejected := 0, 0
	for i := 0; i < 4000; i++ {
		tr := cloneTrace(base)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			v := pick()
			switch ev, b := &tr.Events[rng.Intn(len(tr.Events))], &tr.Blocks[rng.Intn(len(tr.Blocks))]; rng.Intn(14) {
			case 0:
				ev.Msg = MsgID(v)
			case 1:
				ev.Kind = EventKind(v & 3)
			case 2:
				ev.Block = BlockID(v)
			case 3:
				ev.Chare = ChareID(v)
			case 4:
				ev.PE = PE(v)
			case 5:
				ev.Time = Time(v)
			case 6:
				ev.ID = EventID(v)
			case 7:
				b.Begin = Time(v)
			case 8:
				b.End = Time(v)
			case 9:
				b.PE = PE(v)
			case 10:
				b.Chare = ChareID(v)
			case 11:
				b.Events = append(b.Events, EventID(v))
			case 12:
				tr.Idles[rng.Intn(len(tr.Idles))].PE = PE(v)
			case 13:
				// Swap two blocks' spans: rows stay valid but lose ID order.
				o := &tr.Blocks[rng.Intn(len(tr.Blocks))]
				b.Begin, o.Begin, b.End, o.End = o.Begin, b.Begin, o.End, b.End
			}
		}
		if checkAgainstRef(t, tr) {
			accepted++
		} else {
			rejected++
		}
	}
	t.Logf("%d accepted, %d rejected", accepted, rejected)
	if accepted < 100 || rejected < 100 {
		t.Fatalf("mutation domain is lopsided: %d accepted, %d rejected", accepted, rejected)
	}
}
