package trace

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"unsafe"
)

// Table is the read-side event table of a trace: everything the views over
// a recovered structure (the §4 metrics, the query index, the LOD pyramid,
// chare clustering, structure diffs, charmd's renderers) take from the
// trace, as flat columns. Five fields per event, the two §4 quantities that
// depend on the trace alone and not on how it was analysed (sub-block
// duration, idle experienced), the chare names and runtime flags, and the
// counts a trace summary reports — which is why one table serves every
// option set of its trace and is stored per digest (tracefile.WriteTable).
//
// A table shares no backing array with the trace it was built from, so
// holding one never keeps a decoded trace alive: ≈ 37 bytes per event
// against ≈ 100 for an indexed Trace. It is immutable once built.
type Table struct {
	NumPE  int
	Blocks int // serial blocks in the trace (a summary count; blocks themselves are not kept)
	Idles  int // idle records in the trace (likewise)

	// Per event, indexed by EventID.
	Chare   []ChareID
	Kind    []EventKind
	Time    []Time
	PE      []PE
	Partner []EventID // Trace.MatchingSend: a matched receive's send, NoEvent otherwise
	// SubDur is the duration of each event's sub-block (Figure 13): the span
	// from the previous event in its serial block to the event. What is left
	// of the block after its last event goes to the event that started the
	// block if that was a receive, otherwise to the last event, so the
	// durations of a block's events sum to the block's.
	SubDur []Time
	// IdleExp is the idle time each event waited through (Figure 11): the
	// first event after a recorded idle span carries its length, as does
	// the first event of each following serial block on that processor
	// whose message was sent before the idle ended.
	IdleExp []Time

	// Per chare, indexed by ChareID.
	Name    []string
	Runtime []bool
}

// NumEvents returns the number of events.
func (t *Table) NumEvents() int { return len(t.Kind) }

// NumChares returns the number of chares.
func (t *Table) NumChares() int { return len(t.Name) }

// Bytes estimates the table's resident size, for memory accounting.
func (t *Table) Bytes() int64 {
	const perEvent = 4 + 1 + 8 + 4 + 4 + 8 + 8
	n := int64(unsafe.Sizeof(*t)) + int64(len(t.Kind))*perEvent + int64(len(t.Name))*(16+1)
	for _, s := range t.Name {
		n += int64(len(s))
	}
	return n
}

// Validate range-checks every reference the columns hold — what Index does
// for a trace, for a table that came from bytes rather than from Table():
// equal column lengths, chares and processors in range, times inside the
// |t| < 2^62 bound, and a partner only on a receive and always a send.
func (t *Table) Validate() error {
	n, nc := len(t.Kind), len(t.Name)
	if len(t.Chare) != n || len(t.Time) != n || len(t.PE) != n || len(t.Partner) != n ||
		len(t.SubDur) != n || len(t.IdleExp) != n || len(t.Runtime) != nc {
		return errors.New("trace: table columns differ in length")
	}
	if t.NumPE <= 0 || t.Blocks < 0 || t.Idles < 0 {
		return fmt.Errorf("trace: table header out of range (%d PEs, %d blocks, %d idles)", t.NumPE, t.Blocks, t.Idles)
	}
	for e := 0; e < n; e++ {
		switch p := t.Partner[e]; {
		case t.Kind[e] != Send && t.Kind[e] != Recv:
			return fmt.Errorf("trace: table event %d has unknown kind %d", e, t.Kind[e])
		case t.Chare[e] < 0 || int(t.Chare[e]) >= nc:
			return fmt.Errorf("trace: table event %d references unknown chare %d", e, t.Chare[e])
		case t.PE[e] < 0 || int(t.PE[e]) >= t.NumPE:
			return fmt.Errorf("trace: table event %d PE %d out of range", e, t.PE[e])
		case !timeInRange(t.Time[e]):
			return fmt.Errorf("trace: table event %d time %d out of range", e, t.Time[e])
		case p == NoEvent:
		case t.Kind[e] != Recv || p < 0 || int(p) >= n || t.Kind[p] != Send:
			return fmt.Errorf("trace: table event %d has partner %d, which is not the send of a receive", e, p)
		}
	}
	return nil
}

// tableMemo holds a trace's table once built. Trace keeps a pointer to it
// (set by Index), so copying a Trace value copies no lock.
type tableMemo struct {
	once sync.Once
	t    *Table
}

// Table returns the trace's read-side table, building it on first use. The
// trace must be indexed.
func (t *Trace) Table() *Table {
	t.tab.once.Do(func() { t.tab.t = t.buildTable() })
	return t.tab.t
}

func (t *Trace) buildTable() *Table {
	n := len(t.Events)
	tab := &Table{
		NumPE:   t.NumPE,
		Blocks:  len(t.Blocks),
		Idles:   len(t.Idles),
		Chare:   make([]ChareID, n),
		Kind:    make([]EventKind, n),
		Time:    make([]Time, n),
		PE:      make([]PE, n),
		Partner: make([]EventID, n),
		SubDur:  t.subBlockDurations(),
		IdleExp: t.idleExperienced(),
		Name:    make([]string, len(t.Chares)),
		Runtime: make([]bool, len(t.Chares)),
	}
	copy(tab.Partner, t.matchSend)
	for i := range t.Events {
		ev := &t.Events[i]
		tab.Chare[i], tab.Kind[i], tab.Time[i], tab.PE[i] = ev.Chare, ev.Kind, ev.Time, ev.PE
	}
	for i := range t.Chares {
		tab.Name[i], tab.Runtime[i] = t.Chares[i].Name, t.Chares[i].Runtime
	}
	return tab
}

// subBlockDurations computes Table.SubDur. Blocks without dependency events
// contribute nothing.
func (t *Trace) subBlockDurations() []Time {
	dur := make([]Time, len(t.Events))
	for bi := range t.Blocks {
		blk := &t.Blocks[bi]
		if len(blk.Events) == 0 {
			continue
		}
		prev := blk.Begin
		for _, e := range blk.Events {
			dur[e] = t.Events[e].Time - prev
			prev = t.Events[e].Time
		}
		leftover := blk.End - prev
		first := blk.Events[0]
		if t.Events[first].Kind == Recv {
			dur[first] += leftover
		} else {
			dur[blk.Events[len(blk.Events)-1]] += leftover
		}
	}
	return dur
}

// idleExperienced computes Table.IdleExp: it walks forward from every
// recorded idle span along its processor. The first event after the idle
// experiences it; the first event of each subsequent serial block also does
// while its dependency (the send of the message it waited on) started
// before the idle ended.
func (t *Trace) idleExperienced() []Time {
	out := make([]Time, len(t.Events))
	for _, idle := range t.Idles {
		blocks := t.BlocksOfPE(idle.PE)
		i := sort.Search(len(blocks), func(i int) bool {
			return t.Blocks[blocks[i]].Begin >= idle.End
		})
		first := true
		for ; i < len(blocks); i++ {
			blk := &t.Blocks[blocks[i]]
			if len(blk.Events) == 0 {
				continue
			}
			e := blk.Events[0]
			if first {
				out[e] += idle.Duration()
				first = false
				continue
			}
			send := t.matchSend[e]
			if send == NoEvent || t.Events[send].Time >= idle.End {
				break
			}
			out[e] += idle.Duration()
		}
	}
	return out
}
