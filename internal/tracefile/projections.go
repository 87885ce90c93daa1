package tracefile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"charmtrace/internal/trace"
)

// Projections-style format: a single-stream rendition of the Charm++
// Projections logs the paper's tooling consumes. Real Projections splits a
// run into one .sts declaration file plus one numeric .log file per
// processor; this adapter folds the same content into one self-contained
// stream so it can travel through the charmd upload path like the native
// formats. The header section mirrors the .sts declarations, then each
// processor contributes a BEGIN_LOG/END_LOG section of numeric records
// using the Projections record codes:
//
//	PROJECTIONS-RECORD 1
//	PROCESSORS <numPE>
//	TOTAL_CHARES <n>
//	TOTAL_EPS <n>
//	ENTRY <id> <sdagSerial> <afterWhen> <name>
//	CHARE <id> <array> <index> <runtime> <home> <name>
//	END_STS
//	BEGIN_LOG <pe>
//	2 <time> <entry> <chare> <block>   BEGIN_PROCESSING: opens a serial block
//	1 <time> <msg> <event>             CREATION: a send inside the open block
//	10 <time> <msg> <event>            MESSAGE_RECV: a receive inside the open block
//	3 <time>                           END_PROCESSING: closes the open block
//	14 <time>                           BEGIN_IDLE
//	15 <time>                           END_IDLE
//	END_LOG
//
// Stock Projections records carry per-processor event sequence numbers;
// this adapter makes them global (the trailing field of BEGIN_PROCESSING,
// CREATION and MESSAGE_RECV is the global block/event ID), which is what
// lets a reader reconstruct an ID-identical trace — and therefore a
// byte-identical recovered structure — from per-processor log sections.
// Names are the trailing field of the declaration records so they may
// contain spaces.

// projectionsMagic opens every Projections-style stream; ReadAuto sniffs it.
const projectionsMagic = "PROJECTIONS-RECORD"

// projectionsVersion is the current Projections-style format version.
const projectionsVersion = 1

// Projections record type codes (the subset of the Charm++ Projections
// log-entry codes this adapter maps onto the trace model).
const (
	projCreation        = 1
	projBeginProcessing = 2
	projEndProcessing   = 3
	projMessageRecv     = 10
	projBeginIdle       = 14
	projEndIdle         = 15
)

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// WriteProjections serializes a trace in the Projections-style format. The
// trace's blocks and idles are emitted per processor in begin-time order,
// as a real per-PE tracing framework would have logged them.
func WriteProjections(w io.Writer, t *trace.Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s %d\n", projectionsMagic, projectionsVersion)
	fmt.Fprintf(bw, "PROCESSORS %d\n", t.NumPE)
	fmt.Fprintf(bw, "TOTAL_CHARES %d\n", len(t.Chares))
	fmt.Fprintf(bw, "TOTAL_EPS %d\n", len(t.Entries))
	for _, e := range t.Entries {
		fmt.Fprintf(bw, "ENTRY %d %d %d %s\n", e.ID, e.SDAGSerial, b2i(e.AfterWhen), e.Name)
	}
	for _, c := range t.Chares {
		fmt.Fprintf(bw, "CHARE %d %d %d %d %d %s\n", c.ID, c.Array, c.Index, b2i(c.Runtime), c.Home, c.Name)
	}
	fmt.Fprintln(bw, "END_STS")

	// Per-PE sections are rebuilt locally (rather than via the trace index)
	// so unindexed traces serialize too.
	blocksByPE := make([][]trace.BlockID, t.NumPE)
	for _, b := range t.Blocks {
		blocksByPE[b.PE] = append(blocksByPE[b.PE], b.ID)
	}
	idlesByPE := make([][]trace.Idle, t.NumPE)
	for _, idle := range t.Idles {
		idlesByPE[idle.PE] = append(idlesByPE[idle.PE], idle)
	}
	for pe := 0; pe < t.NumPE; pe++ {
		ids := blocksByPE[pe]
		sort.Slice(ids, func(i, j int) bool {
			bi, bj := &t.Blocks[ids[i]], &t.Blocks[ids[j]]
			if bi.Begin != bj.Begin {
				return bi.Begin < bj.Begin
			}
			return ids[i] < ids[j]
		})
		idles := idlesByPE[pe]
		sort.Slice(idles, func(i, j int) bool { return idles[i].Begin < idles[j].Begin })
		fmt.Fprintf(bw, "BEGIN_LOG %d\n", pe)
		bi, ii := 0, 0
		for bi < len(ids) || ii < len(idles) {
			// Idle spans end where the next block begins; on a begin-time tie
			// the idle is the earlier record.
			if bi == len(ids) || (ii < len(idles) && idles[ii].Begin <= t.Blocks[ids[bi]].Begin) {
				idle := idles[ii]
				fmt.Fprintf(bw, "%d %d\n", projBeginIdle, idle.Begin)
				fmt.Fprintf(bw, "%d %d\n", projEndIdle, idle.End)
				ii++
				continue
			}
			b := &t.Blocks[ids[bi]]
			fmt.Fprintf(bw, "%d %d %d %d %d\n", projBeginProcessing, b.Begin, b.Entry, b.Chare, b.ID)
			for _, eid := range b.Events {
				ev := &t.Events[eid]
				code := projCreation
				if ev.Kind == trace.Recv {
					code = projMessageRecv
				}
				fmt.Fprintf(bw, "%d %d %d %d\n", code, ev.Time, ev.Msg, ev.ID)
			}
			fmt.Fprintf(bw, "%d %d\n", projEndProcessing, b.End)
			bi++
		}
		fmt.Fprintln(bw, "END_LOG")
	}
	return bw.Flush()
}

// projReader carries the decoding state of one Projections-style stream.
type projReader struct {
	t *trace.Trace
	// declared .sts totals, cross-checked against the declaration records.
	wantChares, wantEPs int
	// per-section state: the processor of the open BEGIN_LOG section (-1
	// outside any section), its open serial block and open idle span.
	curPE     int
	openBlock int
	idleBegin trace.Time
	openIdle  bool
	seenLog   map[int]bool
	// globally-sequenced records land at their declared IDs; density is
	// validated once the stream ends.
	blocks map[int]trace.Block
	events map[int]trace.Event
	// order lists the event sequence numbers as the logs recorded them:
	// within a block that, not the sequence number, is the events' order.
	order []trace.EventID
}

// maxSeq bounds declared block/event sequence numbers: IDs are int32 and a
// hostile header must not imply absurd reconstruction work.
const maxSeq = 1<<31 - 1

// ReadProjections parses a Projections-style stream and indexes the
// reconstructed trace. Decode failures carry the ErrMalformed tag (see
// errors.go).
func ReadProjections(r io.Reader) (*trace.Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, malformed(fmt.Errorf("tracefile: empty projections input"))
	}
	var version int
	if _, err := fmt.Sscanf(sc.Text(), projectionsMagic+" %d", &version); err != nil {
		return nil, malformed(fmt.Errorf("tracefile: bad projections header %q", sc.Text()))
	}
	if version != projectionsVersion {
		return nil, malformed(fmt.Errorf("tracefile: unsupported projections version %d", version))
	}
	p := &projReader{
		t:          &trace.Trace{},
		wantChares: -1,
		wantEPs:    -1,
		curPE:      -1,
		openBlock:  -1,
		seenLog:    make(map[int]bool),
		blocks:     make(map[int]trace.Block),
		events:     make(map[int]trace.Event),
	}
	line := 1
	inSTS := true
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var err error
		if inSTS {
			inSTS, err = p.stsLine(text)
		} else {
			err = p.logLine(text)
		}
		if err != nil {
			return nil, malformed(fmt.Errorf("tracefile: projections line %d: %w", line, err))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, malformed(fmt.Errorf("tracefile: %w", err))
	}
	if inSTS {
		return nil, malformed(fmt.Errorf("tracefile: projections input ended inside the declaration section"))
	}
	if p.curPE >= 0 {
		return nil, malformed(fmt.Errorf("tracefile: projections log section for pe %d not terminated", p.curPE))
	}
	tr, err := p.finish()
	if err != nil {
		return nil, malformed(fmt.Errorf("tracefile: %w", err))
	}
	return tr, nil
}

// stsLine handles one declaration record; it reports whether the reader is
// still inside the declaration section.
func (p *projReader) stsLine(text string) (bool, error) {
	kind, rest, _ := strings.Cut(text, " ")
	switch kind {
	case "PROCESSORS":
		n, err := strconv.Atoi(rest)
		if err != nil {
			return true, err
		}
		if n < 1 || n > MaxPE {
			return true, fmt.Errorf("processor count %d out of range [1, %d]", n, MaxPE)
		}
		p.t.NumPE = n
	case "TOTAL_CHARES":
		n, err := strconv.Atoi(rest)
		if err != nil {
			return true, err
		}
		p.wantChares = n
	case "TOTAL_EPS":
		n, err := strconv.Atoi(rest)
		if err != nil {
			return true, err
		}
		p.wantEPs = n
	case "ENTRY":
		return true, parseProjEntry(p.t, rest)
	case "CHARE":
		return true, parseProjChare(p.t, rest)
	case "END_STS":
		if rest != "" {
			return true, fmt.Errorf("trailing data %q after END_STS", rest)
		}
		if p.t.NumPE == 0 {
			return true, fmt.Errorf("END_STS without a PROCESSORS declaration")
		}
		if p.wantChares >= 0 && p.wantChares != len(p.t.Chares) {
			return true, fmt.Errorf("TOTAL_CHARES %d but %d CHARE declarations", p.wantChares, len(p.t.Chares))
		}
		if p.wantEPs >= 0 && p.wantEPs != len(p.t.Entries) {
			return true, fmt.Errorf("TOTAL_EPS %d but %d ENTRY declarations", p.wantEPs, len(p.t.Entries))
		}
		return false, nil
	default:
		return true, fmt.Errorf("unknown declaration record %q", kind)
	}
	return true, nil
}

func parseProjEntry(t *trace.Trace, rest string) error {
	f, name, err := fields(rest, 3)
	if err != nil {
		return err
	}
	id, err := strconv.Atoi(f[0])
	if err != nil {
		return err
	}
	serial, err := strconv.Atoi(f[1])
	if err != nil {
		return err
	}
	afterWhen, err := strconv.Atoi(f[2])
	if err != nil {
		return err
	}
	if id != len(t.Entries) {
		return fmt.Errorf("ENTRY %d out of order", id)
	}
	t.Entries = append(t.Entries, trace.Entry{
		ID: trace.EntryID(id), Name: name, SDAGSerial: serial, AfterWhen: afterWhen != 0,
	})
	return nil
}

func parseProjChare(t *trace.Trace, rest string) error {
	f, name, err := fields(rest, 5)
	if err != nil {
		return err
	}
	vals := make([]int64, 5)
	for i, s := range f {
		vals[i], err = strconv.ParseInt(s, 10, 64)
		if err != nil {
			return err
		}
	}
	if int(vals[0]) != len(t.Chares) {
		return fmt.Errorf("CHARE %d out of order", vals[0])
	}
	t.Chares = append(t.Chares, trace.Chare{
		ID: trace.ChareID(vals[0]), Name: name, Array: trace.ArrayID(vals[1]),
		Index: int(vals[2]), Runtime: vals[3] != 0, Home: trace.PE(vals[4]),
	})
	return nil
}

// logLine handles one record of a per-processor log section.
func (p *projReader) logLine(text string) error {
	kind, rest, _ := strings.Cut(text, " ")
	if kind == "BEGIN_LOG" {
		if p.curPE >= 0 {
			return fmt.Errorf("BEGIN_LOG inside the log section for pe %d", p.curPE)
		}
		pe, err := strconv.Atoi(rest)
		if err != nil {
			return err
		}
		if pe < 0 || pe >= p.t.NumPE {
			return fmt.Errorf("log section pe %d out of range [0, %d)", pe, p.t.NumPE)
		}
		if p.seenLog[pe] {
			return fmt.Errorf("duplicate log section for pe %d", pe)
		}
		p.seenLog[pe] = true
		p.curPE = pe
		return nil
	}
	if kind == "END_LOG" {
		if p.curPE < 0 {
			return fmt.Errorf("END_LOG outside any log section")
		}
		if p.openBlock >= 0 {
			return fmt.Errorf("END_LOG with serial block %d still open", p.openBlock)
		}
		if p.openIdle {
			return fmt.Errorf("END_LOG with an idle span still open")
		}
		p.curPE = -1
		return nil
	}
	if p.curPE < 0 {
		return fmt.Errorf("record %q outside any log section", kind)
	}
	code, err := strconv.Atoi(kind)
	if err != nil {
		return fmt.Errorf("bad record code %q", kind)
	}
	nums, err := intFields(rest, recordArity(code)-1)
	if err != nil {
		return fmt.Errorf("record %d: %w", code, err)
	}
	switch code {
	case projBeginProcessing:
		if p.openBlock >= 0 {
			return fmt.Errorf("BEGIN_PROCESSING while block %d is open", p.openBlock)
		}
		seq := nums[3]
		if seq < 0 || seq > maxSeq {
			return fmt.Errorf("block sequence %d out of range", seq)
		}
		if _, dup := p.blocks[int(seq)]; dup {
			return fmt.Errorf("duplicate block sequence %d", seq)
		}
		p.blocks[int(seq)] = trace.Block{
			ID: trace.BlockID(seq), Chare: trace.ChareID(nums[2]), PE: trace.PE(p.curPE),
			Entry: trace.EntryID(nums[1]), Begin: trace.Time(nums[0]), End: trace.Time(nums[0]),
		}
		p.openBlock = int(seq)
	case projEndProcessing:
		if p.openBlock < 0 {
			return fmt.Errorf("END_PROCESSING with no open block")
		}
		b := p.blocks[p.openBlock]
		b.End = trace.Time(nums[0])
		p.blocks[p.openBlock] = b
		p.openBlock = -1
	case projCreation, projMessageRecv:
		if p.openBlock < 0 {
			return fmt.Errorf("record %d with no open block", code)
		}
		seq := nums[2]
		if seq < 0 || seq > maxSeq {
			return fmt.Errorf("event sequence %d out of range", seq)
		}
		if _, dup := p.events[int(seq)]; dup {
			return fmt.Errorf("duplicate event sequence %d", seq)
		}
		kind := trace.Send
		if code == projMessageRecv {
			kind = trace.Recv
		}
		b := p.blocks[p.openBlock]
		p.events[int(seq)] = trace.Event{
			ID: trace.EventID(seq), Kind: kind, Time: trace.Time(nums[0]),
			Chare: b.Chare, PE: trace.PE(p.curPE),
			Msg: trace.MsgID(nums[1]), Block: trace.BlockID(p.openBlock),
		}
		p.order = append(p.order, trace.EventID(seq))
	case projBeginIdle:
		if p.openIdle {
			return fmt.Errorf("BEGIN_IDLE while an idle span is open")
		}
		p.idleBegin = trace.Time(nums[0])
		p.openIdle = true
	case projEndIdle:
		if !p.openIdle {
			return fmt.Errorf("END_IDLE with no open idle span")
		}
		p.t.Idles = append(p.t.Idles, trace.Idle{
			PE: trace.PE(p.curPE), Begin: p.idleBegin, End: trace.Time(nums[0]),
		})
		p.openIdle = false
	default:
		return fmt.Errorf("unknown record code %d", code)
	}
	return nil
}

// recordArity returns the total field count (code included) of a record.
func recordArity(code int) int {
	switch code {
	case projBeginProcessing:
		return 5
	case projCreation, projMessageRecv:
		return 4
	default:
		return 2
	}
}

// intFields parses exactly n space-separated int64 fields.
func intFields(rest string, n int) ([]int64, error) {
	parts := strings.Fields(rest)
	if len(parts) != n {
		return nil, fmt.Errorf("expected %d fields, got %d", n, len(parts))
	}
	out := make([]int64, n)
	for i, s := range parts {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// finish assembles the dense trace from the sequenced records and indexes
// it. Every block and event sequence number from 0 to the maximum must be
// present exactly once — the same density the native formats enforce.
func (p *projReader) finish() (*trace.Trace, error) {
	t := p.t
	t.Blocks = make([]trace.Block, len(p.blocks))
	for i := range t.Blocks {
		b, ok := p.blocks[i]
		if !ok {
			return nil, fmt.Errorf("projections stream is missing block sequence %d", i)
		}
		t.Blocks[i] = b
	}
	t.Events = make([]trace.Event, len(p.events))
	for i := range t.Events {
		ev, ok := p.events[i]
		if !ok {
			return nil, fmt.Errorf("projections stream is missing event sequence %d", i)
		}
		t.Events[i] = ev
	}
	if err := groupBlockEvents(t, p.order); err != nil {
		return nil, err
	}
	// Per-PE log sections interleave idles arbitrarily across processors;
	// normalize to the builder's (PE, Begin) order so a round-tripped trace
	// is structurally identical to the native one.
	sort.Slice(t.Idles, func(i, j int) bool {
		if t.Idles[i].PE != t.Idles[j].PE {
			return t.Idles[i].PE < t.Idles[j].PE
		}
		return t.Idles[i].Begin < t.Idles[j].Begin
	})
	if err := t.Index(); err != nil {
		return nil, err
	}
	return t, nil
}
