// Package tracefile serializes traces to a line-oriented, versioned text
// format, the analogue of the Charm++ Projections log files the paper's
// tooling consumes. The format is self-describing and diff-friendly:
//
//	charmtrace 1
//	pe <numPE>
//	entry <id> <sdagSerial> <afterWhen> <name>
//	chare <id> <array> <index> <runtime> <home> <name>
//	block <id> <chare> <pe> <entry> <begin> <end>
//	ev <id> <kind> <time> <chare> <pe> <msg> <block>
//	idle <pe> <begin> <end>
//
// Names are the trailing field so they may contain spaces. Records may
// appear in any order except the header; Read validates and indexes the
// result.
package tracefile

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"charmtrace/internal/trace"
)

// FormatVersion is the current file format version.
const FormatVersion = 1

// Write serializes a trace.
func Write(w io.Writer, t *trace.Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "charmtrace %d\n", FormatVersion)
	fmt.Fprintf(bw, "pe %d\n", t.NumPE)
	for _, e := range t.Entries {
		fmt.Fprintf(bw, "entry %d %d %t %s\n", e.ID, e.SDAGSerial, e.AfterWhen, e.Name)
	}
	for _, c := range t.Chares {
		fmt.Fprintf(bw, "chare %d %d %d %t %d %s\n", c.ID, c.Array, c.Index, c.Runtime, c.Home, c.Name)
	}
	for _, b := range t.Blocks {
		fmt.Fprintf(bw, "block %d %d %d %d %d %d\n", b.ID, b.Chare, b.PE, b.Entry, b.Begin, b.End)
	}
	for _, ev := range t.Events {
		fmt.Fprintf(bw, "ev %d %s %d %d %d %d %d\n",
			ev.ID, ev.Kind, ev.Time, ev.Chare, ev.PE, ev.Msg, ev.Block)
	}
	for _, idle := range t.Idles {
		fmt.Fprintf(bw, "idle %d %d %d\n", idle.PE, idle.Begin, idle.End)
	}
	return bw.Flush()
}

// WriteFile serializes a trace to a file.
func WriteFile(path string, t *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a trace and indexes it. Decode failures carry the
// ErrMalformed tag (see errors.go).
func Read(r io.Reader) (*trace.Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, malformed(fmt.Errorf("tracefile: empty input"))
	}
	var version int
	if _, err := fmt.Sscanf(sc.Text(), "charmtrace %d", &version); err != nil {
		return nil, malformed(fmt.Errorf("tracefile: bad header %q", sc.Text()))
	}
	if version != FormatVersion {
		return nil, malformed(fmt.Errorf("tracefile: unsupported version %d", version))
	}
	t := &trace.Trace{}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		kind, rest, _ := strings.Cut(text, " ")
		var err error
		switch kind {
		case "pe":
			t.NumPE, err = strconv.Atoi(rest)
			if err == nil && (t.NumPE < 0 || t.NumPE > MaxPE) {
				err = fmt.Errorf("pe count %d out of range [0, %d]", t.NumPE, MaxPE)
			}
		case "entry":
			err = parseEntry(t, rest)
		case "chare":
			err = parseChare(t, rest)
		case "block":
			err = parseBlock(t, rest)
		case "ev":
			err = parseEvent(t, rest)
		case "idle":
			err = parseIdle(t, rest)
		default:
			err = fmt.Errorf("unknown record %q", kind)
		}
		if err != nil {
			return nil, malformed(fmt.Errorf("tracefile: line %d: %w", line, err))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, malformed(fmt.Errorf("tracefile: %w", err))
	}
	// Events arrive in ID order but may precede their block's record, so
	// the block lists are grouped once everything is read.
	if err := groupBlockEvents(t, nil); err != nil {
		return nil, malformed(err)
	}
	if err := t.Index(); err != nil {
		return nil, malformed(fmt.Errorf("tracefile: %w", err))
	}
	return t, nil
}

// ReadFile parses a trace file in either format (detected by magic).
func ReadFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAuto(f)
}

// WriteFileBinary serializes a trace to a file in the binary format.
func WriteFileBinary(path string, t *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fields splits rest into n leading integer-ish fields plus a trailing
// remainder (for names).
func fields(rest string, n int) ([]string, string, error) {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		f, r, ok := strings.Cut(rest, " ")
		if !ok && i < n-1 {
			return nil, "", fmt.Errorf("expected %d fields, got %d", n, i+1)
		}
		out = append(out, f)
		rest = r
	}
	return out, rest, nil
}

func parseEntry(t *trace.Trace, rest string) error {
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
	afterWhen, err := strconv.ParseBool(f[2])
	if err != nil {
		return err
	}
	if id != len(t.Entries) {
		return fmt.Errorf("entry %d out of order", id)
	}
	t.Entries = append(t.Entries, trace.Entry{
		ID: trace.EntryID(id), Name: name, SDAGSerial: serial, AfterWhen: afterWhen,
	})
	return nil
}

func parseChare(t *trace.Trace, rest string) error {
	f, name, err := fields(rest, 5)
	if err != nil {
		return err
	}
	vals := make([]int64, 5)
	for i, s := range f {
		if i == 3 {
			continue
		}
		vals[i], err = strconv.ParseInt(s, 10, 64)
		if err != nil {
			return err
		}
	}
	runtime, err := strconv.ParseBool(f[3])
	if err != nil {
		return err
	}
	if int(vals[0]) != len(t.Chares) {
		return fmt.Errorf("chare %d out of order", vals[0])
	}
	t.Chares = append(t.Chares, trace.Chare{
		ID: trace.ChareID(vals[0]), Name: name, Array: trace.ArrayID(vals[1]),
		Index: int(vals[2]), Runtime: runtime, Home: trace.PE(vals[4]),
	})
	return nil
}

func parseBlock(t *trace.Trace, rest string) error {
	f, tail, err := fields(rest, 6)
	if err != nil {
		return err
	}
	if tail != "" {
		return fmt.Errorf("trailing data %q", tail)
	}
	vals := make([]int64, 6)
	for i, s := range f {
		vals[i], err = strconv.ParseInt(s, 10, 64)
		if err != nil {
			return err
		}
	}
	if int(vals[0]) != len(t.Blocks) {
		return fmt.Errorf("block %d out of order", vals[0])
	}
	t.Blocks = append(t.Blocks, trace.Block{
		ID: trace.BlockID(vals[0]), Chare: trace.ChareID(vals[1]), PE: trace.PE(vals[2]),
		Entry: trace.EntryID(vals[3]), Begin: trace.Time(vals[4]), End: trace.Time(vals[5]),
	})
	return nil
}

func parseEvent(t *trace.Trace, rest string) error {
	f, tail, err := fields(rest, 7)
	if err != nil {
		return err
	}
	if tail != "" {
		return fmt.Errorf("trailing data %q", tail)
	}
	var kind trace.EventKind
	switch f[1] {
	case "send":
		kind = trace.Send
	case "recv":
		kind = trace.Recv
	default:
		return fmt.Errorf("unknown event kind %q", f[1])
	}
	ints := []int{0, 2, 3, 4, 5, 6}
	vals := make(map[int]int64, len(ints))
	for _, i := range ints {
		vals[i], err = strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return err
		}
	}
	if int(vals[0]) != len(t.Events) {
		return fmt.Errorf("event %d out of order", vals[0])
	}
	ev := trace.Event{
		ID: trace.EventID(vals[0]), Kind: kind, Time: trace.Time(vals[2]),
		Chare: trace.ChareID(vals[3]), PE: trace.PE(vals[4]),
		Msg: trace.MsgID(vals[5]), Block: trace.BlockID(vals[6]),
	}
	t.Events = append(t.Events, ev)
	return nil
}

func parseIdle(t *trace.Trace, rest string) error {
	f, tail, err := fields(rest, 3)
	if err != nil {
		return err
	}
	if tail != "" {
		return fmt.Errorf("trailing data %q", tail)
	}
	vals := make([]int64, 3)
	for i, s := range f {
		vals[i], err = strconv.ParseInt(s, 10, 64)
		if err != nil {
			return err
		}
	}
	t.Idles = append(t.Idles, trace.Idle{
		PE: trace.PE(vals[0]), Begin: trace.Time(vals[1]), End: trace.Time(vals[2]),
	})
	return nil
}
