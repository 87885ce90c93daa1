package tracefile

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"charmtrace/internal/trace"
	"charmtrace/internal/varint"
)

// Binary format: a compact varint encoding for large traces. The text
// format stays the interchange default; ReadAuto detects either by magic.
//
//	magic "CTRB", uvarint version
//	uvarint numPE
//	uvarint nEntries { varint sdagSerial, u8 afterWhen, str name }
//	uvarint nChares  { varint array, varint index, u8 runtime, varint home, str name }
//	uvarint nBlocks  { varint chare, varint pe, varint entry, varint begin, varint end }
//	uvarint nEvents  { u8 kind, varint time, varint chare, varint pe, varint msg, varint block }
//	uvarint nIdles   { varint pe, varint begin, varint end }
//
// Signed fields use zig-zag varints (encoding/binary's signed varint);
// strings are uvarint length + bytes. Block event lists are reconstructed
// from the events section (events appear in ID order, and each block's
// events are listed in that order). IDs are positions: the i-th record of a
// section is entry, chare, block or event i.
//
// A reader may rely on nothing but the bytes. WriteBinary writes through a
// varint.Writer and ReadBinary reads through a varint.Reader refilled from
// the stream's buffer, so a record is decoded in place however its varints
// are padded; a section count is a claim, good for knowing when the
// section ends and never for sizing an allocation (see withRoom); every
// chare, entry, block and PE reference, event and idle PEs included, is
// range-checked by trace.Index before the trace is handed out.

// binaryMagic opens every binary trace file.
var binaryMagic = [4]byte{'C', 'T', 'R', 'B'}

// binaryVersion is the current binary format version.
const binaryVersion = 1

// MaxPE caps the decoded PE count. trace.Index allocates per-PE state, so
// an unchecked count from an untrusted header (a 4-byte field can claim 4
// billion PEs) would turn a 10-byte upload into a multi-gigabyte
// allocation; 1<<20 is an order of magnitude past the largest machines the
// paper targets. Found by FuzzReadAuto.
const MaxPE = 1 << 20

// WriteBinary serializes a trace in the binary format. The int fields
// (numPE, sdagSerial, index) are written at the 32 bits the reader takes.
func WriteBinary(w io.Writer, t *trace.Trace) error {
	b := varint.NewWriter(w)
	b.Bytes(binaryMagic[:])
	b.Uvarint(binaryVersion)
	b.Uvarint(uint64(uint32(t.NumPE)))
	b.Uvarint(uint64(len(t.Entries)))
	for _, e := range t.Entries {
		b.Varint(int64(int32(e.SDAGSerial)))
		b.Bool(e.AfterWhen)
		b.String(e.Name)
	}
	b.Uvarint(uint64(len(t.Chares)))
	for _, c := range t.Chares {
		b.Varint(int64(c.Array))
		b.Varint(int64(int32(c.Index)))
		b.Bool(c.Runtime)
		b.Varint(int64(c.Home))
		b.String(c.Name)
	}
	b.Uvarint(uint64(len(t.Blocks)))
	for i := range t.Blocks {
		blk := &t.Blocks[i]
		b.Varint(int64(blk.Chare))
		b.Varint(int64(blk.PE))
		b.Varint(int64(blk.Entry))
		b.Varint(int64(blk.Begin))
		b.Varint(int64(blk.End))
	}
	b.Uvarint(uint64(len(t.Events)))
	for i := range t.Events {
		ev := &t.Events[i]
		b.Byte(byte(ev.Kind))
		b.Varint(int64(ev.Time))
		b.Varint(int64(ev.Chare))
		b.Varint(int64(ev.PE))
		b.Varint(int64(ev.Msg))
		b.Varint(int64(ev.Block))
	}
	b.Uvarint(uint64(len(t.Idles)))
	for _, idle := range t.Idles {
		b.Varint(int64(idle.PE))
		b.Varint(int64(idle.Begin))
		b.Varint(int64(idle.End))
	}
	return b.Flush()
}

// A section count is untrusted — a 20-byte upload can claim 2^31-1 records —
// so it never sizes an allocation ahead of the records that back it: a bulk
// section's slice starts at most initialCap long and multiplies by
// growFactor as records actually arrive, which keeps memory within
// growFactor of what the bytes read so far decode to. It never grows past
// the claim either, so an honest file ends with no spare capacity. The
// outgrown slices are garbage: about as much as the final slice when
// doubling, a third of it when quadrupling (and several times it under
// append's own quarter-at-a-time growth of large slices).
const (
	initialCap = 1024
	growFactor = 4
)

// withRoom returns s, contents kept, with room for one more element; n is the
// section's claimed length, which the caller has not reached yet.
func withRoom[T any](s []T, n int) []T {
	if len(s) < cap(s) {
		return s
	}
	c := min(growFactor*cap(s), n)
	if c == 0 {
		c = min(initialCap, n)
	}
	out := make([]T, len(s), c)
	copy(out, s)
	return out
}

// str reads a length-prefixed string.
func str(b *varint.Reader) string { return string(b.Bytes(b.Count("string byte", 1<<24))) }

func readBlocks(b *varint.Reader, t *trace.Trace) {
	n := b.Count("block", math.MaxInt32)
	for i := 0; i < n && b.Err() == nil; i++ {
		blk := trace.Block{
			ID:    trace.BlockID(i),
			Chare: trace.ChareID(b.Int32()),
			PE:    trace.PE(b.Int32()),
			Entry: trace.EntryID(b.Int32()),
			Begin: trace.Time(b.Varint()),
			End:   trace.Time(b.Varint()),
		}
		if b.Err() == nil {
			t.Blocks = append(withRoom(t.Blocks, n), blk)
		}
	}
}

func readEvents(b *varint.Reader, t *trace.Trace) {
	n := b.Count("event", math.MaxInt32)
	for i := 0; i < n && b.Err() == nil; i++ {
		ev := trace.Event{
			ID:    trace.EventID(i),
			Kind:  trace.EventKind(b.Byte()),
			Time:  trace.Time(b.Varint()),
			Chare: trace.ChareID(b.Int32()),
			PE:    trace.PE(b.Int32()),
			Msg:   trace.MsgID(b.Varint()),
			Block: trace.BlockID(b.Int32()),
		}
		if b.Err() != nil {
			break
		}
		if ev.Kind != trace.Send && ev.Kind != trace.Recv {
			b.Fail(fmt.Errorf("event %d has unknown kind %d", i, ev.Kind))
			break
		}
		t.Events = append(withRoom(t.Events, n), ev)
	}
}

func readIdles(b *varint.Reader, t *trace.Trace) {
	n := b.Count("idle", math.MaxInt32)
	for i := 0; i < n && b.Err() == nil; i++ {
		idle := trace.Idle{
			PE:    trace.PE(b.Int32()),
			Begin: trace.Time(b.Varint()),
			End:   trace.Time(b.Varint()),
		}
		if b.Err() == nil {
			t.Idles = append(withRoom(t.Idles, n), idle)
		}
	}
}

// groupBlockEvents fills every Block.Events from the events' Block fields:
// count per block, prefix-sum, then fill, so all lists are full-capacity
// sub-slices of one flat array (an append to one reallocates instead of
// clobbering its neighbour) at a cost of two allocations however many
// blocks there are. Within a block the events keep ID order. An event
// naming a block outside t.Blocks is an error.
func groupBlockEvents(t *trace.Trace) error {
	off := make([]int32, len(t.Blocks)+2)
	for i := range t.Events {
		b := t.Events[i].Block
		if b < 0 || int(b) >= len(t.Blocks) {
			return fmt.Errorf("tracefile: event %d references unknown block %d", i, b)
		}
		off[b+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	// off[b+1] is now block b's start and advances to its end as the list
	// fills, leaving off[b], off[b+1] as its bounds.
	ids := make([]trace.EventID, len(t.Events))
	for i := range t.Events {
		b := t.Events[i].Block
		ids[off[b+1]] = trace.EventID(i)
		off[b+1]++
	}
	for i := range t.Blocks {
		if lo, hi := off[i], off[i+1]; lo < hi {
			t.Blocks[i].Events = ids[lo:hi:hi]
		}
	}
	return nil
}

// ReadBinary parses a binary trace and indexes it. Decode failures —
// including truncation, which surfaces as io.EOF / io.ErrUnexpectedEOF from
// the section readers — carry the ErrMalformed tag (see errors.go).
func ReadBinary(r io.Reader) (*trace.Trace, error) {
	b := varint.NewStream(bufio.NewReader(r))
	if magic := b.Bytes(len(binaryMagic)); b.Err() == nil && [4]byte(magic) != binaryMagic {
		return nil, malformed(fmt.Errorf("tracefile: bad binary magic %q", magic))
	}
	if v := b.Uvarint(); b.Err() == nil && v != binaryVersion {
		return nil, malformed(fmt.Errorf("tracefile: unsupported binary version %d", v))
	}
	numPE := b.Uvarint()
	if b.Err() == nil && numPE > MaxPE {
		return nil, malformed(fmt.Errorf("tracefile: pe count %d out of range [0, %d]", numPE, MaxPE))
	}
	t := &trace.Trace{NumPE: int(numPE)}
	for i, n := 0, b.Count("entry", math.MaxInt32); i < n && b.Err() == nil; i++ {
		e := trace.Entry{ID: trace.EntryID(i), SDAGSerial: int(b.Int32()), AfterWhen: b.Byte() != 0}
		e.Name = str(b)
		t.Entries = append(t.Entries, e)
	}
	for i, n := 0, b.Count("chare", math.MaxInt32); i < n && b.Err() == nil; i++ {
		c := trace.Chare{ID: trace.ChareID(i), Array: trace.ArrayID(b.Int32()), Index: int(b.Int32())}
		c.Runtime = b.Byte() != 0
		c.Home = trace.PE(b.Int32())
		c.Name = str(b)
		t.Chares = append(t.Chares, c)
	}
	readBlocks(b, t)
	readEvents(b, t)
	readIdles(b, t)
	if err := b.Err(); err != nil {
		return nil, malformed(fmt.Errorf("tracefile: %w", err))
	}
	if err := groupBlockEvents(t); err != nil {
		return nil, malformed(err)
	}
	if err := t.Index(); err != nil {
		return nil, malformed(fmt.Errorf("tracefile: %w", err))
	}
	return t, nil
}

// ReadAuto detects the format (binary magic, else the text reader) and
// parses accordingly. Decode failures carry the ErrMalformed tag (see
// errors.go).
func ReadAuto(r io.Reader) (*trace.Trace, error) {
	br := bufio.NewReader(r)
	// A short read still yields whatever prefix is available, which is
	// enough to dispatch: a stream shorter than the magic can only be the
	// text format, whose reader rejects it.
	head, err := br.Peek(len(binaryMagic))
	if len(head) == 0 {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, malformed(fmt.Errorf("tracefile: %w", err))
	}
	if len(head) == len(binaryMagic) && [4]byte(head) == binaryMagic {
		return ReadBinary(br)
	}
	return Read(br)
}
