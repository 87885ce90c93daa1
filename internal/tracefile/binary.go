package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"charmtrace/internal/trace"
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
// A reader may rely on nothing but the bytes. A varint may be padded up to
// binary.MaxVarintLen64 bytes, so a block, event or idle record is at most
// maxBlockLen, maxEventLen or maxIdleLen long; a section count is a claim,
// good for knowing when the section ends and never for sizing an
// allocation (see grow); every chare, entry, block and PE reference, event
// and idle PEs included, is range-checked by trace.Index before the trace
// is handed out.

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

type bwriter struct {
	w   *bufio.Writer
	err error
}

func (b *bwriter) u8(v uint8) {
	if b.err == nil {
		b.err = b.w.WriteByte(v)
	}
}
func (b *bwriter) u32(v uint32) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(v))
	if b.err == nil {
		_, b.err = b.w.Write(buf[:n])
	}
}
func (b *bwriter) i32(v int32) { b.i64(int64(v)) }
func (b *bwriter) i64(v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	if b.err == nil {
		_, b.err = b.w.Write(buf[:n])
	}
}
func (b *bwriter) str(s string) {
	b.u32(uint32(len(s)))
	if b.err == nil {
		_, b.err = b.w.WriteString(s)
	}
}
func (b *bwriter) bool(v bool) {
	if v {
		b.u8(1)
	} else {
		b.u8(0)
	}
}

// WriteBinary serializes a trace in the binary format.
func WriteBinary(w io.Writer, t *trace.Trace) error {
	b := &bwriter{w: bufio.NewWriter(w)}
	if _, err := b.w.Write(binaryMagic[:]); err != nil {
		return err
	}
	b.u32(binaryVersion)
	b.u32(uint32(t.NumPE))
	b.u32(uint32(len(t.Entries)))
	for _, e := range t.Entries {
		b.i32(int32(e.SDAGSerial))
		b.bool(e.AfterWhen)
		b.str(e.Name)
	}
	b.u32(uint32(len(t.Chares)))
	for _, c := range t.Chares {
		b.i32(int32(c.Array))
		b.i32(int32(c.Index))
		b.bool(c.Runtime)
		b.i32(int32(c.Home))
		b.str(c.Name)
	}
	b.u32(uint32(len(t.Blocks)))
	for i := range t.Blocks {
		blk := &t.Blocks[i]
		b.i32(int32(blk.Chare))
		b.i32(int32(blk.PE))
		b.i32(int32(blk.Entry))
		b.i64(int64(blk.Begin))
		b.i64(int64(blk.End))
	}
	b.u32(uint32(len(t.Events)))
	for i := range t.Events {
		ev := &t.Events[i]
		b.u8(uint8(ev.Kind))
		b.i64(int64(ev.Time))
		b.i32(int32(ev.Chare))
		b.i32(int32(ev.PE))
		b.i64(int64(ev.Msg))
		b.i32(int32(ev.Block))
	}
	b.u32(uint32(len(t.Idles)))
	for _, idle := range t.Idles {
		b.i32(int32(idle.PE))
		b.i64(int64(idle.Begin))
		b.i64(int64(idle.End))
	}
	if b.err != nil {
		return b.err
	}
	return b.w.Flush()
}

// breader reads the binary format. The header, section counts, strings and
// the few entry/chare records go field by field through the bufio.Reader;
// the bulk sections (blocks, events, idles) decode whole records in place
// out of the reader's buffer, one Peek per buffer-full.
type breader struct {
	r   *bufio.Reader
	err error
	// win is the undecoded tail of the last Peek: bytes still buffered in r,
	// of which peeked-len(win) have been decoded but not yet discarded.
	// winErr is why that Peek came back short (nil when it filled the
	// buffer): the stream ends, or fails, right after win. Field reads must
	// sync first.
	win    []byte
	peeked int
	winErr error
}

// Longest encodings of the bulk records: a varint takes at most
// binary.MaxVarintLen64 bytes whatever the width of the field it fills, so
// a window this long holds the whole record however it was encoded.
const (
	maxBlockLen = 5 * binary.MaxVarintLen64
	maxEventLen = 1 + 5*binary.MaxVarintLen64
	maxIdleLen  = 3 * binary.MaxVarintLen64
)

// record returns a cursor over the buffered bytes at the decode position.
// Unless the stream is about to end the cursor holds at least need bytes —
// a whole record — because a window that runs short is replaced by a fresh
// Peek of the full buffer. Only the last window of a stream can be shorter;
// there a field the bytes do not cover is a truncation.
func (b *breader) record(need int) cursor {
	if len(b.win) < need && b.winErr == nil {
		b.refill()
	}
	return cursor{buf: b.win}
}

// refill (kept out of record so that record inlines) slides the window to
// the decode position and extends it to everything r can buffer.
func (b *breader) refill() {
	b.sync()
	b.win, b.winErr = b.r.Peek(b.r.Size())
	b.peeked = len(b.win)
}

// accept consumes the record c decoded, or fails the read if it did not
// parse: with the error that ended the stream when c ran out of bytes, as
// an overflow otherwise.
func (b *breader) accept(c *cursor) bool {
	switch {
	case c.bad:
		b.err = errors.New("tracefile: varint out of range")
	case c.short:
		if b.err = b.winErr; b.err == nil || b.err == io.EOF {
			b.err = io.ErrUnexpectedEOF
		}
	default:
		b.win = b.win[c.n:]
		return true
	}
	return false
}

// sync discards the decoded part of the window from r, so that field reads
// resume at the decode position.
func (b *breader) sync() {
	b.r.Discard(b.peeked - len(b.win)) // cannot fail: these bytes are buffered
	b.win, b.peeked, b.winErr = nil, 0, nil
}

// cursor decodes the fields of one record in place. The first field that
// runs past the buffer (short) or does not fit its type (bad) empties the
// cursor, so the remaining fields read as zero without a check per field.
type cursor struct {
	buf        []byte
	n          int
	short, bad bool
}

// fail records why the record does not parse (the first failure wins) and
// empties the cursor.
func (c *cursor) fail(bad bool) {
	if !c.short && !c.bad {
		c.short, c.bad = !bad, bad
	}
	c.n = len(c.buf)
}

func (c *cursor) u8() uint8 {
	if c.n == len(c.buf) {
		c.fail(false)
		return 0
	}
	c.n++
	return c.buf[c.n-1]
}

// i64 is binary.Varint on the cursor.
func (c *cursor) i64() int64 {
	var ux uint64
	var shift uint
	for i, b := range c.buf[c.n:] {
		if i == binary.MaxVarintLen64 {
			c.fail(true) // an 11th byte
			return 0
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				c.fail(true) // overflows 64 bits
				return 0
			}
			c.n += i + 1
			ux |= uint64(b) << shift
			return int64(ux>>1) ^ -int64(ux&1) // zig-zag
		}
		ux |= uint64(b&0x7f) << shift
		shift += 7
	}
	c.fail(false)
	return 0
}

func (c *cursor) i32() int32 {
	v := c.i64()
	if v > math.MaxInt32 || v < math.MinInt32 {
		c.fail(true)
		return 0
	}
	return int32(v)
}

func (b *breader) u8() uint8 {
	if b.err != nil {
		return 0
	}
	v, err := b.r.ReadByte()
	b.err = err
	return v
}
func (b *breader) u32() uint32 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(b.r)
	b.err = err
	if err == nil && v > math.MaxUint32 {
		b.err = fmt.Errorf("tracefile: uvarint %d exceeds uint32", v)
	}
	return uint32(v)
}
func (b *breader) i32() int32 {
	v := b.i64()
	if b.err == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		b.err = fmt.Errorf("tracefile: varint %d exceeds int32", v)
	}
	return int32(v)
}
func (b *breader) i64() int64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(b.r)
	b.err = err
	return v
}
func (b *breader) str() string {
	n := b.u32()
	if b.err != nil {
		return ""
	}
	if n > 1<<24 {
		b.err = fmt.Errorf("tracefile: string length %d too large", n)
		return ""
	}
	buf := make([]byte, n)
	_, b.err = io.ReadFull(b.r, buf)
	return string(buf)
}
func (b *breader) bool() bool { return b.u8() != 0 }

// count validates a section length against a sanity cap.
func (b *breader) count(what string) int {
	n := b.u32()
	if b.err == nil && n > math.MaxInt32 {
		b.err = fmt.Errorf("tracefile: %s count %d too large", what, n)
	}
	return int(n)
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

func (b *breader) blocks(t *trace.Trace) {
	n := b.count("block")
	for i := 0; i < n && b.err == nil; i++ {
		c := b.record(maxBlockLen)
		blk := trace.Block{
			ID:    trace.BlockID(i),
			Chare: trace.ChareID(c.i32()),
			PE:    trace.PE(c.i32()),
			Entry: trace.EntryID(c.i32()),
			Begin: trace.Time(c.i64()),
			End:   trace.Time(c.i64()),
		}
		if b.accept(&c) {
			t.Blocks = append(withRoom(t.Blocks, n), blk)
		}
	}
	b.sync()
}

func (b *breader) events(t *trace.Trace) {
	n := b.count("event")
	for i := 0; i < n && b.err == nil; i++ {
		c := b.record(maxEventLen)
		ev := trace.Event{
			ID:    trace.EventID(i),
			Kind:  trace.EventKind(c.u8()),
			Time:  trace.Time(c.i64()),
			Chare: trace.ChareID(c.i32()),
			PE:    trace.PE(c.i32()),
			Msg:   trace.MsgID(c.i64()),
			Block: trace.BlockID(c.i32()),
		}
		if !b.accept(&c) {
			break
		}
		if ev.Kind != trace.Send && ev.Kind != trace.Recv {
			b.err = fmt.Errorf("tracefile: event %d has unknown kind %d", i, ev.Kind)
			break
		}
		t.Events = append(withRoom(t.Events, n), ev)
	}
	b.sync()
}

func (b *breader) idles(t *trace.Trace) {
	n := b.count("idle")
	for i := 0; i < n && b.err == nil; i++ {
		c := b.record(maxIdleLen)
		idle := trace.Idle{
			PE:    trace.PE(c.i32()),
			Begin: trace.Time(c.i64()),
			End:   trace.Time(c.i64()),
		}
		if b.accept(&c) {
			t.Idles = append(withRoom(t.Idles, n), idle)
		}
	}
	b.sync()
}

// groupBlockEvents fills every Block.Events from the events' Block fields:
// count per block, prefix-sum, then fill, so all lists are full-capacity
// sub-slices of one flat array (an append to one reallocates instead of
// clobbering its neighbour) at a cost of two allocations however many
// blocks there are. order lists the events in the order they are to appear
// within their blocks; nil means ID order. An event naming a block outside
// t.Blocks is an error.
func groupBlockEvents(t *trace.Trace, order []trace.EventID) error {
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
	place := func(e trace.EventID) {
		b := t.Events[e].Block
		ids[off[b+1]] = e
		off[b+1]++
	}
	if order == nil {
		for i := range t.Events {
			place(trace.EventID(i))
		}
	} else {
		for _, e := range order {
			place(e)
		}
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
	b := &breader{r: bufio.NewReader(r)}
	var magic [4]byte
	if _, err := io.ReadFull(b.r, magic[:]); err != nil {
		return nil, malformed(fmt.Errorf("tracefile: %w", err))
	}
	if magic != binaryMagic {
		return nil, malformed(fmt.Errorf("tracefile: bad binary magic %q", magic[:]))
	}
	if v := b.u32(); v != binaryVersion {
		if b.err == nil {
			return nil, malformed(fmt.Errorf("tracefile: unsupported binary version %d", v))
		}
	}
	t := &trace.Trace{NumPE: int(b.u32())}
	if b.err == nil && t.NumPE > MaxPE {
		return nil, malformed(fmt.Errorf("tracefile: pe count %d out of range [0, %d]", t.NumPE, MaxPE))
	}
	for i, n := 0, b.count("entry"); i < n && b.err == nil; i++ {
		e := trace.Entry{ID: trace.EntryID(i)}
		e.SDAGSerial = int(b.i32())
		e.AfterWhen = b.bool()
		e.Name = b.str()
		t.Entries = append(t.Entries, e)
	}
	for i, n := 0, b.count("chare"); i < n && b.err == nil; i++ {
		c := trace.Chare{ID: trace.ChareID(i)}
		c.Array = trace.ArrayID(b.i32())
		c.Index = int(b.i32())
		c.Runtime = b.bool()
		c.Home = trace.PE(b.i32())
		c.Name = b.str()
		t.Chares = append(t.Chares, c)
	}
	b.blocks(t)
	b.events(t)
	b.idles(t)
	if b.err != nil {
		return nil, malformed(fmt.Errorf("tracefile: %w", b.err))
	}
	if err := groupBlockEvents(t, nil); err != nil {
		return nil, malformed(err)
	}
	if err := t.Index(); err != nil {
		return nil, malformed(fmt.Errorf("tracefile: %w", err))
	}
	return t, nil
}

// ReadAuto detects the format (text header, binary magic or the
// Projections-style magic line) and parses accordingly. Decode failures
// carry the ErrMalformed tag (see errors.go).
func ReadAuto(r io.Reader) (*trace.Trace, error) {
	br := bufio.NewReader(r)
	// Peek the longest magic; a short read still yields whatever prefix is
	// available, which is enough to dispatch (a stream shorter than every
	// magic can only be the text format, whose reader rejects it).
	head, err := br.Peek(len(projectionsMagic))
	if len(head) == 0 {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return nil, malformed(fmt.Errorf("tracefile: %w", err))
	}
	if len(head) >= len(binaryMagic) && [4]byte(head[:4]) == binaryMagic {
		return ReadBinary(br)
	}
	if string(head) == projectionsMagic {
		return ReadProjections(br)
	}
	return Read(br)
}
