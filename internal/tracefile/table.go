package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"charmtrace/internal/trace"
)

// Table format: the persisted form of a trace's read-side event table
// (trace.Table), which charmd keeps as <digest>.tbl beside <digest>.trace so
// that serving a cached structure never needs the trace decoded. Columns,
// each delta- or offset-coded so that the common value is one byte:
//
//	magic "CTBL", varint version
//	varint numPE, nEvents, nChares, nBlocks, nIdles
//	nChares x { u8 runtime, varint len, name bytes }
//	kind:    ceil(nEvents/8) bytes, bit e%8 of byte e/8 set for a receive
//	chare:   nEvents x varint, difference from the previous event's
//	pe:      nEvents x varint, likewise
//	time:    nEvents x varint, likewise
//	partner: one varint per receive: 0 for none, else event - matching send
//	subdur:  nEvents x varint
//	idleexp: nEvents x varint
//	u32 (little-endian) CRC-32C of every byte before it
//
// All varints are zig-zag (encoding/binary's signed varint). The file is
// written and read whole; ReadTable trusts nothing but the bytes.

var tableMagic = [4]byte{'C', 'T', 'B', 'L'}

// tableVersion is the current table format version.
const tableVersion = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteTable serializes a table.
func WriteTable(w io.Writer, t *trace.Table) error {
	n := t.NumEvents()
	buf := make([]byte, 0, 64+12*n)
	buf = append(buf, tableMagic[:]...)
	for _, v := range []int{tableVersion, t.NumPE, n, t.NumChares(), t.Blocks, t.Idles} {
		buf = binary.AppendVarint(buf, int64(v))
	}
	for c, name := range t.Name {
		rt := byte(0)
		if t.Runtime[c] {
			rt = 1
		}
		buf = binary.AppendVarint(append(buf, rt), int64(len(name)))
		buf = append(buf, name...)
	}
	kinds := len(buf)
	buf = append(buf, make([]byte, (n+7)/8)...)
	for e, k := range t.Kind {
		if k == trace.Recv {
			buf[kinds+e/8] |= 1 << (e % 8)
		}
	}
	buf = appendDeltas(appendDeltas(appendDeltas(buf, t.Chare), t.PE), t.Time)
	for e, p := range t.Partner {
		switch {
		case t.Kind[e] != trace.Recv:
		case p == trace.NoEvent:
			buf = append(buf, 0)
		default:
			buf = binary.AppendVarint(buf, int64(e)-int64(p))
		}
	}
	for _, col := range [][]trace.Time{t.SubDur, t.IdleExp} {
		for _, d := range col {
			buf = binary.AppendVarint(buf, int64(d))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	_, err := w.Write(buf)
	return err
}

// appendDeltas appends a column as the differences between successive values.
func appendDeltas[T ~int32 | ~int64](buf []byte, col []T) []byte {
	var prev T
	for _, v := range col {
		buf = binary.AppendVarint(buf, int64(v-prev))
		prev = v
	}
	return buf
}

// readDeltas fills a column appendDeltas wrote. Sums wrap; Validate judges
// what they come to.
func readDeltas[T ~int32 | ~int64](c *cursor, col []T) {
	var prev T
	for e := range col {
		prev += T(c.i64())
		col[e] = prev
	}
}

// minTableEventLen is the fewest bytes one event can take: a byte in each
// of the five per-event varint columns (its kind bit aside).
const minTableEventLen = 5

// count reads a non-negative count of things that take at least unit bytes
// each: one the input is too short to hold is refused here, before it can
// size an allocation.
func (c *cursor) count(unit int) int {
	v := c.i64()
	if v < 0 || v > int64(len(c.buf)/unit) {
		c.fail(true)
		return 0
	}
	return int(v)
}

// bytes returns the next n bytes.
func (c *cursor) bytes(n int) []byte {
	if n > len(c.buf)-c.n {
		c.fail(false)
		return nil
	}
	c.n += n
	return c.buf[c.n-n : c.n]
}

// ReadTable parses a serialized table, which must be the whole file. It
// checks the checksum, bounds every count by the bytes present before
// allocating for it, and range-checks every reference (trace.Table.Validate),
// so the result is safe to index however the bytes came to be.
func ReadTable(data []byte) (*trace.Table, error) {
	if len(data) < len(tableMagic)+4 || [4]byte(data[:4]) != tableMagic {
		return nil, errors.New("tracefile: not an event table")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, errors.New("tracefile: event table checksum mismatch")
	}
	c := &cursor{buf: body, n: len(tableMagic)}
	if v := c.i64(); v != tableVersion {
		return nil, fmt.Errorf("tracefile: unsupported event table version %d", v)
	}
	t := &trace.Table{NumPE: int(c.i32())}
	n, nc := c.count(minTableEventLen), c.count(2) // a chare is at least its runtime byte and name length
	t.Blocks, t.Idles = int(c.i32()), int(c.i32())
	if c.short || c.bad || t.NumPE > MaxPE {
		return nil, errors.New("tracefile: event table header out of range")
	}
	t.Name, t.Runtime = make([]string, nc), make([]bool, nc)
	for i := range t.Name {
		t.Runtime[i] = c.u8() != 0
		t.Name[i] = string(c.bytes(c.count(1)))
	}
	t.Kind = make([]trace.EventKind, n)
	for e, bits := 0, c.bytes((n+7)/8); e < n && bits != nil; e++ {
		t.Kind[e] = trace.EventKind(bits[e/8] >> (e % 8) & 1)
	}
	t.Chare, t.PE, t.Time = make([]trace.ChareID, n), make([]trace.PE, n), make([]trace.Time, n)
	readDeltas(c, t.Chare)
	readDeltas(c, t.PE)
	readDeltas(c, t.Time)
	t.Partner = make([]trace.EventID, n)
	for e := range t.Partner {
		t.Partner[e] = trace.NoEvent
		if t.Kind[e] == trace.Recv {
			if d := c.i64(); d != 0 {
				p := int64(e) - d
				if p < 0 || p >= int64(n) {
					p = -2 // out of range (unlike -1, NoEvent), for Validate to refuse
				}
				t.Partner[e] = trace.EventID(p)
			}
		}
	}
	t.SubDur, t.IdleExp = make([]trace.Time, n), make([]trace.Time, n)
	for _, col := range [][]trace.Time{t.SubDur, t.IdleExp} {
		for e := range col {
			col[e] = trace.Time(c.i64())
		}
	}
	if c.short || c.bad || c.n != len(body) {
		return nil, errors.New("tracefile: event table truncated or overlong")
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	return t, nil
}
