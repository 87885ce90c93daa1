// Package varint is the one reader and the one writer behind the three
// binary formats: the recorded trace (.trace), its read-side event table
// (.tbl) and the recovered structure (.cstr). All three are made of
// encoding/binary varints (the signed ones zig-zag), raw bytes and
// length-prefixed strings. A Reader decodes them with bounds checks, over a
// whole slice in hand or through a window it refills from a bufio.Reader; a
// Writer appends them to a buffer it hands on in chunks.
package varint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrRange is the failure of a read whose varint overflows 64 bits or the
// type it is read as.
var ErrRange = errors.New("varint out of range")

// Reader is a bounds-checked cursor over varint-coded bytes. The first read
// that fails — it runs past the input (io.ErrUnexpectedEOF, or the error
// that ended the stream) or decodes out of range (ErrRange) — is kept as Err
// and empties the reader: every read after it returns zero, so a decoder
// checks Err once per record or section rather than once per field.
type Reader struct {
	buf []byte // the bytes in hand: the whole input, or src's buffered window
	n   int    // the decode position in buf
	err error
	// src is nil over a whole slice. Through a window, srcErr is why src's
	// last Peek came back short: the stream ends, or fails, after buf.
	src    *bufio.Reader
	srcErr error
}

// NewReader reads the whole of data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// NewStream reads src in place out of its buffer: the window of buffered
// bytes slides on whenever a read reaches its end, so a value is never
// split, and nothing is read from src beyond one buffer-full ahead.
func NewStream(src *bufio.Reader) *Reader { return &Reader{src: src} }

// Err is the reader's first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's failure, unless one is recorded already,
// and empties the reader. Decoders fail it with their own range checks.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.n = len(r.buf)
}

// Len is the number of bytes left in hand: over a whole slice, what remains
// of the input.
func (r *Reader) Len() int { return len(r.buf) - r.n }

// more is the slow path of a read that ran out of bytes in hand. Through a
// window that is not the stream's last it slides the window on and reports
// whether bytes arrived; otherwise it records the truncation.
func (r *Reader) more() bool {
	if r.err != nil {
		return false
	}
	if r.src != nil && r.srcErr == nil {
		rest := r.Len()
		r.src.Discard(r.n) // cannot fail: these bytes are buffered
		r.buf, r.srcErr = r.src.Peek(r.src.Size())
		r.n = 0
		if len(r.buf) > rest {
			return true
		}
	}
	if r.srcErr == nil || r.srcErr == io.EOF {
		r.Fail(io.ErrUnexpectedEOF)
	} else {
		r.Fail(r.srcErr)
	}
	return false
}

// uvarint decodes binary.Uvarint's encoding in place at the decode position
// — the same values, lengths, truncations and overflows, without slicing —
// and refuses (ErrRange) a value above max.
func (r *Reader) uvarint(max uint64) uint64 {
	for {
		var x uint64
		var s uint
		i := r.n
		for ; i < len(r.buf); i++ {
			c := r.buf[i]
			if s == 7*binary.MaxVarintLen64 { // an 11th byte
				break
			}
			if c < 0x80 {
				if s == 7*(binary.MaxVarintLen64-1) && c > 1 { // a 65th bit
					break
				}
				if x |= uint64(c) << s; x > max {
					break
				}
				r.n = i + 1
				return x
			}
			x |= uint64(c&0x7f) << s
			s += 7
		}
		if i < len(r.buf) { // the loop broke on a bad value
			r.Fail(ErrRange)
			return 0
		}
		if !r.more() {
			return 0
		}
	}
}

// Uvarint reads an unsigned varint, as binary.Uvarint does.
func (r *Reader) Uvarint() uint64 { return r.uvarint(math.MaxUint64) }

// Varint reads a zig-zag signed varint, as binary.Varint does.
func (r *Reader) Varint() int64 {
	ux := r.uvarint(math.MaxUint64)
	return int64(ux>>1) ^ -int64(ux&1)
}

// Int32 reads a signed varint that must fit an int32: zig-zag maps the
// int32 range onto exactly the uvarints up to MaxUint32.
func (r *Reader) Int32() int32 {
	ux := r.uvarint(math.MaxUint32)
	return int32(ux>>1) ^ -int32(ux&1)
}

// IDs reads n references into a table of bound items — signed varints in
// [0, bound) — and returns them when keep is set, or only checks them; the
// first outside the table fails the reader with what and the value. It is
// the structure codec's hot loop, so a value of up to three bytes (an ID
// below 2^20) wholly in hand is decoded in place, unrolled; any other takes
// uvarint's loop, which also refills the window.
func IDs[T ~int32](r *Reader, what string, n, bound int, keep bool) []T {
	var ids []T
	if keep && n > 0 {
		ids = make([]T, 0, n)
	}
	for j := 0; j < n; j++ {
		var x uint64
		if i := r.n; i+3 <= len(r.buf) && (r.buf[i] < 0x80 || r.buf[i+1] < 0x80 || r.buf[i+2] < 0x80) {
			c0, c1, c2 := uint64(r.buf[i]), uint64(r.buf[i+1]), uint64(r.buf[i+2])
			switch {
			case c0 < 0x80:
				x, r.n = c0, i+1
			case c1 < 0x80:
				x, r.n = c0&0x7f|c1<<7, i+2
			default:
				x, r.n = c0&0x7f|(c1&0x7f)<<7|c2<<14, i+3
			}
		} else if x = r.uvarint(math.MaxUint64); r.err != nil {
			return ids
		}
		v := int64(x>>1) ^ -int64(x&1)
		if v < 0 || v >= int64(bound) {
			r.Fail(fmt.Errorf("%s %d out of range", what, v))
			return ids
		}
		if keep {
			ids = append(ids, T(v))
		}
	}
	return ids
}

// Byte reads one byte.
func (r *Reader) Byte() (c byte) {
	if r.n < len(r.buf) || r.more() {
		c = r.buf[r.n]
		r.n++
	}
	return c
}

// Bytes reads the next k ≥ 0 bytes. Over a whole slice the result is a view
// of the input; through a window it may be a view of src's buffer, valid
// until the next read — callers copy what they keep. On failure it is nil.
func (r *Reader) Bytes(k int) []byte {
	if k <= r.Len() {
		r.n += k
		return r.buf[r.n-k : r.n : r.n]
	}
	return r.gather(k)
}

// gather collects k bytes across refills of the window as they arrive, so a
// length the stream does not back allocates no more than the bytes it has.
func (r *Reader) gather(k int) []byte {
	var out []byte
	for r.src != nil && r.err == nil {
		take := min(k-len(out), r.Len())
		out = append(out, r.buf[r.n:r.n+take]...)
		r.n += take
		if len(out) == k {
			return out
		}
		r.more()
	}
	r.more()
	return nil
}

// Count reads an unsigned varint count of items that take at least a byte
// each, refusing one above max or, over a whole slice, above the bytes left:
// a count is a claim, and one the input cannot back is refused here, before
// it can size an allocation.
func (r *Reader) Count(what string, max int) int {
	v := r.Uvarint()
	if v > uint64(max) || (r.src == nil && v > uint64(r.Len())) {
		r.Fail(fmt.Errorf("%s count %d too large", what, v))
		return 0
	}
	return int(v)
}

// Writer appends values with encoding/binary's Append functions to a buffer
// it hands to the underlying io.Writer whenever it reaches a chunk, so an
// encoder holds one chunk however long its output. The first write error is
// kept and reported by Flush.
type Writer struct {
	buf []byte
	w   io.Writer
	err error
}

// chunk is the size at which a Writer hands its buffer on.
const chunk = 64 << 10

// NewWriter returns a Writer onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{buf: make([]byte, 0, chunk+binary.MaxVarintLen64), w: w}
}

// Flush hands on whatever is buffered and reports the first write error.
func (w *Writer) Flush() error {
	if w.err == nil {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// spill flushes a buffer that has reached a chunk. A write error stays in
// w.err for the encoder's final Flush to report.
func (w *Writer) spill() {
	if len(w.buf) >= chunk {
		w.Flush()
	}
}

// Byte appends one byte.
func (w *Writer) Byte(v byte) {
	w.buf = append(w.buf, v)
	w.spill()
}

// Bool appends 1 for true, 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Bytes appends p as it is.
func (w *Writer) Bytes(p []byte) {
	w.buf = append(w.buf, p...)
	w.spill()
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
	w.spill()
}

// Varint appends a zig-zag signed varint.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
	w.spill()
}

// String appends s with its length as an unsigned varint before it.
func (w *Writer) String(s string) {
	w.buf = append(binary.AppendUvarint(w.buf, uint64(len(s))), s...)
	w.spill()
}
