// Package jsonw is an append-style writer for the one JSON layout charmd's
// row-shaped responses use: what encoding/json's Encoder emits under
// SetIndent("", "  ") — every member and element on its own line, two spaces
// per depth, "[]" and "{}" for empty containers, one trailing newline. The
// caller walks its own typed columns and names each value; nothing is boxed,
// reflected over, or rendered compact first and indented after.
//
// Identity with encoding/json is by construction, not re-implementation:
// integers, booleans and printable-ASCII strings free of JSON- and
// HTML-significant bytes have one rendering and are appended directly; every
// float, and every string with anything else in it (quotes, control bytes,
// <, >, &, any non-ASCII byte, valid UTF-8 or not), goes to json.Marshal as
// that one value.
package jsonw

import (
	"context"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// flushAt is how many buffered bytes trigger a write to the destination:
// long runs for a compressor behind it, small against a 500 KB body.
const flushAt = 32 << 10

// Writer renders one JSON value to dst. Its methods chain. After the first
// failed write, or once ctx is done, everything further is dropped, so a
// loop over rows need only poll Err.
type Writer struct {
	ctx      context.Context
	dst      io.Writer
	buf      []byte
	err      error
	flushed  bool
	afterKey bool
	open     []frame // the containers not yet closed, outermost first
}

type frame struct {
	closer byte
	n      int // members or elements so far
}

var bufPool = sync.Pool{New: func() any { return make([]byte, 0, flushAt+1024) }}

func New(ctx context.Context, dst io.Writer) *Writer {
	return &Writer{ctx: ctx, dst: dst, buf: bufPool.Get().([]byte)}
}

// Err is the first write error, or the context's once it was seen done.
func (w *Writer) Err() error { return w.err }

// Flushed reports whether a write to the destination has been attempted —
// for an HTTP response, whether the status line is committed.
func (w *Writer) Flushed() bool { return w.flushed }

func (w *Writer) flush() {
	if w.err == nil {
		w.err = w.ctx.Err()
	}
	if w.err == nil {
		w.flushed = true
		_, w.err = w.dst.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Close ends the document with the Encoder's trailing newline, writes out
// what is buffered and returns Err.
func (w *Writer) Close() error {
	w.buf = append(w.buf, '\n')
	w.flush()
	bufPool.Put(w.buf)
	w.buf = nil
	return w.err
}

func (w *Writer) newline() {
	w.buf = append(w.buf, '\n')
	for range w.open {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// next positions the writer for one more value — nothing after a key or at
// the top level, otherwise the separating comma and a fresh line — and
// returns the buffer to append the value to; put stores the result.
func (w *Writer) next() []byte {
	if len(w.buf) >= flushAt {
		w.flush()
	}
	if d := len(w.open); w.afterKey {
		w.afterKey = false
	} else if d > 0 {
		if w.open[d-1].n > 0 {
			w.buf = append(w.buf, ',')
		}
		w.open[d-1].n++
		w.newline()
	}
	return w.buf
}

func (w *Writer) put(buf []byte) *Writer {
	w.buf = buf
	return w
}

// Obj opens an object: Key then a value adds each member, End closes it.
func (w *Writer) Obj() *Writer { return w.begin('{', '}') }

// Arr opens an array: each value until End is an element. One closed empty
// renders "[]"; a nil slice is Null.
func (w *Writer) Arr() *Writer { return w.begin('[', ']') }

func (w *Writer) begin(opener, closer byte) *Writer {
	buf := append(w.next(), opener)
	w.open = append(w.open, frame{closer: closer})
	return w.put(buf)
}

// End closes the innermost open container.
func (w *Writer) End() *Writer {
	f := w.open[len(w.open)-1]
	w.open = w.open[:len(w.open)-1]
	if f.n > 0 {
		w.newline()
	}
	return w.put(append(w.buf, f.closer))
}

// Key names the next value as a member of the open object.
func (w *Writer) Key(k string) *Writer {
	w.Str(k)
	w.afterKey = true
	return w.put(append(w.buf, ": "...))
}

func (w *Writer) Int(v int64) *Writer { return w.put(strconv.AppendInt(w.next(), v, 10)) }
func (w *Writer) Bool(v bool) *Writer { return w.put(strconv.AppendBool(w.next(), v)) }
func (w *Writer) Null() *Writer       { return w.put(append(w.next(), "null"...)) }

// Float writes v as encoding/json does. NaN and the infinities have no
// JSON form: they become the writer's error, as they are json.Marshal's.
func (w *Writer) Float(v float64) *Writer { return w.marshal(w.next(), v) }

func (w *Writer) Str(s string) *Writer {
	buf := w.next()
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return w.marshal(buf, s)
		}
	}
	return w.put(append(append(append(buf, '"'), s...), '"'))
}

func (w *Writer) marshal(buf []byte, v any) *Writer {
	b, err := json.Marshal(v)
	if err != nil && w.err == nil {
		w.err = err
	}
	return w.put(append(buf, b...))
}
