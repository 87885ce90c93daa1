package varint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"
)

// sources are the ways a stream can hand its bytes to the window: whole,
// one at a time, in halves, or with the final read carrying its error.
var sources = []func(io.Reader) io.Reader{
	func(r io.Reader) io.Reader { return r },
	iotest.OneByteReader, iotest.HalfReader, iotest.DataErrReader,
}

// FuzzVarint holds the Reader to encoding/binary. The bytes are read as a
// sequence of varints — unsigned, signed or int32 as the bits of kinds say —
// each followed by one raw byte, which pins the decode position. Every value
// and length must agree with binary.Uvarint / binary.Varint, and the read
// must fail short (io.ErrUnexpectedEOF) exactly where those return 0 and out
// of range (ErrRange) exactly where they return less (or, for an int32,
// where the value does not fit). The same bytes read as one list of IDs
// must give binary.Varint's values up to the first failure (checkIDs). Both
// run over the whole slice and through a window of fuzzed size refilled from
// each kind of source.
func FuzzVarint(f *testing.F) {
	f.Add([]byte{0x01, 0x7f, 0x80, 0x01, 0x05}, uint64(0b1001), uint16(0), uint8(0))
	f.Add(binary.AppendUvarint(nil, math.MaxUint64), uint64(0), uint16(3), uint8(1))
	f.Add(binary.AppendVarint(nil, math.MinInt32-1), uint64(0b10), uint16(0), uint8(2))
	f.Add(bytes.Repeat([]byte{0xff}, 10), uint64(0), uint16(0), uint8(3))                      // ten continuation bytes, then the end
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x02), uint64(0), uint16(0), uint8(0))         // a 65th bit
	f.Add(append(bytes.Repeat([]byte{0x80}, 10), 0x00), uint64(0), uint16(0), uint8(0))        // an 11th byte
	f.Add(bytes.Repeat([]byte{0x81, 0x01, 0x7f}, 40), uint64(0x5a5a5a5a), uint16(5), uint8(1)) // crosses windows
	// References of one to four bytes, then one at the table's bound.
	var ids []byte
	for _, v := range []int64{0, 1, 63, 64, 8191, 8192, 1<<20 - 1, 1 << 20, 1<<21 - 1, 5, 1<<21 - 1, 1 << 21} {
		ids = binary.AppendVarint(ids, v)
	}
	f.Add(ids, uint64(1<<21-1), uint16(3), uint8(0))
	f.Add(ids, uint64(1<<21-1), uint16(40), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kinds uint64, size uint16, src uint8) {
		window := func() *Reader {
			return NewStream(bufio.NewReaderSize(sources[int(src)%len(sources)](bytes.NewReader(data)), 16+int(size)%64))
		}
		check(t, "slice", NewReader(data), data, kinds)
		check(t, "window", window(), data, kinds)
		bound := 1 + int(kinds%(1<<21)) // IDs of one to four bytes
		checkIDs(t, "slice", NewReader(data), data, bound)
		checkIDs(t, "window", window(), data, bound)
	})
}

// checkIDs reads data as one list of references into a table of bound items
// and holds IDs to binary.Varint: the same values up to the first read that
// is short, out of range or outside the table, and there the same failure.
func checkIDs(t *testing.T, mode string, r *Reader, data []byte, bound int) {
	t.Helper()
	var want []int32
	var fail error
	for off := 0; fail == nil; {
		v, k := binary.Varint(data[off:])
		switch {
		case k == 0:
			fail = io.ErrUnexpectedEOF
		case k < 0:
			fail = ErrRange
		case v < 0 || v >= int64(bound):
			fail = errOutside
		default:
			want = append(want, int32(v))
			off += k
		}
	}
	got := IDs[int32](r, "id", len(want)+1, bound, true)
	switch err := r.Err(); {
	case !slices.Equal(got, want):
		t.Fatalf("%s: IDs read %v, binary.Varint %v", mode, got, want)
	case fail == errOutside && (err == nil || errors.Is(err, ErrRange) || errors.Is(err, io.ErrUnexpectedEOF)):
		t.Fatalf("%s: IDs err %v, want one naming a reference outside the table", mode, err)
	case fail != errOutside && !errors.Is(err, fail):
		t.Fatalf("%s: IDs err %v, want %v", mode, err, fail)
	}
}

// errOutside stands for the error IDs makes of a value outside its table.
var errOutside = errors.New("outside the table")

func check(t *testing.T, mode string, r *Reader, data []byte, kinds uint64) {
	t.Helper()
	for i, off := 0, 0; ; i++ {
		var got, want uint64
		var k int
		switch kind := kinds >> (2 * (i % 32)) & 3; kind {
		case 1, 2:
			v, n := binary.Varint(data[off:])
			want, k = uint64(v), n
			if kind == 1 {
				got = uint64(r.Varint())
			} else {
				got = uint64(int64(r.Int32()))
				if k > 0 && v != int64(int32(v)) {
					k = -1 // decodes, but not to an int32
				}
			}
		default:
			want, k = binary.Uvarint(data[off:])
			got = r.Uvarint()
		}
		switch {
		case k == 0:
			if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
				t.Fatalf("%s: read %d at offset %d: err %v, want a short read", mode, i, off, r.Err())
			}
			return
		case k < 0:
			if !errors.Is(r.Err(), ErrRange) {
				t.Fatalf("%s: read %d at offset %d: err %v, want ErrRange", mode, i, off, r.Err())
			}
			return
		case r.Err() != nil || got != want:
			t.Fatalf("%s: read %d at offset %d: %d (err %v), want %d", mode, i, off, got, r.Err(), want)
		}
		if off += k; off < len(data) {
			if c := r.Byte(); r.Err() != nil || c != data[off] {
				t.Fatalf("%s: byte after read %d: %#x (err %v), want %#x at offset %d", mode, i, c, r.Err(), data[off], off)
			}
			off++
		}
	}
}

// TestBytesAcrossWindows: a string longer than the window arrives whole, and
// one the stream does not back fails short having allocated about what
// arrived, not what was claimed.
func TestBytesAcrossWindows(t *testing.T) {
	long := bytes.Repeat([]byte("0123456789abcdef"), 100)
	data := append(binary.AppendUvarint(nil, uint64(len(long))), long...)
	r := NewStream(bufio.NewReaderSize(bytes.NewReader(data), 16))
	if got := r.Bytes(r.Count("string byte", 1<<20)); r.Err() != nil || !bytes.Equal(got, long) {
		t.Fatalf("string across windows: %d bytes (err %v), want %d", len(got), r.Err(), len(long))
	}

	unbacked := append(binary.AppendUvarint(nil, 1<<30), long...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r = NewStream(bufio.NewReader(bytes.NewReader(unbacked)))
	got := r.Bytes(r.Count("string byte", 1<<30))
	runtime.ReadMemStats(&after)
	if got != nil || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("unbacked string: %d bytes, err %v, want a short read", len(got), r.Err())
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("a 1 GiB claim over %d bytes allocated %d bytes", len(long), n)
	}

	r = NewReader(data[:len(data)-1])
	if r.Count("string byte", 1<<20); r.Err() == nil {
		t.Fatal("a count above the bytes left was accepted over a whole slice")
	}
}

// failWriter fails every write after its first.
type failWriter struct{ writes int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes > 1 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

// TestWriterMatchesAppend: the Writer's output is exactly the values
// appended with encoding/binary, handed on in chunks of at most a chunk and
// a value, and the first write error is what Flush reports.
func TestWriterMatchesAppend(t *testing.T) {
	var want []byte
	var out bytes.Buffer
	w := NewWriter(&out)
	for i := int64(0); len(want) < 3*chunk; i++ {
		v := i * i * 7919 * (1 - 2*(i&1))
		want = binary.AppendVarint(binary.AppendUvarint(append(want, byte(i)), uint64(i)<<(i%50)), v)
		w.Byte(byte(i))
		w.Uvarint(uint64(i) << (i % 50))
		w.Varint(v)
		if len(w.buf) > chunk {
			t.Fatalf("buffer at %d bytes, over the %d-byte chunk", len(w.buf), chunk)
		}
	}
	want = append(binary.AppendUvarint(append(want, 1, 0), 5), "hello"...)
	w.Bool(true)
	w.Bool(false)
	w.String("hello")
	if err := w.Flush(); err != nil || !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("Writer wrote %d bytes (err %v), encoding/binary %d", out.Len(), err, len(want))
	}

	w = NewWriter(&failWriter{})
	for i := 0; i < 3*chunk; i++ {
		w.Byte(0)
	}
	if err := w.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Flush after a failed write: err %v", err)
	}
}
