package jsonw

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
)

// emit walks a value tree of the shapes encoding/json produces from
// any-typed data — map[string]any (keys sorted, nil → null), []any
// (nil → null), string, int64, float64, bool, nil — into the writer.
func emit(w *Writer, v any) {
	switch v := v.(type) {
	case nil:
		w.Null()
	case map[string]any:
		if v == nil {
			w.Null()
			return
		}
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Obj()
		for _, k := range keys {
			emit(w.Key(k), v[k])
		}
		w.End()
	case []any:
		if v == nil {
			w.Null()
			return
		}
		w.Arr()
		for _, e := range v {
			emit(w, e)
		}
		w.End()
	case string:
		w.Str(v)
	case int64:
		w.Int(v)
	case float64:
		w.Float(v)
	case bool:
		w.Bool(v)
	}
}

// render returns the writer's and the indenting Encoder's bytes for v.
func render(t testing.TB, v any) (got, want []byte) {
	t.Helper()
	var g, r bytes.Buffer
	w := New(context.Background(), &g)
	emit(w, v)
	if err := w.Close(); err != nil {
		t.Fatalf("writer: %v", err)
	}
	enc := json.NewEncoder(&r)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encoder: %v", err)
	}
	return g.Bytes(), r.Bytes()
}

// thresholdFloats straddle the places encoding/json changes notation.
var thresholdFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 100, 0.5, 1.0714285714285714,
	1e-6, 9.999999e-7, 1e-7, -1e-7, 1e21, 9.99999e20, -1e21, 1.5e300,
	math.SmallestNonzeroFloat64, math.MaxFloat64, 123456789.125, 1e-9, 2.5e-10,
}

func TestWriterMatchesEncoder(t *testing.T) {
	floats := make([]any, len(thresholdFloats))
	for i, f := range thresholdFloats {
		floats[i] = f
	}
	for name, v := range map[string]any{
		"scalar":     int64(-42),
		"string":     "plain",
		"empty obj":  map[string]any{},
		"empty arr":  []any{},
		"nil arr":    []any(nil),
		"nil obj":    map[string]any(nil),
		"floats":     floats,
		"ints":       []any{int64(math.MinInt64), int64(math.MaxInt64), int64(0)},
		"nested":     map[string]any{"a": []any{[]any{}, map[string]any{}, []any{[]any{int64(1)}}}, "b": nil, "": true},
		"deep":       deep(40),
		"escapes":    []any{"<script>&amp;", "q\"uo\\te", "tab\tnl\nnul\x00del\x7f", "\u2028\u2029", "caf\u00e9", "bad\xff\xfe", "\xc3", "\xed\xa0\x80", "ok ~ !#$%"},
		"hostilekey": map[string]any{"k<e>y": int64(1), "\xff": int64(2), "z\u2028": int64(3)},
	} {
		if got, want := render(t, v); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
}

func deep(n int) any {
	var v any = int64(7)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			v = []any{v, "x"}
		} else {
			v = map[string]any{"k": v, "l": false}
		}
	}
	return v
}

// TestLargeBodyFlushesInBoundedChunks: a body far past the flush threshold
// reaches the destination in writes of about that size, and is still the
// Encoder's bytes.
func TestLargeBodyFlushesInBoundedChunks(t *testing.T) {
	rows := make([]any, 20000)
	for i := range rows {
		rows[i] = map[string]any{"event": int64(i), "kind": "send", "name": "chare<" + strings.Repeat("x", i%7) + ">"}
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	enc.Encode(rows)
	var dst chunkRecorder
	w := New(context.Background(), &dst)
	emit(w, rows)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.buf.Bytes(), want.Bytes()) {
		t.Fatal("large body differs from the Encoder's")
	}
	if dst.max > flushAt+1024 || dst.writes < want.Len()/(flushAt+1024) {
		t.Errorf("%d bytes went out in %d writes, largest %d; want chunks of about %d", want.Len(), dst.writes, dst.max, flushAt)
	}
}

type chunkRecorder struct {
	buf         bytes.Buffer
	writes, max int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.writes++
	c.max = max(c.max, len(p))
	return c.buf.Write(p)
}

// failAfter accepts limit bytes, then fails every write.
type failAfter struct {
	limit, got, calls int
}

var errBroken = errors.New("broken pipe")

func (f *failAfter) Write(p []byte) (int, error) {
	f.calls++
	if f.got+len(p) > f.limit {
		return 0, errBroken
	}
	f.got += len(p)
	return len(p), nil
}

func TestStopsAtFirstWriteError(t *testing.T) {
	dst := &failAfter{limit: 2 * flushAt}
	w := New(context.Background(), dst)
	w.Arr()
	rows := 0
	for ; rows < 1_000_000 && w.Err() == nil; rows++ {
		w.Obj().Key("event").Int(int64(rows)).Key("kind").Str("recv").End()
	}
	w.End()
	if err := w.Close(); !errors.Is(err, errBroken) {
		t.Fatalf("Close = %v, want the destination's error", err)
	}
	if rows == 1_000_000 {
		t.Error("row loop polling Err ran to the end")
	}
	if calls := dst.calls; calls > 4 {
		t.Errorf("destination written %d times after it failed", calls)
	}
	if !w.Flushed() {
		t.Error("Flushed false after bytes went out")
	}
}

func TestStopsWhenContextDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var dst bytes.Buffer
	w := New(ctx, &dst)
	w.Obj().Key("a").Int(1).End()
	if err := w.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
	if dst.Len() != 0 || w.Flushed() {
		t.Errorf("wrote %d bytes for a cancelled context (flushed=%v)", dst.Len(), w.Flushed())
	}
}

func TestNaNIsAnError(t *testing.T) {
	var dst bytes.Buffer
	w := New(context.Background(), &dst)
	w.Arr().Float(math.NaN()).End()
	if err := w.Close(); err == nil {
		t.Fatal("NaN rendered without error")
	}
	if dst.Len() != 0 {
		t.Errorf("wrote %q after an unrenderable value", dst.Bytes())
	}
}

// ---- fuzzing -------------------------------------------------------------

// treeFrom decodes fuzz input into a value tree: one opcode byte per node,
// operands following, depth-limited; exhausted input yields nil leaves.
func treeFrom(data *[]byte, depth int) any {
	next := func(n int) []byte {
		d := *data
		if len(d) < n {
			n = len(d)
		}
		*data = d[n:]
		return d[:n]
	}
	op := next(1)
	if len(op) == 0 {
		return nil
	}
	kind := op[0] % 10
	if depth > 6 && kind >= 8 {
		kind %= 8
	}
	switch kind {
	case 0:
		return nil
	case 1:
		return op[0]&16 != 0
	case 2:
		var b [8]byte
		copy(b[:], next(8))
		return int64(binary.LittleEndian.Uint64(b[:]))
	case 3:
		var b [8]byte
		copy(b[:], next(8))
		f := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 0
		}
		return f
	case 4:
		return thresholdFloats[int(op[0]/10)%len(thresholdFloats)]
	case 5, 6:
		n := next(1)
		if len(n) == 0 {
			return ""
		}
		return string(next(int(n[0]) % 24))
	case 7:
		if op[0]&16 != 0 {
			return []any(nil)
		}
		return map[string]any(nil)
	case 8:
		n := int(op[0]/10) % 5
		arr := make([]any, 0, n)
		for i := 0; i < n; i++ {
			arr = append(arr, treeFrom(data, depth+1))
		}
		return arr
	default:
		n := int(op[0]/10) % 5
		obj := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k, _ := treeFrom(data, 7).(string) // depth 7: leaves only
			obj[k] = treeFrom(data, depth+1)
		}
		return obj
	}
}

// FuzzJSONWriter holds the writer to json.Encoder + SetIndent("", "  ")
// over random value trees: nested empty containers, nil slices and maps,
// floats across the notation thresholds, escaped and invalid strings.
func FuzzJSONWriter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 8, 18, 9, 19})                              // nested empty arrays and objects
	f.Add([]byte{48, 4, 14, 24, 34})                            // threshold floats in an array
	f.Add([]byte{38, 74, 84, 94, 104, 114, 124, 134, 144, 154}) // more of them
	f.Add([]byte{29, 5, 3, '<', '>', '&', 2, 1, 2, 3, 4, 5, 6, 7, 8, 5, 2, 0xff, 0xfe, 7, 23})
	f.Add([]byte{18, 5, 4, 0xe2, 0x80, 0xa8, '"', 6, 3, '\\', '\n', 0x7f})
	f.Add([]byte{28, 3, 0, 0, 0, 0, 0, 0, 0, 0x80, 3, 0x8d, 0xed, 0xb5, 0xa0, 0xf7, 0xc6, 0xb0, 0x3e, 3, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := treeFrom(&data, 0)
		if got, want := render(t, v); !bytes.Equal(got, want) {
			t.Fatalf("tree %#v:\n got %q\nwant %q", v, got, want)
		}
	})
}
