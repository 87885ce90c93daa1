package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/conformance"
	"charmtrace/internal/trace"
)

func encodeBinary(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func jacobiTrace(grid, iterations int) *trace.Trace {
	cfg := jacobi.DefaultConfig()
	cfg.Grid, cfg.Iterations = grid, iterations
	return jacobi.MustTrace(cfg)
}

func plain(r io.Reader) io.Reader { return r }

// TestBinaryDecoderMatchesReferenceOnZoo: the windowed decoder and the
// field-by-field one decode the nine conformance workloads identically,
// also when the bytes arrive one at a time, in halves, or with the final
// read carrying its error — which moves where windows begin and end.
func TestBinaryDecoderMatchesReferenceOnZoo(t *testing.T) {
	wraps := map[string]func(io.Reader) io.Reader{
		"plain": plain, "one byte": iotest.OneByteReader, "half": iotest.HalfReader, "data+err": iotest.DataErrReader,
	}
	for _, w := range conformance.Zoo() {
		data := encodeBinary(t, w.MustGen())
		for name, wrap := range wraps {
			if !checkDecodersAgree(t, data, wrap) {
				t.Fatalf("%s (%s): valid trace rejected", w.Name, name)
			}
		}
	}
}

// paddedBinary serializes tr like WriteBinary but pads every varint of the
// block, event and idle sections to binary.MaxVarintLen64 bytes — legal, and
// the longest a record can be, which is what the decoder sizes its window
// requests by.
func paddedBinary(t *testing.T, tr *trace.Trace) []byte {
	var head bytes.Buffer
	if err := WriteBinary(&head, &trace.Trace{NumPE: tr.NumPE, Chares: tr.Chares, Entries: tr.Entries}); err != nil {
		t.Fatal(err)
	}
	out := head.Bytes()[:head.Len()-3] // drop the three empty section counts
	pad := func(v int64) {
		ux := uint64(v<<1) ^ uint64(v>>63)
		for i := 0; i < binary.MaxVarintLen64-1; i++ {
			out = append(out, byte(ux)|0x80)
			ux >>= 7
		}
		out = append(out, byte(ux))
	}
	out = binary.AppendUvarint(out, uint64(len(tr.Blocks)))
	for _, b := range tr.Blocks {
		for _, v := range []int64{int64(b.Chare), int64(b.PE), int64(b.Entry), int64(b.Begin), int64(b.End)} {
			pad(v)
		}
	}
	out = binary.AppendUvarint(out, uint64(len(tr.Events)))
	for _, ev := range tr.Events {
		out = append(out, byte(ev.Kind))
		for _, v := range []int64{int64(ev.Time), int64(ev.Chare), int64(ev.PE), int64(ev.Msg), int64(ev.Block)} {
			pad(v)
		}
	}
	out = binary.AppendUvarint(out, uint64(len(tr.Idles)))
	for _, idle := range tr.Idles {
		for _, v := range []int64{int64(idle.PE), int64(idle.Begin), int64(idle.End)} {
			pad(v)
		}
	}
	return out
}

// TestBinaryDecoderMatchesReferenceOnHostileEncodings walks the
// neighbourhood of a valid trace: every truncation, a few thousand
// single-byte corruptions, and the maximally padded encoding cut at every
// offset of its tail (so the last window of the stream ends inside each
// field in turn).
func TestBinaryDecoderMatchesReferenceOnHostileEncodings(t *testing.T) {
	small := jacobiTrace(2, 2)
	data := encodeBinary(t, small)
	for n := 0; n < len(data); n++ {
		if checkDecodersAgree(t, data[:n], plain) {
			t.Fatalf("truncation at %d/%d bytes accepted", n, len(data))
		}
	}

	rng := rand.New(rand.NewSource(7))
	accepted := 0
	for i := 0; i < 5000; i++ {
		c := append([]byte(nil), data...)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			c[4+rng.Intn(len(c)-4)] = byte(rng.Intn(256))
		}
		if checkDecodersAgree(t, c, plain) {
			accepted++
		}
	}
	if accepted == 0 || accepted == 5000 {
		t.Fatalf("corruptions: %d of 5000 accepted; the domain exercises one side only", accepted)
	}

	padded := paddedBinary(t, small)
	if !checkDecodersAgree(t, padded, plain) || !checkDecodersAgree(t, padded, iotest.OneByteReader) {
		t.Fatal("padded encoding rejected")
	}
	for n := len(padded) - 2*maxEventLen; n < len(padded); n++ {
		if checkDecodersAgree(t, padded[:n], plain) {
			t.Fatalf("padded encoding truncated at %d/%d bytes accepted", n, len(padded))
		}
	}
	overflow := append([]byte(nil), padded...)
	overflow[len(overflow)-1] = 2 // the last idle's End now needs a 65th bit
	if checkDecodersAgree(t, overflow, plain) {
		t.Fatal("overflowing varint accepted")
	}
}

// hugeSection is a binary body with no entries or chares whose block (or,
// with no blocks, event) section claims 2^31-1 records and then delivers a
// handful of bytes.
func hugeSection(events bool) []byte {
	body := append([]byte(nil), binaryMagic[:]...)
	body = append(body, binaryVersion, 1 /* numPE */, 0 /* entries */, 0 /* chares */)
	if events {
		body = append(body, 0 /* blocks */)
	}
	body = binary.AppendUvarint(body, 1<<31-1)
	for len(body) < 20 {
		body = append(body, 0)
	}
	return body
}

// TestSectionCountsDoNotDriveAllocation: a section count is untrusted. A
// 20-byte body claiming 2^31-1 blocks, or events, must be refused having
// allocated next to nothing — the MaxPE lesson applied to pre-sizing.
func TestSectionCountsDoNotDriveAllocation(t *testing.T) {
	for name, body := range map[string][]byte{"blocks": hugeSection(false), "events": hugeSection(true)} {
		if len(body) != 20 {
			t.Fatalf("%s: body is %d bytes, want 20", name, len(body))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadAuto(bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
			t.Errorf("%s: refusing a 20-byte body allocated %d bytes", name, got)
		}
	}
}

// TestDecodeAllocationsDoNotScaleWithEvents is the tripwire for a per-event
// append creeping back into the decoder or the index: four times the
// events may cost a few more slice doublings, nothing else.
func TestDecodeAllocationsDoNotScaleWithEvents(t *testing.T) {
	allocs := func(iterations int) (float64, int) {
		tr := jacobiTrace(8, iterations) // 1.5k and 6k events: the larger crosses initialCap
		data := encodeBinary(t, tr)
		return testing.AllocsPerRun(10, func() {
			if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}), len(tr.Events)
	}
	few, fewEvents := allocs(2)
	many, manyEvents := allocs(8)
	if manyEvents < 3*fewEvents {
		t.Fatalf("8 iterations have %d events against %d for 2: not a scaling test", manyEvents, fewEvents)
	}
	if many-few > 16 {
		t.Errorf("decoding %d events took %.0f allocations, %d events %.0f: the count scales with events", fewEvents, few, manyEvents, many)
	}
}
