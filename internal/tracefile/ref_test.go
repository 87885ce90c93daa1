package tracefile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"testing"

	"charmtrace/internal/trace"
)

// refReadBinary is the decoder ReadBinary was before it went flat: every
// field through the io.ByteReader interface, one append per record, one
// append per event onto its block's list. It is kept as the oracle for the
// windowed decoder (DESIGN.md §6): the two must accept the same inputs and,
// on those, produce equal traces.
func refReadBinary(r io.Reader) (*trace.Trace, error) {
	b := &refReader{r: bufio.NewReader(r)}
	var magic [4]byte
	if _, err := io.ReadFull(b.r, magic[:]); err != nil {
		return nil, err
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("bad binary magic %q", magic[:])
	}
	if v := b.u32(); v != binaryVersion {
		if b.err == nil {
			return nil, fmt.Errorf("unsupported binary version %d", v)
		}
	}
	t := &trace.Trace{NumPE: int(b.u32())}
	if b.err == nil && t.NumPE > MaxPE {
		return nil, fmt.Errorf("pe count %d out of range", t.NumPE)
	}
	for i, n := 0, b.count(); i < n && b.err == nil; i++ {
		e := trace.Entry{ID: trace.EntryID(i)}
		e.SDAGSerial = int(b.i32())
		e.AfterWhen = b.u8() != 0
		e.Name = b.str()
		t.Entries = append(t.Entries, e)
	}
	for i, n := 0, b.count(); i < n && b.err == nil; i++ {
		c := trace.Chare{ID: trace.ChareID(i)}
		c.Array = trace.ArrayID(b.i32())
		c.Index = int(b.i32())
		c.Runtime = b.u8() != 0
		c.Home = trace.PE(b.i32())
		c.Name = b.str()
		t.Chares = append(t.Chares, c)
	}
	for i, n := 0, b.count(); i < n && b.err == nil; i++ {
		blk := trace.Block{ID: trace.BlockID(i)}
		blk.Chare = trace.ChareID(b.i32())
		blk.PE = trace.PE(b.i32())
		blk.Entry = trace.EntryID(b.i32())
		blk.Begin = trace.Time(b.i64())
		blk.End = trace.Time(b.i64())
		t.Blocks = append(t.Blocks, blk)
	}
	for i, n := 0, b.count(); i < n && b.err == nil; i++ {
		ev := trace.Event{ID: trace.EventID(i)}
		ev.Kind = trace.EventKind(b.u8())
		ev.Time = trace.Time(b.i64())
		ev.Chare = trace.ChareID(b.i32())
		ev.PE = trace.PE(b.i32())
		ev.Msg = trace.MsgID(b.i64())
		ev.Block = trace.BlockID(b.i32())
		if b.err == nil {
			if ev.Kind != trace.Send && ev.Kind != trace.Recv {
				return nil, fmt.Errorf("event %d has unknown kind %d", i, ev.Kind)
			}
			if ev.Block < 0 || int(ev.Block) >= len(t.Blocks) {
				return nil, fmt.Errorf("event %d references unknown block %d", i, ev.Block)
			}
			t.Events = append(t.Events, ev)
			t.Blocks[ev.Block].Events = append(t.Blocks[ev.Block].Events, ev.ID)
		}
	}
	for i, n := 0, b.count(); i < n && b.err == nil; i++ {
		idle := trace.Idle{}
		idle.PE = trace.PE(b.i32())
		idle.Begin = trace.Time(b.i64())
		idle.End = trace.Time(b.i64())
		t.Idles = append(t.Idles, idle)
	}
	if b.err != nil {
		return nil, b.err
	}
	if err := t.Index(); err != nil {
		return nil, err
	}
	return t, nil
}

type refReader struct {
	r   *bufio.Reader
	err error
}

func (b *refReader) u8() uint8 {
	if b.err != nil {
		return 0
	}
	v, err := b.r.ReadByte()
	b.err = err
	return v
}

func (b *refReader) u32() uint32 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(b.r)
	b.err = err
	if err == nil && v > math.MaxUint32 {
		b.err = fmt.Errorf("uvarint %d exceeds uint32", v)
	}
	return uint32(v)
}

func (b *refReader) i32() int32 {
	v := b.i64()
	if b.err == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		b.err = fmt.Errorf("varint %d exceeds int32", v)
	}
	return int32(v)
}

func (b *refReader) i64() int64 {
	if b.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(b.r)
	b.err = err
	return v
}

func (b *refReader) str() string {
	n := b.u32()
	if b.err != nil {
		return ""
	}
	if n > 1<<24 {
		b.err = fmt.Errorf("string length %d too large", n)
		return ""
	}
	buf := make([]byte, n)
	_, b.err = io.ReadFull(b.r, buf)
	return string(buf)
}

func (b *refReader) count() int {
	n := b.u32()
	if b.err == nil && n > math.MaxInt32 {
		b.err = fmt.Errorf("count %d too large", n)
	}
	return int(n)
}

// checkDecodersAgree decodes data (which must open with the binary magic)
// with ReadBinary and with refReadBinary through the reader wrap builds —
// identity for the plain case, a one-byte-at-a-time or erroring reader to
// move the window edges — and fails unless they agree on accept/reject and,
// when accepting, on every exported Trace field and every index lookup,
// the latter also against maps built here from the decoded events. It
// reports whether the input was accepted.
func checkDecodersAgree(t *testing.T, data []byte, wrap func(io.Reader) io.Reader) bool {
	t.Helper()
	got, err := ReadBinary(wrap(bytes.NewReader(data)))
	want, refErr := refReadBinary(wrap(bytes.NewReader(data)))
	if (err == nil) != (refErr == nil) {
		t.Fatalf("ReadBinary err = %v, reference err = %v", err, refErr)
	}
	if err != nil {
		return false
	}
	if got.NumPE != want.NumPE ||
		!reflect.DeepEqual(got.Chares, want.Chares) || !reflect.DeepEqual(got.Entries, want.Entries) ||
		!reflect.DeepEqual(got.Blocks, want.Blocks) || !reflect.DeepEqual(got.Events, want.Events) ||
		!reflect.DeepEqual(got.Idles, want.Idles) {
		t.Fatal("decoders accepted the input but decoded different traces")
	}

	sendOf := make(map[trace.MsgID]trace.EventID)
	recvsOf := make(map[trace.MsgID][]trace.EventID)
	for _, ev := range want.Events {
		switch {
		case ev.Msg == trace.NoMsg:
		case ev.Kind == trace.Send:
			sendOf[ev.Msg] = ev.ID
		default:
			recvsOf[ev.Msg] = append(recvsOf[ev.Msg], ev.ID)
		}
	}
	for _, ev := range want.Events {
		for _, m := range []trace.MsgID{ev.Msg, ev.Msg + 1} {
			send, ok := sendOf[m]
			if !ok {
				send = trace.NoEvent
			}
			if got.SendOf(m) != send || want.SendOf(m) != send {
				t.Fatalf("SendOf(%d) = %d (reference decode %d), events say %d", m, got.SendOf(m), want.SendOf(m), send)
			}
			if !reflect.DeepEqual(got.RecvsOf(m), recvsOf[m]) || !reflect.DeepEqual(want.RecvsOf(m), recvsOf[m]) {
				t.Fatalf("RecvsOf(%d) = %v (reference decode %v), events say %v", m, got.RecvsOf(m), want.RecvsOf(m), recvsOf[m])
			}
		}
		var recvs []trace.EventID
		if ev.Kind == trace.Send && ev.Msg != trace.NoMsg {
			recvs = recvsOf[ev.Msg]
		}
		if !reflect.DeepEqual(got.MatchingRecvs(ev.ID), recvs) || !reflect.DeepEqual(want.MatchingRecvs(ev.ID), recvs) {
			t.Fatalf("MatchingRecvs(%d) = %v (reference decode %v), events say %v", ev.ID, got.MatchingRecvs(ev.ID), want.MatchingRecvs(ev.ID), recvs)
		}
	}
	rows := func(n int, key func(*trace.Block) int) [][]trace.BlockID {
		out := make([][]trace.BlockID, n)
		for i := range want.Blocks {
			k := key(&want.Blocks[i])
			out[k] = append(out[k], trace.BlockID(i))
		}
		for _, ids := range out {
			sort.Slice(ids, func(i, j int) bool {
				bi, bj := &want.Blocks[ids[i]], &want.Blocks[ids[j]]
				if bi.Begin != bj.Begin {
					return bi.Begin < bj.Begin
				}
				return ids[i] < ids[j]
			})
		}
		return out
	}
	for c, ids := range rows(len(want.Chares), func(b *trace.Block) int { return int(b.Chare) }) {
		if !reflect.DeepEqual(got.BlocksOfChare(trace.ChareID(c)), ids) {
			t.Fatalf("BlocksOfChare(%d) = %v, blocks say %v", c, got.BlocksOfChare(trace.ChareID(c)), ids)
		}
	}
	for pe, ids := range rows(want.NumPE, func(b *trace.Block) int { return int(b.PE) }) {
		if !reflect.DeepEqual(got.BlocksOfPE(trace.PE(pe)), ids) {
			t.Fatalf("BlocksOfPE(%d) = %v, blocks say %v", pe, got.BlocksOfPE(trace.PE(pe)), ids)
		}
	}
	return true
}
