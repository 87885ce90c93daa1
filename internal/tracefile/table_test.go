package tracefile

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/conformance"
	"charmtrace/internal/trace"
)

func encodeTable(t testing.TB, tab *trace.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes the checksum trailer after a test edited the body, so
// the edit reaches the parser instead of dying at the CRC.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.Checksum(body, castagnoli))
}

// TestTableRoundTripOnZoo: for every zoo trace the table survives its codec
// exactly, shares no column with the trace's own arrays, validates, and
// stays within the format's size target.
func TestTableRoundTripOnZoo(t *testing.T) {
	for _, w := range conformance.Zoo() {
		tr := w.MustGen()
		tab := tr.Table()
		if tab != tr.Table() {
			t.Fatalf("%s: Table() is not memoised", w.Name)
		}
		if err := tab.Validate(); err != nil {
			t.Fatalf("%s: built table does not validate: %v", w.Name, err)
		}
		data := encodeTable(t, tab)
		got, err := ReadTable(data)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !reflect.DeepEqual(got, tab) {
			t.Fatalf("%s: table changed in the round trip", w.Name)
		}
		for e := range tr.Events {
			if tab.Partner[e] != tr.MatchingSend(trace.EventID(e)) || tab.Chare[e] != tr.Events[e].Chare {
				t.Fatalf("%s: event %d columns disagree with the trace", w.Name, e)
			}
		}
		if n := tab.NumEvents(); n > 0 && len(data) > 16*n+64*tab.NumChares() {
			t.Errorf("%s: %d bytes for %d events (%.1f B/event), over the 16 B/event target", w.Name, len(data), n, float64(len(data))/float64(n))
		}
	}
}

// TestReadTableRejects: every way a table file can be wrong is an error —
// and with a valid checksum, so it is the parser that refuses.
func TestReadTableRejects(t *testing.T) {
	tr := jacobi.MustTrace(jacobi.DefaultConfig())
	good := encodeTable(t, tr.Table())
	mutate := func(f func(tab *trace.Table)) []byte {
		tab, err := ReadTable(good)
		if err != nil {
			t.Fatal(err)
		}
		f(tab)
		return encodeTable(t, tab)
	}
	firstRecv := 0
	for tr.Events[firstRecv].Kind != trace.Recv || tr.MatchingSend(trace.EventID(firstRecv)) == trace.NoEvent {
		firstRecv++
	}
	versionBumped := append([]byte(nil), good...)
	versionBumped[4] = 4 // zig-zag 2
	cases := map[string][]byte{
		"empty":           nil,
		"bad magic":       append([]byte("XTBL"), good[4:]...),
		"truncated":       good[:len(good)/2],
		"truncated+crc":   reseal(append([]byte(nil), good[:len(good)/2]...)),
		"bit flip":        append(append([]byte(nil), good[:40]...), append([]byte{good[40] ^ 1}, good[41:]...)...),
		"version":         reseal(versionBumped),
		"trailing bytes":  reseal(append(append([]byte(nil), good[:len(good)-4]...), 0, 0, 0, 0, 0)),
		"chare range":     mutate(func(tab *trace.Table) { tab.Chare[3] = trace.ChareID(tab.NumChares()) }),
		"chare negative":  mutate(func(tab *trace.Table) { tab.Chare[0] = -1 }),
		"pe range":        mutate(func(tab *trace.Table) { tab.PE[5] = trace.PE(tab.NumPE) }),
		"zero PEs":        mutate(func(tab *trace.Table) { tab.NumPE = 0 }),
		"partner a recv":  mutate(func(tab *trace.Table) { tab.Kind[tab.Partner[firstRecv]] = trace.Recv }),
		"partner range":   mutate(func(tab *trace.Table) { tab.Partner[firstRecv] = trace.EventID(tab.NumEvents()) }),
		"partner before":  mutate(func(tab *trace.Table) { tab.Partner[firstRecv] = -5 }),
		"time range":      mutate(func(tab *trace.Table) { tab.Time[1] = 1 << 62 }),
		"negative blocks": mutate(func(tab *trace.Table) { tab.Blocks = -1 }),
		"claims 2G events": reseal(append(append([]byte(nil), good[:5]...),
			binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(nil, 4), 1<<31-1), 1)...)),
	}
	for name, data := range cases {
		if tab, err := ReadTable(data); err == nil {
			t.Errorf("%s: accepted (%d events)", name, tab.NumEvents())
		}
	}
}

// allocatedBy reports the bytes f allocated: the least of three runs, since
// the counter is the process's and a fuzz worker has other goroutines.
func allocatedBy(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzReadTable: ReadTable never panics, never allocates more than a
// constant multiple of its input, and anything it accepts validates and
// re-encodes to a table that reads back equal. The checksum is resealed on
// every input so mutations reach the parser.
func FuzzReadTable(f *testing.F) {
	small := jacobi.DefaultConfig()
	small.Iterations, small.Grid = 2, 2
	for _, tr := range []*trace.Trace{jacobi.MustTrace(small), jacobi.MustTrace(jacobi.DefaultConfig())} {
		good := encodeTable(f, tr.Table())
		f.Add(good)
		f.Add(good[:len(good)/3])
	}
	f.Add([]byte("CTBL"))
	f.Add([]byte("CTBL\x02\x02\xfe\xff\xff\xff\x0f\x02\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 {
			data = reseal(append([]byte(nil), data...))
		}
		var tab *trace.Table
		var err error
		if got := allocatedBy(func() { tab, err = ReadTable(data) }); got > 1<<16+64*uint64(len(data)) {
			t.Fatalf("ReadTable allocated %d bytes for a %d-byte input", got, len(data))
		}
		if err != nil {
			return
		}
		if err := tab.Validate(); err != nil {
			t.Fatalf("accepted table does not validate: %v", err)
		}
		again, err := ReadTable(encodeTable(t, tab))
		if err != nil || !reflect.DeepEqual(again, tab) {
			t.Fatalf("accepted table does not round-trip (err %v)", err)
		}
	})
}
