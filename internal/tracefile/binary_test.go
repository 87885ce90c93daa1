package tracefile

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lulesh"
)

func TestBinaryRoundTrip(t *testing.T) {
	orig := jacobi.MustTrace(jacobi.DefaultConfig())
	var buf bytes.Buffer
	if err := WriteBinary(&buf, orig); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(got.Entries, orig.Entries) ||
		!reflect.DeepEqual(got.Chares, orig.Chares) ||
		!reflect.DeepEqual(got.Blocks, orig.Blocks) ||
		!reflect.DeepEqual(got.Events, orig.Events) ||
		!reflect.DeepEqual(got.Idles, orig.Idles) ||
		got.NumPE != orig.NumPE {
		t.Fatal("binary round trip changed the trace")
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	orig := lulesh.MustCharmTrace(lulesh.DefaultConfig())
	var text, bin bytes.Buffer
	if err := Write(&text, orig); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, orig); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= text.Len() {
		t.Fatalf("binary %d bytes not smaller than text %d", bin.Len(), text.Len())
	}
}

func TestReadAutoDetects(t *testing.T) {
	orig := jacobi.MustTrace(jacobi.DefaultConfig())
	var text, bin bytes.Buffer
	if err := Write(&text, orig); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, orig); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"text": &text, "binary": &bin} {
		got, err := ReadAuto(buf)
		if err != nil {
			t.Fatalf("%s: ReadAuto: %v", name, err)
		}
		if len(got.Events) != len(orig.Events) {
			t.Fatalf("%s: events = %d, want %d", name, len(got.Events), len(orig.Events))
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"CTR",                      // short magic
		"XXXX\x01\x00\x00\x00",     // wrong magic
		"CTRB\x09\x00\x00\x00",     // future version
		"CTRB\x01\x00\x00\x00\x01", // truncated body
	}
	for _, c := range cases {
		if _, err := ReadBinary(strings.NewReader(c)); err == nil {
			t.Fatalf("garbage accepted: %q", c)
		}
	}
}

func TestBinaryRejectsBadEventKind(t *testing.T) {
	buf := append([]byte(nil), binaryMagic[:]...)
	uv := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.AppendUvarint(buf, v)
		}
	}
	sv := func(vs ...int64) {
		for _, v := range vs {
			buf = binary.AppendVarint(buf, v)
		}
	}
	uv(binaryVersion, 1, 1) // version, numPE, entries
	sv(-1)
	buf = append(buf, 0)   // afterWhen
	uv(1)                  // name length
	buf = append(buf, 'e') // name
	uv(1)                  // chares
	sv(-1, -1)             // array, index
	buf = append(buf, 0)   // runtime
	sv(0)                  // home
	uv(1)                  // name length
	buf = append(buf, 'c') // name
	uv(1)                  // blocks
	sv(0, 0, 0, 0, 10)     // chare, pe, entry, begin, end
	uv(1)                  // events
	buf = append(buf, 99)  // invalid kind
	sv(5, 0, 0, 0, 0)      // time, chare, pe, msg, block
	uv(0)                  // idles
	if _, err := ReadBinary(bytes.NewReader(buf)); err == nil {
		t.Fatal("corrupt event kind accepted")
	}
}

// maxEventLen is the longest encoding of an event record: its kind byte and
// five varints, each padded to binary.MaxVarintLen64 bytes.
const maxEventLen = 1 + 5*binary.MaxVarintLen64
