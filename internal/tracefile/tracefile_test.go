package tracefile

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/conformance"
	"charmtrace/internal/trace"
)

func TestRoundTrip(t *testing.T) {
	orig := jacobi.MustTrace(jacobi.DefaultConfig())
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumPE != orig.NumPE {
		t.Fatalf("NumPE = %d, want %d", got.NumPE, orig.NumPE)
	}
	if !reflect.DeepEqual(got.Entries, orig.Entries) {
		t.Fatal("entries differ after round trip")
	}
	if !reflect.DeepEqual(got.Chares, orig.Chares) {
		t.Fatal("chares differ after round trip")
	}
	if !reflect.DeepEqual(got.Blocks, orig.Blocks) {
		t.Fatal("blocks differ after round trip")
	}
	if !reflect.DeepEqual(got.Events, orig.Events) {
		t.Fatal("events differ after round trip")
	}
	if !reflect.DeepEqual(got.Idles, orig.Idles) {
		t.Fatal("idles differ after round trip")
	}
	if !got.Indexed() {
		t.Fatal("read trace not indexed")
	}
}

// TestRoundTripOnZoo: each of the nine conformance workloads, written in
// either format and read back through ReadAutoDigest, is the original record
// for record (compared via the canonical text serialization), indexed, and
// addressed by the digest of exactly the bytes it was read from.
func TestRoundTripOnZoo(t *testing.T) {
	for _, w := range conformance.Zoo() {
		t.Run(w.Name, func(t *testing.T) {
			orig := w.MustGen()
			var want bytes.Buffer
			if err := Write(&want, orig); err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				name  string
				write func(io.Writer, *trace.Trace) error
			}{{"text", Write}, {"binary", WriteBinary}} {
				t.Run(f.name, func(t *testing.T) {
					var enc bytes.Buffer
					if err := f.write(&enc, orig); err != nil {
						t.Fatal(err)
					}
					got, digest, err := ReadAutoDigest(bytes.NewReader(enc.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					if !got.Indexed() {
						t.Fatal("round-tripped trace not indexed")
					}
					if digest != DigestBytes(enc.Bytes()) {
						t.Errorf("digest %s is not the stream's %s", digest, DigestBytes(enc.Bytes()))
					}
					var again bytes.Buffer
					if err := Write(&again, got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(again.Bytes(), want.Bytes()) {
						t.Fatal("the round trip changed the trace")
					}
				})
			}
		})
	}
}

func TestNamesWithSpacesSurvive(t *testing.T) {
	b := trace.NewBuilder(1)
	e := b.AddEntry("Main::do work (phase two)")
	c := b.AddChare("my chare [0, 0]", 0, 0, 0)
	b.BeginBlock(c, 0, e, 0)
	b.EndBlock(c, 5)
	orig := b.MustFinish()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].Name != orig.Entries[0].Name {
		t.Fatalf("entry name %q != %q", got.Entries[0].Name, orig.Entries[0].Name)
	}
	if got.Chares[0].Name != orig.Chares[0].Name {
		t.Fatalf("chare name %q != %q", got.Chares[0].Name, orig.Chares[0].Name)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	orig := jacobi.MustTrace(jacobi.DefaultConfig())
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(orig.Events) {
		t.Fatalf("events = %d, want %d", len(got.Events), len(orig.Events))
	}
}

func TestRejectsBadHeader(t *testing.T) {
	if _, err := Read(strings.NewReader("nonsense\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := Read(strings.NewReader("charmtrace 99\npe 1\n")); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestRejectsMalformedRecords(t *testing.T) {
	cases := []string{
		"charmtrace 1\npe 1\nbogus 1 2 3\n",
		"charmtrace 1\npe 1\nev 0 teleport 0 0 0 0 0\n",
		"charmtrace 1\npe 1\nblock 5 0 0 0 0 0\n", // out of order ID
		"charmtrace 1\npe x\n",
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("malformed input accepted: %q", c)
		}
	}
}

func TestCommentsAndBlankLinesIgnored(t *testing.T) {
	in := "charmtrace 1\n# a comment\n\npe 2\nchare 0 -1 -1 false 0 solo\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if tr.NumPE != 2 || len(tr.Chares) != 1 {
		t.Fatal("comment/blank handling broke parsing")
	}
}

func TestReadValidates(t *testing.T) {
	// A recv without its send must be rejected by trace validation.
	in := "charmtrace 1\npe 1\n" +
		"entry 0 -1 false e\n" +
		"chare 0 -1 -1 false 0 c\n" +
		"block 0 0 0 0 0 10\n" +
		"ev 0 recv 0 0 0 7 0\n"
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("invalid trace accepted")
	}
}
