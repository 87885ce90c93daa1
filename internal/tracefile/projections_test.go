package tracefile

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"charmtrace/internal/apps/jacobi"
)

// projSample serializes the scaled-down jacobi golden workload in the
// Projections-style format.
func projSample(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteProjections(&buf, jacobi.MustTrace(goldenConfig())); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProjectionsRoundTrip: a trace serialized in the Projections-style
// format and read back through ReadAuto is identical to the original — not
// just shape-equal, but record-for-record (compared via the canonical text
// serialization). This is what makes the recovered structure byte-identical
// between the two formats.
func TestProjectionsRoundTrip(t *testing.T) {
	for _, cfg := range []jacobi.Config{goldenConfig(), jacobi.DefaultConfig()} {
		orig := jacobi.MustTrace(cfg)
		var proj bytes.Buffer
		if err := WriteProjections(&proj, orig); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAuto(bytes.NewReader(proj.Bytes()))
		if err != nil {
			t.Fatalf("ReadAuto on projections stream: %v", err)
		}
		if !got.Indexed() {
			t.Fatal("round-tripped trace not indexed")
		}
		var a, b bytes.Buffer
		if err := Write(&a, orig); err != nil {
			t.Fatal(err)
		}
		if err := Write(&b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("projections round trip changed the trace")
		}
	}
}

// TestProjectionsDigest: the Projections path composes with the streaming
// digest entry point the upload handler uses.
func TestProjectionsDigest(t *testing.T) {
	data := projSample(t)
	tr, digest, err := ReadAutoDigest(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if digest != DigestBytes(data) {
		t.Fatalf("streamed digest %s != DigestBytes %s", digest, DigestBytes(data))
	}
	if len(tr.Events) == 0 {
		t.Fatal("decoded projections trace has no events")
	}
}

// TestReadAutoMisdetection: inputs crafted to sit on the boundaries between
// the three formats must be rejected with the ErrMalformed tag, never
// panicking and never reporting a bare (server-fault) error. The charmd
// upload handler branches on this tag to answer 400.
func TestReadAutoMisdetection(t *testing.T) {
	binBody := func() []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, jacobi.MustTrace(goldenConfig())); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := []struct {
		name  string
		input []byte
	}{
		{"empty file", nil},
		{"truncated binary magic", []byte("CTR")},
		{"truncated projections magic", []byte("PROJECTIONS-REC")},
		{"projections magic no newline", []byte("PROJECTIONS-RECORD")},
		{"projections header with binary body", append([]byte("PROJECTIONS-RECORD 1\n"), binBody...)},
		{"projections header only", []byte("PROJECTIONS-RECORD 1\n")},
		{"projections bad version", []byte("PROJECTIONS-RECORD 99\n")},
		{"text header with projections body", []byte("charmtrace 1\nPROCESSORS 2\nEND_STS\n")},
		{"binary magic with text body", []byte("CTRBcharmtrace 1\npe 1\n")},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ReadAuto(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatalf("accepted %d-byte input, decoded %d events", len(tc.input), len(tr.Events))
			}
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("rejection %v does not carry ErrMalformed", err)
			}
			_, _, err2 := ReadAutoDigest(bytes.NewReader(tc.input))
			if err2 == nil || !errors.Is(err2, ErrMalformed) {
				t.Fatalf("ReadAutoDigest rejection %v does not carry ErrMalformed", err2)
			}
		})
	}
}

// TestProjectionsNegative: reader-specific structural violations, each
// rejected with ErrMalformed.
func TestProjectionsNegative(t *testing.T) {
	const sts = "PROJECTIONS-RECORD 1\nPROCESSORS 2\nTOTAL_CHARES 1\nTOTAL_EPS 1\n" +
		"ENTRY 0 -1 0 e\nCHARE 0 -1 -1 0 0 c\nEND_STS\n"
	cases := []struct {
		name  string
		input string
	}{
		{"unknown declaration", "PROJECTIONS-RECORD 1\nBOGUS 3\nEND_STS\n"},
		{"missing processors", "PROJECTIONS-RECORD 1\nEND_STS\n"},
		{"chare total mismatch", "PROJECTIONS-RECORD 1\nPROCESSORS 1\nTOTAL_CHARES 2\nEND_STS\n"},
		{"eps total mismatch", "PROJECTIONS-RECORD 1\nPROCESSORS 1\nTOTAL_EPS 2\nEND_STS\n"},
		{"pe count out of range", "PROJECTIONS-RECORD 1\nPROCESSORS 9999999\nEND_STS\n"},
		{"record outside section", sts + "2 0 0 0 0\n"},
		{"nested begin_log", sts + "BEGIN_LOG 0\nBEGIN_LOG 1\n"},
		{"duplicate log section", sts + "BEGIN_LOG 0\nEND_LOG\nBEGIN_LOG 0\nEND_LOG\n"},
		{"log pe out of range", sts + "BEGIN_LOG 5\nEND_LOG\n"},
		{"unterminated section", sts + "BEGIN_LOG 0\n"},
		{"end_log with open block", sts + "BEGIN_LOG 0\n2 0 0 0 0\nEND_LOG\n"},
		{"end_log with open idle", sts + "BEGIN_LOG 0\n14 0\nEND_LOG\n"},
		{"nested block", sts + "BEGIN_LOG 0\n2 0 0 0 0\n2 1 0 0 1\n"},
		{"end without begin", sts + "BEGIN_LOG 0\n3 5\nEND_LOG\n"},
		{"event outside block", sts + "BEGIN_LOG 0\n1 0 0 0\nEND_LOG\n"},
		{"duplicate block seq", sts + "BEGIN_LOG 0\n2 0 0 0 0\n3 1\n2 2 0 0 0\n3 3\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n"},
		{"missing block seq", sts + "BEGIN_LOG 0\n2 0 0 0 1\n3 1\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n"},
		{"duplicate event seq", sts + "BEGIN_LOG 0\n2 0 0 0 0\n1 0 0 0\n1 1 1 0\n3 2\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n"},
		{"missing event seq", sts + "BEGIN_LOG 0\n2 0 0 0 0\n1 0 0 3\n3 2\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n"},
		{"unknown record code", sts + "BEGIN_LOG 0\n99 0\nEND_LOG\n"},
		{"short record", sts + "BEGIN_LOG 0\n2 0 0\nEND_LOG\n"},
		{"block end before begin", sts + "BEGIN_LOG 0\n2 5 0 0 0\n3 1\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n"},
		{"unknown chare reference", sts + "BEGIN_LOG 0\n2 0 0 7 0\n3 1\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n"},
		{"recv never sent", sts + "BEGIN_LOG 0\n2 0 0 0 0\n10 0 42 0\n3 1\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n"},
		// Idle and event PEs come from the enclosing BEGIN_LOG (checked
		// above), so the one idle defect this format can carry is its span.
		{"idle ends before it begins", sts + "BEGIN_LOG 0\n14 9\n15 3\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadProjections(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("accepted malformed projections input")
			}
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("rejection %v does not carry ErrMalformed", err)
			}
		})
	}
}

// TestProjectionsAcceptsReorderedSections: the per-PE log sections may
// appear in any order (real Projections runs write one log per processor
// with no global ordering) and the global sequence numbers still
// reconstruct the canonical trace.
func TestProjectionsAcceptsReorderedSections(t *testing.T) {
	// PE 1's section first: its block (seq 1) receives msg 0, which PE 0's
	// block (seq 0) sends later in the stream. Block seq 2 receives the same
	// broadcast msg and sends the never-received msg 2; an idle separates
	// PE 0's two blocks.
	const input = "PROJECTIONS-RECORD 1\nPROCESSORS 2\n" +
		"ENTRY 0 -1 0 e\nCHARE 0 -1 -1 0 0 c0\nCHARE 1 -1 -1 0 1 c1\nEND_STS\n" +
		"BEGIN_LOG 1\n2 10 0 1 1\n10 10 0 3\n3 20\nEND_LOG\n" +
		"BEGIN_LOG 0\n2 0 0 0 0\n1 1 0 0\n3 5\n14 5\n15 30\n" +
		"2 30 0 0 2\n10 30 0 1\n1 31 2 2\n3 40\nEND_LOG\n"
	tr, err := ReadProjections(strings.NewReader(input))
	if err != nil {
		t.Fatalf("reordered sections rejected: %v", err)
	}
	if len(tr.Blocks) != 3 || len(tr.Events) != 4 || len(tr.Idles) != 1 {
		t.Fatalf("decoded %d blocks, %d events, %d idles", len(tr.Blocks), len(tr.Events), len(tr.Idles))
	}
	if tr.Blocks[1].PE != 1 || tr.Blocks[0].PE != 0 || tr.Blocks[2].PE != 0 {
		t.Fatal("block PEs lost across section reordering")
	}
}

// FuzzReadProjections drives the Projections-style reader with untrusted
// bytes: it must never panic, every rejection must carry ErrMalformed, and
// every accepted input must re-serialize and re-read to the same trace.
func FuzzReadProjections(f *testing.F) {
	f.Add(string(projSample(f)))
	const sts = "PROJECTIONS-RECORD 1\nPROCESSORS 2\nTOTAL_CHARES 1\nTOTAL_EPS 1\n" +
		"ENTRY 0 -1 0 e\nCHARE 0 -1 -1 0 0 c\nEND_STS\n"
	f.Add(sts + "BEGIN_LOG 0\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n")
	f.Add(sts + "BEGIN_LOG 0\n2 0 0 0 0\n1 1 0 0\n3 5\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n")
	f.Add(sts + "BEGIN_LOG 0\n14 0\n15 9\nEND_LOG\nBEGIN_LOG 1\nEND_LOG\n")
	f.Add("PROJECTIONS-RECORD 1\n")
	f.Add("PROJECTIONS-RECORD 99\n")
	f.Add(sts)
	f.Add(sts + "BEGIN_LOG 0\n2 0 0 0 0\n")
	f.Add(sts + "BEGIN_LOG 0\n99 0\nEND_LOG\n")

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadProjections(strings.NewReader(input))
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("rejection %v does not carry ErrMalformed", err)
			}
			return
		}
		if !tr.Indexed() {
			t.Fatal("accepted trace not indexed")
		}
		var out bytes.Buffer
		if err := WriteProjections(&out, tr); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		tr2, err := ReadProjections(&out)
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if len(tr2.Events) != len(tr.Events) || len(tr2.Blocks) != len(tr.Blocks) ||
			len(tr2.Idles) != len(tr.Idles) || tr2.NumPE != tr.NumPE {
			t.Fatal("round trip changed the trace")
		}
	})
}
