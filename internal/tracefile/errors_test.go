package tracefile

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/trace"
)

// validBinary serializes the jacobi proxy trace in the binary format.
func validBinary(t *testing.T) []byte {
	t.Helper()
	return encodeBinary(t, jacobi.MustTrace(jacobi.DefaultConfig()))
}

// TestTruncatedBinaryIsMalformed: cutting a valid binary trace at any of a
// spread of offsets fails with the ErrMalformed tag — the typed error the
// charmd upload handler maps to HTTP 400 instead of 500.
func TestTruncatedBinaryIsMalformed(t *testing.T) {
	enc := validBinary(t)
	for _, n := range []int{0, 1, 3, 4, 5, len(enc) / 4, len(enc) / 2, len(enc) - 1} {
		if _, err := ReadAuto(bytes.NewReader(enc[:n])); err == nil {
			t.Errorf("truncation at %d/%d bytes decoded without error", n, len(enc))
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("truncation at %d: error %v is not ErrMalformed", n, err)
		}
	}
}

// TestCorruptBinaryIsMalformed covers the non-truncation corruption paths.
func TestCorruptBinaryIsMalformed(t *testing.T) {
	enc := validBinary(t)
	cases := map[string]func() []byte{
		"bad magic": func() []byte {
			c := append([]byte(nil), enc...)
			c[0] = 'X'
			return c
		},
		"bad version": func() []byte {
			c := append([]byte(nil), enc...)
			c[4] = 0x7f // uvarint 127, unsupported
			return c
		},
		"garbage body": func() []byte {
			return append(append([]byte(nil), binaryMagic[:]...), 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
		},
	}
	for name, build := range cases {
		if _, err := ReadAuto(bytes.NewReader(build())); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v is not ErrMalformed", name, err)
		}
	}
}

// textHead declares two PEs, one entry, one chare and one block.
const textHead = "charmtrace 1\npe 2\nentry 0 -1 false e\nchare 0 -1 -1 false 0 c\nblock 0 0 0 0 0 10\n"

// TestOutOfRangePEBinaryIsMalformed: an event or idle naming a PE the
// machine does not have (or an idle span that ends before it begins) used to
// decode cleanly and panic later in metrics, profile and skew, which index
// per-PE tables by it. WriteBinary does not validate, so it can carry them.
func TestOutOfRangePEBinaryIsMalformed(t *testing.T) {
	for name, mutate := range map[string]func(*trace.Trace){
		"event pe out of range": func(tr *trace.Trace) { tr.Events[3].PE = trace.PE(tr.NumPE) },
		"event pe negative":     func(tr *trace.Trace) { tr.Events[3].PE = -1 },
		"idle pe out of range":  func(tr *trace.Trace) { tr.Idles[0].PE = trace.PE(tr.NumPE) },
		"idle pe negative":      func(tr *trace.Trace) { tr.Idles[0].PE = -7 },
		"idle ends before it begins": func(tr *trace.Trace) {
			tr.Idles[0].Begin, tr.Idles[0].End = tr.Idles[0].End, tr.Idles[0].Begin
		},
	} {
		tr := jacobi.MustTrace(jacobi.DefaultConfig())
		if len(tr.Idles) == 0 {
			t.Fatal("the jacobi proxy trace records no idle span")
		}
		mutate(tr)
		_, err := ReadAuto(bytes.NewReader(encodeBinary(t, tr)))
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// TestMalformedTextIsTagged: the text decoder's failures carry the same tag.
func TestMalformedTextIsTagged(t *testing.T) {
	if _, err := Read(strings.NewReader(textHead + "ev 0 send 5 0 1 3 0\nidle 1 5 10\n")); err != nil {
		t.Fatalf("the valid neighbour of the PE cases is rejected: %v", err)
	}
	for name, input := range map[string]string{
		"empty":          "",
		"bad header":     "not a trace\n",
		"bad version":    "charmtrace 999\n",
		"unknown record": "charmtrace 1\npe 1\nbogus 1 2 3\n",
		"short record":   "charmtrace 1\npe 1\nblock 0\n",
		"unknown block":  "charmtrace 1\npe 1\nev 0 send 5 0 0 1 7\n",
		// Panicked (index out of range) before block lists were grouped by
		// the range-checking helper.
		"negative block":         textHead + "ev 0 send 5 0 0 3 -1\n",
		"event pe out of range":  textHead + "ev 0 send 5 0 2 3 0\n",
		"event pe negative":      textHead + "ev 0 send 5 0 -1 3 0\n",
		"idle pe out of range":   textHead + "idle 2 5 10\n",
		"idle pe negative":       textHead + "idle -1 5 10\n",
		"idle ends before begin": textHead + "idle 0 10 5\n",
	} {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v is not ErrMalformed", name, err)
		}
	}
}

// TestMalformedPreservesUnderlyingError: the tag is additive — the original
// chain (e.g. unexpected EOF on a truncated section read) stays inspectable.
func TestMalformedPreservesUnderlyingError(t *testing.T) {
	enc := validBinary(t)
	_, err := ReadAuto(bytes.NewReader(enc[:len(enc)-1]))
	if err == nil {
		t.Fatal("truncated trace decoded without error")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Errorf("error %v hides the underlying EOF", err)
	}
}

// TestReadAutoDigest: the digest is the SHA-256 of the full raw stream, the
// same trace serialized differently gets different addresses, and the
// malformed tag survives the digesting wrapper.
func TestReadAutoDigest(t *testing.T) {
	orig := jacobi.MustTrace(jacobi.DefaultConfig())
	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, orig); err != nil {
		t.Fatal(err)
	}
	if err := Write(&txt, orig); err != nil {
		t.Fatal(err)
	}

	tr, digest, err := ReadAutoDigest(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != len(orig.Events) {
		t.Fatalf("decoded %d events, want %d", len(tr.Events), len(orig.Events))
	}
	if want := DigestBytes(bin.Bytes()); digest != want {
		t.Errorf("digest %s != sha256 of the stream %s", digest, want)
	}
	_, again, err := ReadAutoDigest(bytes.NewReader(bin.Bytes()))
	if err != nil || again != digest {
		t.Errorf("digest not stable: %s vs %s (err %v)", again, digest, err)
	}
	_, txtDigest, err := ReadAutoDigest(bytes.NewReader(txt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if txtDigest == digest {
		t.Error("text and binary serializations share a digest")
	}
	if want := DigestBytes(txt.Bytes()); txtDigest != want {
		t.Errorf("text digest %s != sha256 of the stream %s", txtDigest, want)
	}

	if _, _, err := ReadAutoDigest(bytes.NewReader(bin.Bytes()[:10])); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated digest read: error %v is not ErrMalformed", err)
	}
}

// TestReadAutoMisdetection: inputs crafted to sit on the boundary between
// the two formats, and PROJECTIONS-RECORD streams, which are not a trace
// format, must be rejected with the ErrMalformed
// tag, never panicking and never reporting a bare (server-fault) error. The
// charmd upload handler branches on this tag to answer 400.
func TestReadAutoMisdetection(t *testing.T) {
	binBody := encodeBinary(t, jacobi.MustTrace(goldenConfig()))
	cases := []struct {
		name  string
		input []byte
	}{
		{"empty file", nil},
		{"truncated binary magic", []byte("CTR")},
		{"truncated projections magic", []byte("PROJECTIONS-REC")},
		{"projections header only", []byte("PROJECTIONS-RECORD 1\n")},
		{"projections bad version", []byte("PROJECTIONS-RECORD 99\n")},
		{"binary magic with text body", []byte("CTRBcharmtrace 1\npe 1\n")},
		{"text header with binary body", append([]byte("charmtrace 1\n"), binBody...)},
		{"projections magic no newline", []byte("PROJECTIONS-RECORD")},
		{"projections header with binary body", append([]byte("PROJECTIONS-RECORD 1\n"), binBody...)},
		{"projections stream", []byte("PROJECTIONS-RECORD 1\nPROCESSORS 1\nTOTAL_CHARES 1\nTOTAL_EPS 1\n" +
			"ENTRY 0 -1 0 e\nCHARE 0 -1 -1 0 0 c\nEND_STS\nBEGIN_LOG 0\n2 0 0 0 0\n1 1 0 0\n3 5\nEND_LOG\n")},
		{"text header with projections body", []byte("charmtrace 1\nPROCESSORS 2\nEND_STS\n")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := ReadAuto(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatalf("accepted %d-byte input, decoded %d events", len(tc.input), len(tr.Events))
			}
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("rejection %v does not carry ErrMalformed", err)
			}
			if _, _, err := ReadAutoDigest(bytes.NewReader(tc.input)); !errors.Is(err, ErrMalformed) {
				t.Fatalf("ReadAutoDigest rejection %v does not carry ErrMalformed", err)
			}
		})
	}
}

// TestTraceViolationsAreMalformed: a stream that decodes record by record
// but breaks a rule of the trace model — a reference to nothing, a span or
// an order the model forbids, a message received but never sent — is
// rejected in both formats through ReadAuto and ReadAutoDigest with the
// ErrMalformed tag, by the check the case names. Both writers serialize
// without validating, so each case is a mutation of a valid trace.
func TestTraceViolationsAreMalformed(t *testing.T) {
	// blockWith returns a block holding at least n events at distinct
	// times, and those events.
	blockWith := func(tr *trace.Trace, n int) (trace.BlockID, []trace.EventID) {
		for b := range tr.Blocks {
			ids := tr.Blocks[b].Events
			if len(ids) >= n && tr.Events[ids[0]].Time < tr.Events[ids[len(ids)-1]].Time {
				return trace.BlockID(b), ids
			}
		}
		t.Fatalf("no block holds %d events at distinct times", n)
		return 0, nil
	}
	eventOf := func(tr *trace.Trace, kind trace.EventKind, skip int) trace.EventID {
		for i, ev := range tr.Events {
			if ev.Kind == kind && ev.Msg != trace.NoMsg {
				if skip == 0 {
					return trace.EventID(i)
				}
				skip--
			}
		}
		t.Fatalf("too few %v events", kind)
		return 0
	}
	cases := []struct {
		name, want string
		mutate     func(*trace.Trace)
	}{
		{"no processors", "NumPE must be positive", func(tr *trace.Trace) { tr.NumPE = 0 }},
		{"chare home out of range", "home PE", func(tr *trace.Trace) { tr.Chares[0].Home = trace.PE(tr.NumPE) }},
		{"block references unknown chare", "block 0 references unknown chare", func(tr *trace.Trace) {
			tr.Blocks[0].Chare = trace.ChareID(len(tr.Chares))
		}},
		{"block references unknown entry", "block 0 references unknown entry", func(tr *trace.Trace) {
			tr.Blocks[0].Entry = trace.EntryID(len(tr.Entries))
		}},
		{"block pe out of range", "block 0 PE", func(tr *trace.Trace) { tr.Blocks[0].PE = trace.PE(tr.NumPE) }},
		{"block ends before it begins", "before it begins", func(tr *trace.Trace) {
			b, _ := blockWith(tr, 2)
			tr.Blocks[b].Begin, tr.Blocks[b].End = tr.Blocks[b].End, tr.Blocks[b].Begin
		}},
		{"block time out of range", "span [", func(tr *trace.Trace) {
			tr.Blocks[len(tr.Blocks)-1].End = 1 << 62
		}},
		{"blocks overlap on one pe", "blocks overlap", func(tr *trace.Trace) {
			for i := range tr.Blocks {
				for j := i + 1; j < len(tr.Blocks); j++ {
					if tr.Blocks[j].PE == tr.Blocks[i].PE && tr.Blocks[j].Begin >= tr.Blocks[i].End {
						tr.Blocks[j].Begin = tr.Blocks[i].Begin
						return
					}
				}
			}
			t.Fatal("no two blocks share a PE")
		}},
		{"event references unknown block", "event 0 references unknown block", func(tr *trace.Trace) {
			tr.Events[0].Block = trace.BlockID(len(tr.Blocks))
		}},
		{"event references unknown chare", "event 0 references unknown chare", func(tr *trace.Trace) {
			tr.Events[0].Chare = trace.ChareID(len(tr.Chares))
		}},
		{"event time out of range", "event 0 time", func(tr *trace.Trace) { tr.Events[0].Time = 1 << 62 }},
		{"event outside its block", "outside block", func(tr *trace.Trace) {
			b, ids := blockWith(tr, 1)
			tr.Events[ids[len(ids)-1]].Time = tr.Blocks[b].End + 1
		}},
		{"events of a block out of time order", "not time-ordered", func(tr *trace.Trace) {
			_, ids := blockWith(tr, 2)
			first, last := &tr.Events[ids[0]], &tr.Events[ids[len(ids)-1]]
			first.Time, last.Time = last.Time, first.Time
		}},
		{"event chare differs from its block's", "differs from its block", func(tr *trace.Trace) {
			b, ids := blockWith(tr, 1)
			tr.Events[ids[0]].Chare = (tr.Blocks[b].Chare + 1) % trace.ChareID(len(tr.Chares))
		}},
		{"message sent twice", "sent twice", func(tr *trace.Trace) {
			tr.Events[eventOf(tr, trace.Send, 1)].Msg = tr.Events[eventOf(tr, trace.Send, 0)].Msg
		}},
		{"recv never sent", "never sent", func(tr *trace.Trace) {
			tr.Events[eventOf(tr, trace.Recv, 0)].Msg = 1 << 40
		}},
	}
	formats := []struct {
		name  string
		write func(io.Writer, *trace.Trace) error
	}{{"text", Write}, {"binary", WriteBinary}}
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					tr := jacobi.MustTrace(goldenConfig())
					tc.mutate(tr)
					var buf bytes.Buffer
					if err := f.write(&buf, tr); err != nil {
						t.Fatal(err)
					}
					_, err := ReadAuto(bytes.NewReader(buf.Bytes()))
					if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("ReadAuto err = %v, want ErrMalformed containing %q", err, tc.want)
					}
					if _, _, err := ReadAutoDigest(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrMalformed) {
						t.Fatalf("ReadAutoDigest err = %v, want ErrMalformed", err)
					}
				})
			}
		})
	}
}
