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
