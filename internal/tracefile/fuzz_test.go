package tracefile

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"charmtrace/internal/apps/jacobi"
)

// FuzzRead ensures the parser never panics and that anything it accepts is
// a valid, indexed trace that round-trips.
func FuzzRead(f *testing.F) {
	f.Add("charmtrace 1\npe 1\n")
	f.Add("charmtrace 1\npe 2\nchare 0 -1 -1 false 0 solo\n")
	f.Add("charmtrace 1\npe 1\nentry 0 -1 false e\nchare 0 -1 -1 false 0 c\nblock 0 0 0 0 0 10\nev 0 send 5 0 0 3 0\n")
	f.Add("charmtrace 1\npe 1\nidle 0 5 10\n")
	var buf bytes.Buffer
	if err := Write(&buf, jacobi.MustTrace(jacobi.DefaultConfig())); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if !tr.Indexed() {
			t.Fatal("accepted trace not indexed")
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		tr2, err := Read(&out)
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if len(tr2.Events) != len(tr.Events) || len(tr2.Blocks) != len(tr.Blocks) {
			t.Fatal("round trip changed the trace")
		}
	})
}

// FuzzReadAuto drives the format-detecting entry points the charmd upload
// handler feeds untrusted bytes into. The contract under fuzz: ReadAuto
// never panics, every rejection carries the ErrMalformed tag (so the server
// can answer 400, never 500), ReadAuto and ReadAutoDigest agree on
// accept/reject, an accepted input digests to exactly its content address,
// and on inputs with the binary magic the windowed decoder and flat index
// agree with the field-by-field decoder and naive maps they replaced
// (checkDecodersAgree).
func FuzzReadAuto(f *testing.F) {
	// Golden traces, both serializations. The scaled-down config keeps the
	// corpus entries small, which is what keeps single-worker mutation and
	// minimization cheap; the full-size default config exercises realistic
	// section sizes.
	small := jacobi.DefaultConfig()
	small.Iterations, small.Grid = 2, 2
	var bin, txt, binSmall bytes.Buffer
	tr := jacobi.MustTrace(jacobi.DefaultConfig())
	if err := WriteBinary(&bin, tr); err != nil {
		f.Fatal(err)
	}
	if err := Write(&txt, tr); err != nil {
		f.Fatal(err)
	}
	if err := WriteBinary(&binSmall, jacobi.MustTrace(small)); err != nil {
		f.Fatal(err)
	}
	f.Add(binSmall.Bytes())
	f.Add(bin.Bytes())
	f.Add(txt.Bytes())

	// Malformed neighborhoods: each known rejection class seeds the corpus
	// so mutation explores the boundaries around it.
	badMagic := append([]byte{}, bin.Bytes()...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	badVersion := append([]byte{}, bin.Bytes()...)
	badVersion[4] = 0x7f
	f.Add(badVersion)
	f.Add(bin.Bytes()[:10])          // truncated mid-header
	f.Add(txt.Bytes()[:txt.Len()/2]) // text truncated mid-record
	f.Add([]byte{})
	f.Add([]byte("not a trace\n"))
	f.Add([]byte("charmtrace 999\n"))
	f.Add([]byte("charmtrace 1\npe 1\nbogus 1 2 3\n"))         // unknown record
	f.Add([]byte("charmtrace 1\npe 1\nblock 0 0\n"))           // short record
	f.Add([]byte("charmtrace 1\npe 1\nev 0 send 5 0 0 3 0\n")) // event into unknown block
	// A PROJECTIONS-RECORD stream is not a trace format: the text reader
	// must refuse its header.
	f.Add([]byte("PROJECTIONS-REC"))
	f.Add([]byte("PROJECTIONS-RECORD 1\n"))
	f.Add([]byte("PROJECTIONS-RECORD 99\n"))
	f.Add(append([]byte("PROJECTIONS-RECORD 1\n"), bin.Bytes()...))
	f.Add([]byte("PROJECTIONS-RECORD 1\nPROCESSORS 1\nTOTAL_CHARES 1\nTOTAL_EPS 1\n" +
		"ENTRY 0 -1 0 e\nCHARE 0 -1 -1 0 0 c\nEND_STS\nBEGIN_LOG 0\n2 0 0 0 0\n1 1 0 0\n3 5\nEND_LOG\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= len(binaryMagic) && [4]byte(data[:4]) == binaryMagic {
			checkDecodersAgree(t, data, plain)
		}
		tr1, err1 := ReadAuto(bytes.NewReader(data))
		tr2, digest, err2 := ReadAutoDigest(bytes.NewReader(data))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("ReadAuto err=%v but ReadAutoDigest err=%v on the same input", err1, err2)
		}
		if err1 == nil && bytes.HasPrefix(data, []byte("PROJECTIONS-RECORD")) {
			t.Fatal("ReadAuto accepted a PROJECTIONS-RECORD stream")
		}
		if err1 != nil {
			if !errors.Is(err1, ErrMalformed) {
				t.Fatalf("ReadAuto rejection %v does not carry ErrMalformed", err1)
			}
			if !errors.Is(err2, ErrMalformed) {
				t.Fatalf("ReadAutoDigest rejection %v does not carry ErrMalformed", err2)
			}
			return
		}
		if digest != DigestBytes(data) {
			t.Fatalf("streamed digest %s != DigestBytes %s", digest, DigestBytes(data))
		}
		if !tr1.Indexed() || !tr2.Indexed() {
			t.Fatal("accepted trace not indexed")
		}
		if len(tr1.Events) != len(tr2.Events) || len(tr1.Blocks) != len(tr2.Blocks) ||
			len(tr1.Chares) != len(tr2.Chares) || tr1.NumPE != tr2.NumPE {
			t.Fatal("ReadAuto and ReadAutoDigest decoded different traces")
		}
	})
}
