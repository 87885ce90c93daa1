package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// payload returns n deterministic bytes.
func payload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func keyOfResult(i int) string { return digestOf([]byte{byte(i), 'k'}) }

func keyOfResponse(i int) string { return digestOf([]byte{byte(i), 'r'}) }

func mustOpen(t testing.TB, root string) *Store {
	t.Helper()
	s, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func publish(t testing.TB, s *Store, data []byte) string {
	t.Helper()
	sp, err := s.Spool()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write(data); err != nil {
		t.Fatal(err)
	}
	d := digestOf(data)
	if err := sp.Publish(d); err != nil {
		t.Fatal(err)
	}
	return d
}

func appendBytes(t testing.TB, s *Store, digest string, k Kind, key string, data []byte) {
	t.Helper()
	if err := s.Append(digest, k, key, data); err != nil {
		t.Fatal(err)
	}
}

// sample is a file with a trace, a table, two results and a response.
type sample struct {
	root, digest      string
	trace, table      []byte
	results           [2][]byte
	response          []byte
	tableOff, lastOff int64 // where the table section and the last section start
}

func newSample(t testing.TB) sample {
	t.Helper()
	sm := sample{root: t.TempDir(), trace: payload(1, 300), table: payload(2, 120), response: payload(5, 50)}
	sm.results[0], sm.results[1] = payload(3, 90), payload(4, 70)
	s := mustOpen(t, sm.root)
	sm.digest = publish(t, s, sm.trace)
	appendBytes(t, s, sm.digest, Table, "", sm.table)
	for i, r := range sm.results {
		appendBytes(t, s, sm.digest, Result, keyOfResult(i), r)
	}
	appendBytes(t, s, sm.digest, Response, keyOfResponse(0), sm.response)
	sm.tableOff = int64(len(sm.trace)) + trailerSize
	sm.lastOff = sm.tableOff + int64(len(sm.table)+len(sm.results[0])+len(sm.results[1])+3*trailerSize)
	return sm
}

// keyedBytes is what the sample's result and response sections count
// toward the GC bound.
func (sm sample) keyedBytes() int64 {
	return int64(len(sm.results[0]) + len(sm.results[1]) + len(sm.response) + 3*trailerSize)
}

// check reads every section of the sample from s: the trace must read back
// intact; any other section must read back intact or not at all, and one
// that is missing is appended again and must then read back.
func (sm sample) check(t *testing.T, s *Store) {
	t.Helper()
	if got, err := s.Read(sm.digest, Trace, ""); err != nil || !bytes.Equal(got, sm.trace) {
		t.Fatalf("trace section lost (err %v)", err)
	}
	type want struct {
		k    Kind
		key  string
		data []byte
	}
	for _, w := range []want{{Table, "", sm.table}, {Result, keyOfResult(0), sm.results[0]}, {Result, keyOfResult(1), sm.results[1]}, {Response, keyOfResponse(0), sm.response}} {
		got, err := s.Read(sm.digest, w.k, w.key)
		switch {
		case err == nil && !bytes.Equal(got, w.data):
			t.Fatalf("kind %d served bytes it was not given", w.k)
		case err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrCorrupt):
			t.Fatalf("kind %d: %v", w.k, err)
		case err != nil:
			appendBytes(t, s, sm.digest, w.k, w.key, w.data)
			if got, err := s.Read(sm.digest, w.k, w.key); err != nil || !bytes.Equal(got, w.data) {
				t.Fatalf("kind %d appended again does not read back (err %v)", w.k, err)
			}
		}
	}
}

func TestRoundTripAndReopen(t *testing.T) {
	sm := newSample(t)
	for pass := 0; pass < 2; pass++ {
		s := mustOpen(t, sm.root) // reopened: everything is read back from the trailers
		sm.check(t, s)
		if got := s.Traces(); len(got) != 1 || got[0] != (Info{sm.digest, int64(len(sm.trace))}) {
			t.Errorf("Traces() = %v", got)
		}
		if got, want := s.results.Load(), sm.keyedBytes(); got != want {
			t.Errorf("result and response bytes = %d, want %d", got, want)
		}
	}
	info, err := os.Stat(mustOpen(t, sm.root).Path(sm.digest))
	if err != nil {
		t.Fatal(err)
	}
	if want := sm.lastOff + int64(len(sm.response)+trailerSize); info.Size() != want {
		t.Errorf("file is %d bytes, want %d: sections were not appended end to end", info.Size(), want)
	}
}

// TestLaterSectionSupersedes: a section appended again under the same kind
// and key is the one read, and a section that fails its checksum is never
// served again.
func TestLaterSectionSupersedes(t *testing.T) {
	sm := newSample(t)
	s := mustOpen(t, sm.root)
	newer := payload(9, 50)
	appendBytes(t, s, sm.digest, Result, keyOfResult(0), newer)
	if got, _ := s.Read(sm.digest, Result, keyOfResult(0)); !bytes.Equal(got, newer) {
		t.Fatal("the earlier section was read")
	}
	// Damage the newer one in place: the read fails, and so does every
	// later one; the older section is not resurrected either.
	f, err := os.OpenFile(s.Path(sm.digest), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	f.WriteAt([]byte{newer[0] ^ 1}, info.Size()-trailerSize-int64(len(newer)))
	f.Close()
	if _, err := s.Read(sm.digest, Result, keyOfResult(0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged section read: %v, want ErrCorrupt", err)
	}
	if _, err := s.Read(sm.digest, Result, keyOfResult(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after a checksum failure: %v, want ErrNotFound", err)
	}
	if s.Has(sm.digest, Result, keyOfResult(0)) {
		t.Fatal("Has reports a section that failed its checksum")
	}
	appendBytes(t, s, sm.digest, Result, keyOfResult(0), newer)
	if got, _ := s.Read(sm.digest, Result, keyOfResult(0)); !bytes.Equal(got, newer) {
		t.Fatal("the section appended after a checksum failure is not read")
	}
}

// TestTrailerKinds: a trailer of each of the four kinds parses, and one of
// a kind past Response, or of kind 0, does not, however well it is
// checksummed.
func TestTrailerKinds(t *testing.T) {
	const at = 100
	for k := Kind(0); k <= Response+1; k++ {
		sec := section{n: 10, crc: 7, key: [32]byte{1}, kind: k}
		got, ok := parseTrailer(sec.trailer(at), at)
		if want := k >= Trace && k <= Response; ok != want {
			t.Errorf("kind %d: parsed = %v, want %v", k, ok, want)
		} else if ok && (got.kind != k || got.off != at-10 || got.n != 10 || got.key != sec.key) {
			t.Errorf("kind %d parsed as %+v", k, got)
		}
	}
}

// TestResponseSections: a response section is appended in parts and reads
// back as their concatenation; one that fails its checksum is ErrCorrupt
// once and then never served, until it is appended again.
func TestResponseSections(t *testing.T) {
	sm := newSample(t)
	s := mustOpen(t, sm.root)
	head, wire := payload(10, 9), payload(11, 80)
	appendBytes(t, s, sm.digest, Response, keyOfResponse(1), head)
	if err := s.Append(sm.digest, Response, keyOfResponse(2), head, wire); err != nil {
		t.Fatal(err)
	}
	whole := append(bytes.Clone(head), wire...)
	if got, err := s.Read(sm.digest, Response, keyOfResponse(2)); err != nil || !bytes.Equal(got, whole) {
		t.Fatalf("a response appended in two parts reads back %d bytes (err %v), want %d", len(got), err, len(whole))
	}
	if s.Has(sm.digest, Result, keyOfResponse(2)) {
		t.Error("a response section is held as a result")
	}
	f, err := os.OpenFile(s.Path(sm.digest), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	f.WriteAt([]byte{wire[5] ^ 1}, info.Size()-trailerSize-int64(len(wire))+5)
	f.Close()
	if _, err := s.Read(sm.digest, Response, keyOfResponse(2)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged response read: %v, want ErrCorrupt", err)
	}
	if _, err := s.Read(sm.digest, Response, keyOfResponse(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after a checksum failure: %v, want ErrNotFound", err)
	}
	if s.Has(sm.digest, Response, keyOfResponse(2)) {
		t.Fatal("Has reports a response that failed its checksum")
	}
	if got, err := s.Read(sm.digest, Response, keyOfResponse(1)); err != nil || !bytes.Equal(got, head) {
		t.Errorf("the other response was lost (err %v)", err)
	}
	if err := s.Append(sm.digest, Response, keyOfResponse(2), head, wire); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(sm.digest, Response, keyOfResponse(2)); err != nil || !bytes.Equal(got, whole) {
		t.Fatalf("the response appended after a checksum failure does not read back (err %v)", err)
	}
	want := sm.keyedBytes() + int64(len(head)+2*len(whole)+3*trailerSize)
	for pass, st := range []*Store{s, mustOpen(t, sm.root)} {
		if got := st.results.Load(); got != want {
			t.Errorf("pass %d: result and response bytes = %d, want %d", pass, got, want)
		}
	}
}

// TestTornTail cuts the file at every offset inside its last section, as a
// crash mid-append does, and reopens: the cut section is gone, every
// section before it survives, and the section can be appended again.
func TestTornTail(t *testing.T) {
	sm := newSample(t)
	whole, err := os.ReadFile(mustOpen(t, sm.root).Path(sm.digest))
	if err != nil {
		t.Fatal(err)
	}
	for cut := sm.lastOff; cut < int64(len(whole)); cut++ {
		root := t.TempDir()
		s := mustOpen(t, root)
		if err := os.WriteFile(s.Path(sm.digest), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, root)
		if s.Has(sm.digest, Response, keyOfResponse(0)) {
			t.Fatalf("cut at %d: the torn section is still held", cut)
		}
		if info, _ := os.Stat(s.Path(sm.digest)); info.Size() != sm.lastOff {
			t.Fatalf("cut at %d: file is %d bytes, want it cut back to %d", cut, info.Size(), sm.lastOff)
		}
		sm.check(t, s)
		sm.check(t, mustOpen(t, root))
	}
}

// TestFlippedBytes flips each byte of the table section and of the last
// section in turn, payload and trailer, and reopens: a damaged section is
// never served, the trace section always survives, and what was lost is
// appended again.
func TestFlippedBytes(t *testing.T) {
	sm := newSample(t)
	whole, err := os.ReadFile(mustOpen(t, sm.root).Path(sm.digest))
	if err != nil {
		t.Fatal(err)
	}
	tableEnd := sm.tableOff + int64(len(sm.table)) + trailerSize
	for _, span := range [][2]int64{{sm.tableOff, tableEnd}, {sm.lastOff, int64(len(whole))}} {
		for at := span[0]; at < span[1]; at++ {
			root := t.TempDir()
			s := mustOpen(t, root)
			damaged := bytes.Clone(whole)
			damaged[at] ^= 0x40
			if err := os.WriteFile(s.Path(sm.digest), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			s = mustOpen(t, root)
			sm.check(t, s)
			sm.check(t, mustOpen(t, root))
		}
	}
}

// TestPublishKeepsFileWithSections: a second upload of the same bytes finds
// the name taken and keeps the file, sections and all; a file with no trace
// bytes is replaced by an upload.
func TestPublishKeepsFileWithSections(t *testing.T) {
	sm := newSample(t)
	s := mustOpen(t, sm.root)
	if d := publish(t, s, sm.trace); d != sm.digest {
		t.Fatal("digest changed")
	}
	sm.check(t, s)
	sm.check(t, mustOpen(t, sm.root))
	entries, _ := os.ReadDir(filepath.Dir(s.Path(sm.digest)))
	if len(entries) != 1 {
		t.Errorf("%d files in the traces directory, want 1 (no spool left behind)", len(entries))
	}

	// A result stored for a digest nobody uploaded makes a file whose trace
	// section is empty; the upload then takes the name over.
	other := payload(5, 200)
	d := digestOf(other)
	appendBytes(t, s, d, Result, keyOfResult(0), sm.results[0])
	if got, err := s.Read(d, Trace, ""); err != nil || len(got) != 0 {
		t.Fatalf("trace section of a result-only file: %d bytes, err %v", len(got), err)
	}
	if len(s.Traces()) != 1 {
		t.Error("a result-only file is listed as a trace")
	}
	publish(t, s, other)
	if got, err := s.Read(d, Trace, ""); err != nil || !bytes.Equal(got, other) {
		t.Fatalf("upload over a result-only file: err %v", err)
	}
	if got := s.results.Load(); got != sm.keyedBytes() {
		t.Errorf("result and response bytes = %d after the result-only file was replaced", got)
	}
}

// TestGCDropsLeastRecentlyUsedTrace: GC drops every result and response of
// the least recently used trace first, counting both toward its bound,
// keeps its trace and table, and a reader that opened a section before the
// rewrite reads it whole.
func TestGCDropsLeastRecentlyUsedTrace(t *testing.T) {
	root := t.TempDir()
	s := mustOpen(t, root)
	var digests []string
	for i := 0; i < 3; i++ {
		d := publish(t, s, payload(int64(10+i), 100))
		appendBytes(t, s, d, Table, "", payload(int64(20+i), 40))
		appendBytes(t, s, d, Result, keyOfResult(0), payload(int64(30+i), 60))
		appendBytes(t, s, d, Result, keyOfResult(1), payload(int64(40+i), 60))
		appendBytes(t, s, d, Response, keyOfResponse(0), payload(int64(50+i), 30))
		digests = append(digests, d)
	}
	s.Touch(digests[0]) // now digests[1] is the least recently used
	open, err := s.Open(digests[1], Result, keyOfResult(0))
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	per := int64(2*(60+trailerSize) + 30 + trailerSize)
	if s.results.Load() != 3*per {
		t.Fatalf("result and response bytes = %d, want %d", s.results.Load(), 3*per)
	}
	if n := s.GC(3*per - 1); n != 3 {
		t.Fatalf("GC dropped %d sections, want the 2 results and the response of one trace", n)
	}
	for i, d := range digests {
		if got := s.Has(d, Result, keyOfResult(0)); got != (i != 1) {
			t.Errorf("trace %d: result held = %v after GC", i, got)
		}
		if got := s.Has(d, Response, keyOfResponse(0)); got != (i != 1) {
			t.Errorf("trace %d: response held = %v after GC", i, got)
		}
		if !s.Has(d, Table, "") || !s.Has(d, Trace, "") {
			t.Errorf("trace %d lost its trace or table to GC", i)
		}
	}
	if got, err := io.ReadAll(open); err != nil || !bytes.Equal(got, payload(31, 60)) {
		t.Errorf("a reader that opened before the GC read %d bytes, err %v", len(got), err)
	}
	s2 := mustOpen(t, root)
	if s2.results.Load() != 2*per || s.results.Load() != 2*per {
		t.Errorf("result and response bytes = %d (reopened %d), want %d", s.results.Load(), s2.results.Load(), 2*per)
	}
	if got, _ := s2.Read(digests[1], Table, ""); !bytes.Equal(got, payload(21, 40)) {
		t.Error("the rewritten file's table does not read back")
	}
	if entries, _ := filepath.Glob(filepath.Join(root, "traces", TmpPrefix+"*")); len(entries) != 0 {
		t.Errorf("GC left %v behind", entries)
	}
}

// TestOpenSweepsStaleSpools: Open removes a spool old enough to be a
// crashed upload's and keeps one young enough to belong to an upload still
// running. Files that are not one trace file each (the three-file layout's
// traces/<digest>.trace and results/*.cstr) are neither read nor touched.
func TestOpenSweepsStaleSpools(t *testing.T) {
	root := t.TempDir()
	traces, results := filepath.Join(root, "traces"), filepath.Join(root, "results")
	os.MkdirAll(traces, 0o755)
	os.MkdirAll(results, 0o755)
	write := func(path string, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stray := []string{
		filepath.Join(traces, digestOf(payload(1, 500))+".trace"),
		filepath.Join(results, keyOfResult(0)+".cstr"),
	}
	for i, p := range stray {
		write(p, payload(int64(2+i), 50))
	}
	stale, fresh := filepath.Join(traces, TmpPrefix+"stale"), filepath.Join(traces, TmpPrefix+"fresh")
	write(stale, payload(6, 10))
	write(fresh, payload(7, 10))
	old := time.Now().Add(-2 * time.Hour)
	os.Chtimes(stale, old, old)

	s := mustOpen(t, root)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("the stale spool survived Open (stat err %v)", err)
	}
	for _, p := range append([]string{fresh}, stray...) {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("Open removed %s: %v", strings.TrimPrefix(p, root), err)
		}
	}
	if got := s.Traces(); len(got) != 0 {
		t.Errorf("Traces() lists %v over a directory with no trace file", got)
	}
}

// FuzzStoreOpen: any bytes under a trace's name open without a panic, and
// no length a file states is trusted before the bytes are there: the
// sections read back total at most the file's size, and opening and
// reading them allocates a constant multiple of it, never what a lying
// length asks for.
func FuzzStoreOpen(f *testing.F) {
	sm := newSample(f)
	whole, err := os.ReadFile(mustOpen(f, sm.root).Path(sm.digest))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-7])
	f.Add(whole[:sm.tableOff])
	f.Add([]byte{})
	f.Add(append(bytes.Clone(whole), magic...))
	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		path := filepath.Join(root, "traces", sm.digest)
		os.MkdirAll(filepath.Dir(path), 0o755)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}
		var read int64
		for _, k := range []struct {
			kind Kind
			key  string
		}{{Trace, ""}, {Table, ""}, {Result, keyOfResult(0)}, {Result, keyOfResult(1)}, {Response, keyOfResponse(0)}} {
			if b, err := s.Read(sm.digest, k.kind, k.key); err == nil {
				read += int64(len(b))
			}
		}
		runtime.ReadMemStats(&after)
		if read > int64(len(data)) {
			t.Fatalf("read %d bytes of sections from a %d-byte file", read, len(data))
		}
		if grew := int64(after.TotalAlloc - before.TotalAlloc); grew > 4*int64(len(data))+256<<10 {
			t.Fatalf("opening a %d-byte file allocated %d bytes", len(data), grew)
		}
		if info, err := os.Stat(path); err == nil && info.Size() > int64(len(data)) {
			t.Fatal("opening grew the file")
		}
	})
}
