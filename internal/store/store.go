// Package store keeps charmd's on-disk state: one append-only file per
// trace, traces/<digest> under the store's root, holding everything this
// node knows about the trace as a run of sections:
//
//	trace bytes ‖ trailer │ event table ‖ trailer │ result ‖ trailer │ response ‖ trailer …
//
// A file holds four kinds of section. The trace section is always first and
// holds the uploaded bytes verbatim; it is empty when a result was stored
// for a digest nobody uploaded here (the library and the benchmark's probe
// bring their own trace). The event table, one encoded structure (a result)
// per options fingerprint, and the finished responses the serving layer
// rendered from them follow in the order they were made. Each section is
// self-delimiting: its payload is followed by a fixed-size trailer that
// names its kind, its key (the trace digest, or a result's or response's
// content address), its length and the CRC-32C of its payload, and that is
// itself checksummed together with its own file offset, so a trailer is
// only ever valid where it was written.
//
// Nothing in a file is ever rewritten in place. A file is created once, by
// publishing an upload's spool under the trace's digest with link(2) — a
// second upload of the same bytes finds the name taken and keeps the file
// that already carries sections — and then only grows. Appends to one trace
// are serialised by its lock, and a later section of the same kind and key
// supersedes an earlier one, which is how a section that failed its
// checksum, or whose bytes a caller refused, heals: the caller re-derives
// it and appends. Every read checks the payload's CRC.
//
// Opening the store walks each file's trailers back from its end. A tail
// torn by a crash mid-append, or a trailer damaged since, ends the walk;
// the file is then cut back to the longest prefix that is a whole chain of
// sections from offset 0 (found by searching backwards for a trailer that
// leads there), and what was cut is derived and made again on demand.
//
// GC bounds the bytes of result and response sections together: it drops
// every result and response of the least-recently-used trace by copying the
// file's other sections to a new file and renaming it into place, so a
// reader that already has the old file open keeps reading the inode it
// opened.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is what a section holds.
type Kind uint8

const (
	Trace    Kind = 1 + iota // the uploaded trace bytes; first in every file
	Table                    // the trace's read-side event table
	Result                   // one encoded structure, keyed by its content address
	Response                 // one finished response, keyed by its content address
)

// keyed reports whether sections of kind k carry a key of their own rather
// than the trace digest; those are also the kinds GC drops.
func (k Kind) keyed() bool { return k == Result || k == Response }

// ErrNotFound is returned for a section the store does not hold.
var ErrNotFound = errors.New("store: no such section")

// ErrCorrupt is returned by a read whose bytes fail the section's checksum.
// The section is never served again; the caller re-derives and appends it.
var ErrCorrupt = errors.New("store: section fails its checksum")

// TmpPrefix names the store's temporary files — upload spools and GC
// rewrites — in the traces directory. Open removes those older than an hour,
// which cannot belong to a write still in progress.
const TmpPrefix = ".ingest-"

// staleAfter is how old a temporary file must be for Open to remove it.
const staleAfter = time.Hour

// The trailer that follows each payload:
//
//	[0:32]  key
//	[32:40] payload length, little-endian
//	[40:44] CRC-32C of the payload
//	[44]    kind
//	[45:48] zero
//	[48:52] CRC-32C of bytes 0..47 followed by the trailer's file offset
//	[52:56] magic
const trailerSize = 56

var magic = []byte("CSEC")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// section is one section of a file, as its trailer describes it.
type section struct {
	off, n int64 // payload offset and length
	crc    uint32
	key    [32]byte
	kind   Kind
	bad    bool // failed its checksum on a read
}

func (sec *section) trailer(at int64) []byte {
	b := make([]byte, trailerSize)
	copy(b, sec.key[:])
	binary.LittleEndian.PutUint64(b[32:], uint64(sec.n))
	binary.LittleEndian.PutUint32(b[40:], sec.crc)
	b[44] = byte(sec.kind)
	binary.LittleEndian.PutUint32(b[48:], trailerCRC(b, at))
	copy(b[52:], magic)
	return b
}

func trailerCRC(b []byte, at int64) uint32 {
	var pos [8]byte
	binary.LittleEndian.PutUint64(pos[:], uint64(at))
	return crc32.Update(crc32.Checksum(b[:48], castagnoli), castagnoli, pos[:])
}

// parseTrailer decodes the trailer b found at file offset at, or reports
// that it is not one.
func parseTrailer(b []byte, at int64) (section, bool) {
	var sec section
	if !bytes.Equal(b[52:], magic) || binary.LittleEndian.Uint32(b[48:]) != trailerCRC(b, at) ||
		b[45]|b[46]|b[47] != 0 || b[44] < byte(Trace) || b[44] > byte(Response) {
		return sec, false
	}
	n := binary.LittleEndian.Uint64(b[32:])
	if n > uint64(at) {
		return sec, false
	}
	copy(sec.key[:], b)
	sec.n, sec.off = int64(n), at-int64(n)
	sec.crc = binary.LittleEndian.Uint32(b[40:])
	sec.kind = Kind(b[44])
	return sec, true
}

// file is the state of one trace's file. mu serialises appends, opens for
// reading and GC rewrites; results and used are read without it.
type file struct {
	mu      sync.Mutex
	ok      bool         // the file on disk is a whole chain of sections
	size    int64        // its length
	secs    []section    // in file order; secs[0] is the trace section
	results atomic.Int64 // bytes of result and response sections, trailers included
	used    atomic.Int64 // recency, on the store's clock
}

// find returns the index of the latest section of kind k and key, or -1
// when there is none or it failed its checksum: a superseded section is
// never read again.
func (f *file) find(k Kind, key [32]byte) int {
	for i := len(f.secs) - 1; i >= 0; i-- {
		if s := &f.secs[i]; s.kind == k && s.key == key {
			if s.bad {
				return -1
			}
			return i
		}
	}
	return -1
}

// Store is the set of trace files under one root. Safe for concurrent use.
type Store struct {
	dir     string
	mu      sync.Mutex
	files   map[string]*file
	results atomic.Int64 // bytes of result and response sections, trailers included
	clock   atomic.Int64 // recency ticks: starts at the open time, +1 per use
	gcMu    sync.Mutex
}

// Open opens the store rooted at root, creating root/traces if missing, and
// reads every file's trailers.
func Open(root string) (*Store, error) {
	s := &Store{dir: filepath.Join(root, "traces"), files: make(map[string]*file)}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.clock.Store(time.Now().UnixNano())
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	cutoff := time.Now().Add(-staleAfter)
	for _, de := range entries {
		name := de.Name()
		switch {
		case de.IsDir():
		case strings.HasPrefix(name, TmpPrefix):
			if info, err := de.Info(); err == nil && info.ModTime().Before(cutoff) {
				os.Remove(filepath.Join(s.dir, name))
			}
		case ValidDigest(name):
			s.files[name] = s.load(name)
		}
	}
	return s, nil
}

// ValidDigest reports whether d has the shape of a trace digest or result
// key: 64 lowercase hex characters.
func ValidDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for i := 0; i < len(d); i++ {
		if c := d[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func parseKey(k string) ([32]byte, bool) {
	var key [32]byte
	if !ValidDigest(k) {
		return key, false
	}
	hex.Decode(key[:], []byte(k))
	return key, true
}

// Path is where digest's file is, whether or not it exists.
func (s *Store) Path(digest string) string { return filepath.Join(s.dir, digest) }

// tick returns the next recency value, later than every file's mtime at
// Open and than every tick before it.
func (s *Store) tick() int64 { return s.clock.Add(1) }

// load reads one file's trailers, cutting a torn or damaged tail back to
// the last whole chain. A file with no whole chain is left as it is and
// reported not ok: its name can be taken over by a new upload.
func (s *Store) load(digest string) *file {
	f := &file{}
	key, _ := parseKey(digest)
	h, err := os.Open(s.Path(digest))
	if err != nil {
		return f
	}
	defer h.Close()
	info, err := h.Stat()
	if err != nil {
		return f
	}
	secs, end := scan(h, info.Size(), key)
	if end < 0 {
		return f
	}
	if end < info.Size() && os.Truncate(s.Path(digest), end) != nil {
		return f
	}
	s.reset(f, secs, end)
	f.used.Store(info.ModTime().UnixNano())
	return f
}

// scan returns the sections of the longest prefix of a file of the given
// size that is a whole chain of sections for the digest key, and that
// prefix's length — the whole file when it is intact — or -1 when there is
// none.
func scan(r io.ReaderAt, size int64, key [32]byte) ([]section, int64) {
	if secs, ok := walk(r, size, key); ok {
		return secs, size
	}
	// Search backwards for the end of a trailer that leads back to offset 0.
	const chunk = 64 << 10
	buf := make([]byte, min(size, chunk+int64(len(magic))-1))
	for hi := size - 1; hi >= trailerSize; {
		lo := max(hi-chunk, trailerSize-1)
		wlo := max(lo-int64(len(magic))+1, 0)
		win := buf[:hi-wlo]
		if _, err := r.ReadAt(win, wlo); err != nil {
			return nil, -1
		}
		for j := len(win); ; {
			i := bytes.LastIndex(win[:j], magic)
			if i < 0 {
				break
			}
			if end := wlo + int64(i+len(magic)); end > lo {
				if secs, ok := walk(r, end, key); ok {
					return secs, end
				}
			}
			j = i + len(magic) - 1
		}
		hi = lo
	}
	return nil, -1
}

// walk reads the trailers back from end to offset 0 and reports whether
// they form a whole chain whose first section is the trace section of key.
func walk(r io.ReaderAt, end int64, key [32]byte) ([]section, bool) {
	var buf [trailerSize]byte
	var secs []section
	for pos := end; pos > 0; {
		if pos < trailerSize {
			return nil, false
		}
		if _, err := r.ReadAt(buf[:], pos-trailerSize); err != nil {
			return nil, false
		}
		sec, ok := parseTrailer(buf[:], pos-trailerSize)
		if !ok || (sec.kind == Trace) != (sec.off == 0) {
			return nil, false
		}
		secs = append(secs, sec)
		pos = sec.off
	}
	if len(secs) == 0 || secs[len(secs)-1].key != key {
		return nil, false
	}
	for i, j := 0, len(secs)-1; i < j; i, j = i+1, j-1 {
		secs[i], secs[j] = secs[j], secs[i]
	}
	return secs, true
}

// entry returns the state for a digest, adding an empty one if asked to.
func (s *Store) entry(digest string, add bool) *file {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[digest]
	if f == nil && add {
		f = &file{}
		s.files[digest] = f
	}
	return f
}

// Info describes one stored trace.
type Info struct {
	Digest string
	Bytes  int64 // length of the trace section
}

// Traces lists the traces whose files hold trace bytes, in no order.
func (s *Store) Traces() []Info {
	s.mu.Lock()
	files := make(map[string]*file, len(s.files))
	for d, f := range s.files {
		files[d] = f
	}
	s.mu.Unlock()
	var out []Info
	for d, f := range files {
		f.mu.Lock()
		if f.ok && f.secs[0].n > 0 {
			out = append(out, Info{Digest: d, Bytes: f.secs[0].n})
		}
		f.mu.Unlock()
	}
	return out
}

// Spool is an upload on its way into the store: a temporary file that
// becomes the trace's file when Publish names it by its digest.
type Spool struct {
	crcWriter // over f: the trace section's length and checksum
	s         *Store
	f         *os.File
	done      bool
}

// Spool starts an upload. The caller writes the trace bytes to it, then
// calls Publish, or Abort to drop it; Abort after Publish does nothing.
func (s *Store) Spool() (*Spool, error) {
	f, err := os.CreateTemp(s.dir, TmpPrefix+"*")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Spool{crcWriter: crcWriter{w: f}, s: s, f: f}, nil
}

// Len is the number of trace bytes written to the spool.
func (sp *Spool) Len() int64 { return sp.n }

// Abort drops the spool.
func (sp *Spool) Abort() {
	if !sp.done {
		sp.done = true
		sp.f.Close()
		os.Remove(sp.f.Name())
	}
}

// Publish ends the spool's trace section and links the spool in as the
// file of digest. If that name is taken by a file whose trace section is
// intact, the file is kept as it is — it may already carry sections — and
// the spool is dropped; a file with no trace bytes or a damaged chain is
// replaced.
func (sp *Spool) Publish(digest string) error {
	defer sp.Abort()
	key, ok := parseKey(digest)
	if !ok {
		return fmt.Errorf("store: bad digest %q", digest)
	}
	sec := section{n: sp.n, crc: sp.crc, key: key, kind: Trace}
	if _, err := sp.f.Write(sec.trailer(sp.n)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := sp.f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s := sp.s
	f := s.entry(digest, true)
	f.mu.Lock()
	defer f.mu.Unlock()
	path := s.Path(digest)
	err := os.Link(sp.f.Name(), path)
	if errors.Is(err, fs.ErrExist) {
		if f.ok && f.secs[0].n > 0 && !f.secs[0].bad {
			return nil
		}
		err = os.Rename(sp.f.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.reset(f, []section{sec}, sp.n+trailerSize)
	return nil
}

// reset replaces a file's state after it was written anew. f.mu is held.
func (s *Store) reset(f *file, secs []section, size int64) {
	f.ok, f.secs, f.size = size > 0, secs, size
	var results int64
	for _, sec := range secs {
		if sec.kind.keyed() {
			results += sec.n + trailerSize
		}
	}
	s.results.Add(results - f.results.Swap(results))
	f.used.Store(s.tick())
}

// keyOf is the key a section of kind k is stored under: a Result's or a
// Response's own key, or the digest for the trace and its table.
func keyOf(digest string, k Kind, key string) ([32]byte, error) {
	if !k.keyed() {
		key = digest
	}
	if !ValidDigest(digest) {
		return [32]byte{}, fmt.Errorf("store: bad digest %q", digest)
	}
	b, ok := parseKey(key)
	if !ok {
		return b, fmt.Errorf("store: bad key %q", key)
	}
	return b, nil
}

// Has reports whether the store holds a section of kind k (and key, for a
// Result or a Response) for digest that has not failed its checksum.
func (s *Store) Has(digest string, k Kind, key string) bool {
	kb, err := keyOf(digest, k, key)
	f := s.entry(digest, false)
	if err != nil || f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.find(k, kb) >= 0
}

// Append adds a section of kind Table, Result or Response to digest's file;
// its payload is the parts one after another. A file that does not exist
// yet is created with an empty trace section. A failed write leaves the file
// as it was. The caller encodes the payload first, so that the trace's lock
// is held only for the write.
func (s *Store) Append(digest string, k Kind, key string, payload ...[]byte) error {
	if k == Trace {
		return errors.New("store: a trace section is only written by a spool")
	}
	kb, err := keyOf(digest, k, key)
	if err != nil {
		return err
	}
	f := s.entry(digest, true)
	f.mu.Lock()
	defer f.mu.Unlock()
	var h *os.File
	if f.ok {
		h, err = os.OpenFile(s.Path(digest), os.O_WRONLY, 0)
	} else {
		h, err = os.OpenFile(s.Path(digest), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer h.Close()
	size, secs := f.size, f.secs
	if !f.ok {
		trace, _ := keyOf(digest, Trace, "")
		empty := section{key: trace, kind: Trace}
		if _, err := h.Write(empty.trailer(0)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		size, secs = trailerSize, []section{empty}
	}
	sec := section{off: size, key: kb, kind: k}
	for _, p := range payload {
		sec.crc = crc32.Update(sec.crc, castagnoli, p)
		if _, err = h.WriteAt(p, size+sec.n); err != nil {
			break
		}
		sec.n += int64(len(p))
	}
	n := sec.n
	if err == nil {
		_, err = h.WriteAt(sec.trailer(size+n), size+n)
	}
	if err != nil {
		if f.ok {
			h.Truncate(f.size)
		}
		return fmt.Errorf("store: %w", err)
	}
	if !f.ok {
		s.reset(f, secs, size)
	}
	f.secs = append(f.secs, sec)
	f.size = size + n + trailerSize
	if k.keyed() {
		f.results.Add(n + trailerSize)
		s.results.Add(n + trailerSize)
	}
	f.used.Store(s.tick())
	return nil
}

// crcWriter counts and checksums what passes through it.
type crcWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += int64(n)
	return n, err
}

// Section is one section open for reading. Its reads check the payload's
// checksum as they reach the end; the file stays readable if a GC replaces
// it meanwhile.
type Section struct {
	s      *Store
	digest string
	sec    section
	f      *os.File
	r      io.SectionReader
	crc    uint32
}

// Open opens the latest section of kind k (and key, for a Result or a
// Response) of digest, or returns ErrNotFound.
func (s *Store) Open(digest string, k Kind, key string) (*Section, error) {
	kb, err := keyOf(digest, k, key)
	f := s.entry(digest, false)
	if err != nil || f == nil {
		return nil, ErrNotFound
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.find(k, kb)
	if i < 0 {
		return nil, ErrNotFound
	}
	h, err := os.Open(s.Path(digest))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sec := f.secs[i]
	return &Section{s: s, digest: digest, sec: sec, f: h, r: *io.NewSectionReader(h, sec.off, sec.n)}, nil
}

// Size is the payload's length.
func (sc *Section) Size() int64 { return sc.sec.n }

// Read reads the payload in order. At its end it returns ErrCorrupt instead
// of io.EOF if the bytes read do not match the checksum.
func (sc *Section) Read(p []byte) (int, error) {
	n, err := sc.r.Read(p)
	sc.crc = crc32.Update(sc.crc, castagnoli, p[:n])
	if err == io.EOF {
		err = sc.check(sc.crc, io.EOF)
	}
	return n, err
}

// check compares a checksum of the payload with the trailer's: it returns
// ok if they match, and otherwise records the mismatch, so that the section
// is never served again, and returns ErrCorrupt.
func (sc *Section) check(crc uint32, ok error) error {
	if crc != sc.sec.crc {
		sc.s.markBad(sc.digest, sc.sec)
		return ErrCorrupt
	}
	return ok
}

// Verify reads the whole payload and checks it against the checksum,
// independently of Read's position.
func (sc *Section) Verify() error {
	h := crc32.New(castagnoli)
	if _, err := io.Copy(h, io.NewSectionReader(sc.f, sc.sec.off, sc.sec.n)); err != nil {
		return err
	}
	return sc.check(h.Sum32(), nil)
}

// CopyTo copies the payload to w without checking it (the file is handed
// to w, which lets a socket send it from the page cache): call Verify first.
func (sc *Section) CopyTo(w io.Writer) (int64, error) {
	if _, err := sc.f.Seek(sc.sec.off, io.SeekStart); err != nil {
		return 0, err
	}
	return io.Copy(w, &io.LimitedReader{R: sc.f, N: sc.sec.n})
}

// Close closes the section's file.
func (sc *Section) Close() error { return sc.f.Close() }

// Read returns the payload of the latest section of kind k (and key, for a
// Result or a Response) of digest, checked: ErrNotFound when there is none
// (or it failed its checksum before), ErrCorrupt when it fails its checksum
// now.
func (s *Store) Read(digest string, k Kind, key string) ([]byte, error) {
	sc, err := s.Open(digest, k, key)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	buf := bytes.NewBuffer(make([]byte, 0, sc.sec.n+bytes.MinRead))
	if _, err := buf.ReadFrom(sc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// markBad records that a section failed its checksum, if the file still
// holds it where it was read.
func (s *Store) markBad(digest string, sec section) {
	f := s.entry(digest, false)
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.secs {
		if c := &f.secs[i]; c.off == sec.off && c.kind == sec.kind && c.key == sec.key {
			c.bad = true
		}
	}
}

// Touch marks digest's file as used now, for GC's recency order. Reading
// does not touch: the caller decides what counts as use.
func (s *Store) Touch(digest string) {
	if f := s.entry(digest, false); f != nil {
		f.used.Store(s.tick())
	}
}

// GC drops result and response sections, every one of the
// least-recently-used trace's at a time, until at most max bytes of them
// remain, and returns how many it dropped.
func (s *Store) GC(max int64) int {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	dropped := 0
	for s.results.Load() > max {
		digest, f := s.leastUsed()
		if f == nil {
			break
		}
		n, err := s.dropResults(digest, f)
		if err != nil {
			break
		}
		dropped += n
	}
	return dropped
}

// leastUsed returns the least-recently-used file holding result or
// response sections.
func (s *Store) leastUsed() (string, *file) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var digest string
	var lru *file
	for d, f := range s.files {
		if f.results.Load() > 0 && (lru == nil || f.used.Load() < lru.used.Load()) {
			digest, lru = d, f
		}
	}
	return digest, lru
}

// dropResults rewrites a file without its result and response sections:
// the trace section and the latest good table go to a new file, renamed over
// the old. A file left with neither trace bytes nor a table is removed.
func (s *Store) dropResults(digest string, f *file) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.ok {
		return 0, nil
	}
	keep := f.secs[:1:1]
	dropped := 0
	for i, sec := range f.secs[1:] {
		switch {
		case sec.kind.keyed():
			dropped++
		case i+1 == f.find(sec.kind, sec.key):
			keep = append(keep, sec)
		}
	}
	if dropped == 0 {
		return 0, nil
	}
	path := s.Path(digest)
	if len(keep) == 1 && keep[0].n == 0 {
		if err := os.Remove(path); err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		s.reset(f, nil, 0)
		return dropped, nil
	}
	old, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer old.Close()
	tmp, err := os.CreateTemp(s.dir, TmpPrefix+"*")
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // nothing left to find once renamed
	secs, err := copySections(tmp, old, keep)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	used := f.used.Load()
	last := secs[len(secs)-1]
	s.reset(f, secs, last.off+last.n+trailerSize)
	f.used.Store(used)
	return dropped, nil
}

// copySections writes the kept sections of old to dst one after another,
// each with a trailer for its new offset, and returns them as placed.
func copySections(dst, old *os.File, keep []section) ([]section, error) {
	var off int64
	out := make([]section, 0, len(keep))
	for _, sec := range keep {
		if _, err := old.Seek(sec.off, io.SeekStart); err != nil {
			return nil, err
		}
		if _, err := io.CopyN(dst, old, sec.n); err != nil {
			return nil, err
		}
		sec.off = off
		if _, err := dst.Write(sec.trailer(off + sec.n)); err != nil {
			return nil, err
		}
		out = append(out, sec)
		off += sec.n + trailerSize
	}
	return out, nil
}
