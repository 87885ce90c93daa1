package resultcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// encodeStructure renders one structure to its canonical entry bytes.
func encodeStructure(t *testing.T, s *core.Structure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.EncodeStructure(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPeerFillServesWithoutExtraction: a miss whose peer has the entry must
// decode the peer's bytes, never run the extractor, persist the entry to
// disk, and report the peer outcome.
func TestPeerFillServesWithoutExtraction(t *testing.T) {
	tr, digest := testTrace(t)
	opt := core.DefaultOptions()
	want, err := core.Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	entryBytes := encodeStructure(t, want)

	extractions := atomic.Int64{}
	var gotKey, gotDigest string
	c, err := New(Config{
		Dir: t.TempDir(),
		Extract: func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
			extractions.Add(1)
			return core.Extract(tr, opt)
		},
		PeerFetch: func(ctx context.Context, traceDigest, key string) (io.ReadCloser, error) {
			gotDigest, gotKey = traceDigest, key
			return io.NopCloser(bytes.NewReader(entryBytes)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, rec := WithOutcomeRecorder(context.Background())
	s, err := c.Get(ctx, digest, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if extractions.Load() != 0 {
		t.Fatalf("peer fill ran %d extractions, want 0", extractions.Load())
	}
	if rec.Outcome() != OutcomePeer {
		t.Fatalf("outcome = %q, want %q", rec.Outcome(), OutcomePeer)
	}
	if gotDigest != digest || gotKey != KeyID(digest, opt.Fingerprint()) {
		t.Fatalf("peer fetch saw (%s, %s)", gotDigest, gotKey)
	}
	if counter(c.Registry(), "cache.peer_hits") != 1 || counter(c.Registry(), "cache.misses") != 0 {
		t.Fatalf("peer_hits=%d misses=%d", counter(c.Registry(), "cache.peer_hits"), counter(c.Registry(), "cache.misses"))
	}
	// Byte-identical to a locally extracted structure.
	if !bytes.Equal(encodeStructure(t, s), entryBytes) {
		t.Fatal("peer-filled structure is not byte-identical to the source entry")
	}
	// Persisted: the entry file exists and decodes.
	if _, err := os.Stat(c.DiskPath(digest, opt)); err != nil {
		t.Fatalf("peer-filled entry not persisted: %v", err)
	}
}

// TestPeerFillRejectsGarbageAndExtracts: transport errors, undecodable
// bytes and wrong-fingerprint entries are all peer-fill misses that fall
// back to a correct local extraction.
func TestPeerFillRejectsGarbageAndExtracts(t *testing.T) {
	tr, digest := testTrace(t)
	opt := core.DefaultOptions()
	mpOpt := core.MessagePassingOptions()
	wrongFP, err := core.Extract(tr, mpOpt)
	if err != nil {
		t.Fatal(err)
	}
	wrongBytes := encodeStructure(t, wrongFP)

	cases := map[string]func(ctx context.Context, d, k string) (io.ReadCloser, error){
		"transport error": func(ctx context.Context, d, k string) (io.ReadCloser, error) {
			return nil, errors.New("peer down")
		},
		"garbage bytes": func(ctx context.Context, d, k string) (io.ReadCloser, error) {
			return io.NopCloser(strings.NewReader("CSTRgarbage")), nil
		},
		"wrong fingerprint": func(ctx context.Context, d, k string) (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(wrongBytes)), nil
		},
	}
	for name, fetch := range cases {
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{Dir: t.TempDir(), PeerFetch: fetch})
			if err != nil {
				t.Fatal(err)
			}
			s, err := c.Get(context.Background(), digest, tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			if s == nil {
				t.Fatal("no structure")
			}
			if counter(c.Registry(), "cache.peer_misses") != 1 {
				t.Fatalf("peer_misses = %d, want 1", counter(c.Registry(), "cache.peer_misses"))
			}
			if counter(c.Registry(), "cache.misses") != 1 {
				t.Fatalf("misses = %d, want 1 (must have extracted)", counter(c.Registry(), "cache.misses"))
			}
		})
	}
}

// seedingCache returns a disk-only cache whose extractor hands back s, so a
// Get under any digest puts s's entry in the store (or reads it back)
// without running the pipeline — how the disk-store tests seed entries.
func seedingCache(t *testing.T, dir string, maxDiskBytes int64, s *core.Structure) *Cache {
	t.Helper()
	c, err := New(Config{
		Dir:           dir,
		MaxMemEntries: -1,
		MaxDiskBytes:  maxDiskBytes,
		Extract:       func(*trace.Trace, core.Options) (*core.Structure, error) { return s, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOpenEntryStreamsDiskEntry: the internal endpoint's zero-copy read
// returns exactly the bytes the extraction persisted, and a key with no
// entry is ErrNoEntry.
func TestOpenEntryStreamsDiskEntry(t *testing.T) {
	tr, digest := testTrace(t)
	opt := core.DefaultOptions()
	s, err := core.Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	entry := encodeStructure(t, s)
	key := KeyID(digest, opt.Fingerprint())

	c := seedingCache(t, t.TempDir(), 0, s)
	if _, err := c.Get(context.Background(), digest, tr, opt); err != nil {
		t.Fatal(err)
	}
	rc, size, err := c.OpenEntry(key)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if size != int64(len(entry)) {
		t.Fatalf("OpenEntry size %d, want %d", size, len(entry))
	}
	back, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, entry) {
		t.Fatal("entry bytes differ from the encoded structure")
	}
	if _, _, err := c.OpenEntry("missing0000000000000000000000000000000000000000000000000000000000"); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("missing entry error = %v, want ErrNoEntry", err)
	}
	if _, _, err := c.OpenEntry("not-a-key"); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("invalid key error = %v, want ErrNoEntry", err)
	}
}

// TestDiskGCRacingPeerStream is the satellite race test: a reader streaming
// an entry (the internal endpoint's zero-copy path) while the disk GC
// concurrently evicts it must always see either full, valid entry bytes or
// a clean ErrNoEntry — never a truncated stream or a crash. Run under
// -race in the tier-1 leg.
func TestDiskGCRacingPeerStream(t *testing.T) {
	tr, digest := testTrace(t)
	opt := core.DefaultOptions()
	s, err := core.Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	entry := encodeStructure(t, s)
	dir := t.TempDir()
	// A bound small enough that every new write forces an eviction sweep.
	c := seedingCache(t, dir, int64(len(entry))*2, s)
	digests, keys := make([]string, 8), make([]string, 8)
	for i := range keys {
		digests[i] = fmt.Sprintf("%s-%d", digest, i)
		keys[i] = KeyID(digests[i], opt.Fingerprint())
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: keep churning entries so the GC constantly evicts.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Get(context.Background(), digests[(i+w)%len(digests)], tr, opt); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(w)
	}
	// Readers: stream whatever is resident; every successful open must
	// yield the full entry even if GC unlinks the file mid-read.
	var served, fellBack atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(i+r)%len(keys)]
				rc, size, err := c.OpenEntry(k)
				if err != nil {
					if !errors.Is(err, ErrNoEntry) {
						t.Errorf("OpenEntry: %v", err)
						return
					}
					fellBack.Add(1) // the peer-fill caller would extract here
					continue
				}
				data, err := io.ReadAll(rc)
				rc.Close()
				if err != nil {
					t.Errorf("stream: %v", err)
					return
				}
				if int64(len(data)) != size || !bytes.Equal(data, entry) {
					t.Errorf("streamed %d bytes, want %d intact", len(data), size)
					return
				}
				served.Add(1)
			}
		}(r)
	}
	// Run until the race has provably been exercised from both sides —
	// full entries streamed AND entries evicted — with a deadline backstop.
	deadline := time.After(5 * time.Second)
	for served.Load() < 20 || counter(c.Registry(), "cache.disk_evictions") < 10 {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("race not exercised in time: served=%d evictions=%d",
				served.Load(), counter(c.Registry(), "cache.disk_evictions"))
		default:
			c.gcDisk()
		}
	}
	close(stop)
	wg.Wait()
	// The store must have converged under its bound (no leaked temp files).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			if info, err := de.Info(); err == nil && info.Size() > 0 {
				t.Errorf("leaked temp file %s", de.Name())
			}
		}
	}
}
