package resultcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"charmtrace/internal/core"
)

// TestDiskReadRefreshesRecency is the regression test for the mtime-LRU
// bug: the disk GC evicts least-recently-modified first, so a read must
// refresh the entry's mtime — otherwise an entry written long ago but read
// constantly (the hottest entry in the store) is the first one evicted,
// while an untouched sibling written later survives.
func TestDiskReadRefreshesRecency(t *testing.T) {
	tr, digest := testTrace(t)
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	optHot := core.DefaultOptions()
	optCold := core.DefaultOptions()
	optCold.Reorder = false
	ctx := context.Background()
	if _, err := c.Get(ctx, digest, tr, optHot); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, digest, tr, optCold); err != nil {
		t.Fatal(err)
	}
	hot, cold := c.DiskPath(digest, optHot), c.DiskPath(digest, optCold)
	// Backdate both entries, then make the hot one look backdated-but-read:
	// a fresh cache (cold memory) reads it from disk repeatedly.
	old := time.Now().Add(-time.Hour)
	for _, p := range []string{hot, cold} {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := New(Config{Dir: dir, MaxMemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c2.Get(ctx, digest, tr, optHot); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(c2.Registry(), "cache.disk_hits"); got != 3 {
		t.Fatalf("disk_hits = %d, want 3", got)
	}
	infoHot, err := os.Stat(hot)
	if err != nil {
		t.Fatal(err)
	}
	infoCold, err := os.Stat(cold)
	if err != nil {
		t.Fatal(err)
	}
	c2.maxDiskBytes = max(infoHot.Size(), infoCold.Size()) // room for one entry
	c2.gcDisk()
	if _, err := os.Stat(hot); err != nil {
		t.Errorf("repeatedly-read entry was evicted: %v", err)
	}
	if _, err := os.Stat(cold); !os.IsNotExist(err) {
		t.Errorf("untouched sibling survived GC (stat err %v)", err)
	}
}

// TestReadSummaryServesPhaseTable: the streaming summary read serves the
// phase table straight from the disk entry, counts as a disk hit, and
// refreshes the entry's recency; mismatched fingerprints and missing
// entries are clean ErrNoEntry fallbacks.
func TestReadSummaryServesPhaseTable(t *testing.T) {
	tr, digest := testTrace(t)
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	s, err := c.Get(context.Background(), digest, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyID(digest, opt.Fingerprint())
	path := c.DiskPath(digest, opt)
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}

	sum, err := c.ReadSummary(key, opt.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Fingerprint != opt.Fingerprint() {
		t.Errorf("summary fingerprint %q, want %q", sum.Fingerprint, opt.Fingerprint())
	}
	if len(sum.Phases) != s.NumPhases() || sum.MaxStep != s.MaxStep() || sum.DAGEdges != s.DAG.NumEdges() {
		t.Errorf("summary (%d phases, max step %d, %d edges) disagrees with structure (%d, %d, %d)",
			len(sum.Phases), sum.MaxStep, sum.DAGEdges, s.NumPhases(), s.MaxStep(), s.DAG.NumEdges())
	}
	if got := counter(c.Registry(), "cache.disk_hits"); got != 1 {
		t.Errorf("disk_hits = %d, want 1", got)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(old.Add(time.Minute)) {
		t.Errorf("summary read did not refresh mtime (still %v)", info.ModTime())
	}

	if _, err := c.ReadSummary(key, "different-fingerprint"); !errors.Is(err, ErrNoEntry) {
		t.Errorf("stale-fingerprint summary error = %v, want ErrNoEntry", err)
	}
	if got := counter(c.Registry(), "cache.disk_errors"); got != 1 {
		t.Errorf("disk_errors = %d, want 1 after fingerprint mismatch", got)
	}
	missing := "0000000000000000000000000000000000000000000000000000000000000000"
	if _, err := c.ReadSummary(missing, opt.Fingerprint()); !errors.Is(err, ErrNoEntry) {
		t.Errorf("missing-entry summary error = %v, want ErrNoEntry", err)
	}
	if _, err := c.ReadSummary("not-a-key", opt.Fingerprint()); !errors.Is(err, ErrNoEntry) {
		t.Errorf("invalid-key summary error = %v, want ErrNoEntry", err)
	}
}

// TestPeerFillRejectsOversizedEntry: a peer streaming more than
// MaxEntryBytes is a peer-fill miss — the body is abandoned at the limit
// (never buffered whole) and the cache extracts locally.
func TestPeerFillRejectsOversizedEntry(t *testing.T) {
	tr, digest := testTrace(t)
	opt := core.DefaultOptions()
	want, err := core.Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	entry := encodeStructure(t, want)

	c, err := New(Config{
		Dir:           t.TempDir(),
		MaxEntryBytes: int64(len(entry)) - 1, // one byte short of the real entry
		PeerFetch: func(ctx context.Context, d, k string) (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(entry)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Get(context.Background(), digest, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeStructure(t, s), entry) {
		t.Fatal("fallback extraction produced different bytes")
	}
	reg := c.Registry()
	if got := counter(reg, "cache.peer_misses"); got != 1 {
		t.Errorf("peer_misses = %d, want 1", got)
	}
	if got := counter(reg, "cache.peer_hits"); got != 0 {
		t.Errorf("peer_hits = %d, want 0", got)
	}
	if got := counter(reg, "cache.misses"); got != 1 {
		t.Errorf("misses = %d, want 1 (must have extracted locally)", got)
	}

	// The same entry under a sufficient limit is accepted.
	c2, err := New(Config{
		Dir:           t.TempDir(),
		MaxEntryBytes: int64(len(entry)),
		PeerFetch: func(ctx context.Context, d, k string) (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(entry)), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Get(context.Background(), digest, tr, opt); err != nil {
		t.Fatal(err)
	}
	if got := counter(c2.Registry(), "cache.peer_hits"); got != 1 {
		t.Errorf("peer_hits = %d, want 1 at the exact limit", got)
	}
}

// TestTouchRacesDiskGC interleaves the read-path mtime refresh (OpenEntry,
// ReadSummary, disk-hit Gets) with concurrent GC sweeps under a tiny
// bound. Run under -race in the tier-1 leg: a touch landing on an entry the
// sweep just unlinked must degrade to a no-op, never corrupt the store or
// fail a read that already has the file open.
func TestTouchRacesDiskGC(t *testing.T) {
	tr, digest := testTrace(t)
	opt := core.DefaultOptions()
	s, err := core.Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	entry := encodeStructure(t, s)
	dir := t.TempDir()
	c := seedingCache(t, dir, int64(len(entry))*2, s)
	fp := opt.Fingerprint()
	digests, keys := make([]string, 6), make([]string, 6)
	for i := range keys {
		digests[i] = fmt.Sprintf("%s-%d", digest, i)
		keys[i] = KeyID(digests[i], fp)
		if _, err := c.Get(context.Background(), digests[i], tr, opt); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers keep the store over budget so sweeps always evict.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Get(context.Background(), digests[i%len(digests)], tr, opt)
		}
	}()
	// Touchers exercise every read-side Chtimes path.
	for r := 0; r < 3; r++ {
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
				switch i % 2 {
				case 0:
					if rc, _, err := c.OpenEntry(k); err == nil {
						io.Copy(io.Discard, rc)
						rc.Close()
					}
				case 1:
					c.ReadSummary(k, fp)
				}
			}
		}(r)
	}
	deadline := time.After(5 * time.Second)
	for counter(c.Registry(), "cache.disk_evictions") < 20 {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("GC not exercised: %d evictions", counter(c.Registry(), "cache.disk_evictions"))
		default:
			c.gcDisk()
		}
	}
	close(stop)
	wg.Wait()
}
