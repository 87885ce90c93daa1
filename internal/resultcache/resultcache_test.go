package resultcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/core"
	"charmtrace/internal/store"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// testTrace returns the jacobi proxy trace plus its content digest.
func testTrace(t *testing.T) (*trace.Trace, string) {
	t.Helper()
	tr := jacobi.MustTrace(jacobi.DefaultConfig())
	var buf bytes.Buffer
	if err := tracefile.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return tr, tracefile.DigestBytes(buf.Bytes())
}

func counter(reg *telemetry.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

// diskEntry returns the result section the store holds for (digest, opt).
func diskEntry(t *testing.T, c *Cache, digest string, opt core.Options) ([]byte, error) {
	t.Helper()
	return c.Store().Read(digest, store.Result, KeyID(digest, opt.Fingerprint()))
}

// fileSize is the length of digest's file. For a trace nobody uploaded
// that holds one result, that is the result section plus the empty trace
// section's trailer: room on disk for that result, and not for two.
func fileSize(t *testing.T, c *Cache, digest string) int64 {
	t.Helper()
	info, err := os.Stat(c.Store().Path(digest))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// otherDigest is a second digest-shaped name for testTrace's trace, so that
// the disk store files results under two traces.
func otherDigest(digest string, i int) string {
	return KeyID(digest, fmt.Sprint("other trace ", i))
}

// TestNewRefusesEmptyDir: the cache has one storage path, the store in its
// directory, and a cache without one is refused with the setting named.
func TestNewRefusesEmptyDir(t *testing.T) {
	if _, err := New(Config{}); err == nil || !strings.Contains(err.Error(), "Dir") {
		t.Fatalf("New(Config{}) error = %v, want one naming Dir", err)
	}
}

func TestGetExtractsOnceThenHitsMemory(t *testing.T) {
	tr, digest := testTrace(t)
	c, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	s1, err := c.Get(context.Background(), digest, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Get(context.Background(), digest, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("memory hit returned a different structure pointer")
	}
	reg := c.Registry()
	if got := counter(reg, "cache.misses"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := counter(reg, "cache.mem_hits"); got != 1 {
		t.Errorf("mem_hits = %d, want 1", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if _, err := diskEntry(t, c, digest, opt); err != nil {
		t.Errorf("disk entry missing: %v", err)
	}
	// The extraction-latency histogram recorded the miss.
	snap := reg.Snapshot()
	if snap.Histograms["cache.extract_ms"].Count != 1 {
		t.Errorf("extract_ms count = %d, want 1", snap.Histograms["cache.extract_ms"].Count)
	}
}

// TestConcurrentRequestsCoalesce: K parallel requests for one uncached key
// run Extract exactly once; the followers share the leader's result.
func TestConcurrentRequestsCoalesce(t *testing.T) {
	tr, digest := testTrace(t)
	const K = 8
	gate := make(chan struct{})
	var calls atomic.Int64
	c, err := New(Config{
		Dir: t.TempDir(),
		Extract: func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
			calls.Add(1)
			<-gate
			return core.Extract(tr, opt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	results := make([]*core.Structure, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Get(context.Background(), digest, tr, opt)
		}(i)
	}
	// The leader is parked in Extract; wait until every follower has joined
	// its flight before releasing it.
	deadline := time.Now().Add(10 * time.Second)
	for counter(c.Registry(), "cache.coalesced") < K-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d followers joined the flight", counter(c.Registry(), "cache.coalesced"))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("request %d got a different structure", i)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("Extract ran %d times, want exactly 1", got)
	}
	if got := counter(c.Registry(), "cache.misses"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

// TestFollowerHonorsContext: a follower abandons the flight when its
// context expires while the leader keeps extracting.
func TestFollowerHonorsContext(t *testing.T) {
	tr, digest := testTrace(t)
	gate := make(chan struct{})
	c, err := New(Config{
		Dir: t.TempDir(),
		Extract: func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
			<-gate
			return core.Extract(tr, opt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), digest, tr, opt)
		leaderDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never registered its flight")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, digest, tr, opt); err != context.Canceled {
		t.Errorf("cancelled follower returned %v, want context.Canceled", err)
	}
	close(gate)
	if err := <-leaderDone; err != nil {
		t.Errorf("leader failed: %v", err)
	}
}

// TestDiskStoreSurvivesRestart: a second cache over the same directory
// serves the first cache's work from disk, byte-identical to a fresh
// extraction at a different parallelism.
func TestDiskStoreSurvivesRestart(t *testing.T) {
	tr, digest := testTrace(t)
	dir := t.TempDir()
	opt := core.DefaultOptions()
	opt.Parallelism = 4

	c1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Get(context.Background(), digest, tr, opt); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh cache, cold memory, same directory.
	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c2.Get(context.Background(), digest, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	reg := c2.Registry()
	if got := counter(reg, "cache.disk_hits"); got != 1 {
		t.Errorf("disk_hits = %d, want 1", got)
	}
	if got := counter(reg, "cache.misses"); got != 0 {
		t.Errorf("misses = %d, want 0", got)
	}

	// The stored bytes equal a fresh sequential extraction's encoding: the
	// cache never changes what the pipeline would have produced.
	seq := core.DefaultOptions()
	seq.Parallelism = 1
	fresh, err := core.Extract(tr, seq)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := core.EncodeStructure(&want, fresh); err != nil {
		t.Fatal(err)
	}
	stored, err := diskEntry(t, c2, digest, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, want.Bytes()) {
		t.Error("disk store bytes differ from a fresh sequential extraction")
	}
	var again bytes.Buffer
	s.Opts = seq // encoding includes the fingerprint, identical either way
	if err := core.EncodeStructure(&again, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Error("restart-served structure re-encodes differently from fresh extraction")
	}
}

// TestEvictionFallsBackToDisk: the LRU evicts beyond its bound, and an
// evicted key is served from disk, not re-extracted.
func TestEvictionFallsBackToDisk(t *testing.T) {
	tr, digest := testTrace(t)
	c, err := New(Config{Dir: t.TempDir(), MaxMemEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	optA := core.DefaultOptions()
	optB := core.DefaultOptions()
	optB.Reorder = false // distinct fingerprint, distinct key
	ctx := context.Background()
	if _, err := c.Get(ctx, digest, tr, optA); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, digest, tr, optB); err != nil {
		t.Fatal(err)
	}
	reg := c.Registry()
	if got := counter(reg, "cache.evictions"); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	missesBefore := counter(reg, "cache.misses")
	if _, err := c.Get(ctx, digest, tr, optA); err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "cache.misses"); got != missesBefore {
		t.Errorf("evicted key re-extracted (misses %d -> %d), want disk hit", missesBefore, got)
	}
	if got := counter(reg, "cache.disk_hits"); got != 1 {
		t.Errorf("disk_hits = %d, want 1", got)
	}
}

// TestCorruptDiskEntrySelfHeals: garbage on disk is counted, re-extracted
// and superseded by a valid entry.
func TestCorruptDiskEntrySelfHeals(t *testing.T) {
	tr, digest := testTrace(t)
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	if err := c.Store().Append(digest, store.Result, KeyID(digest, opt.Fingerprint()), []byte("not a structure")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(context.Background(), digest, tr, opt); err != nil {
		t.Fatal(err)
	}
	reg := c.Registry()
	if got := counter(reg, "cache.disk_errors"); got != 1 {
		t.Errorf("disk_errors = %d, want 1", got)
	}
	if got := counter(reg, "cache.misses"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	data, err := diskEntry(t, c, digest, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.DecodeStructure(bytes.NewReader(data), tr); err != nil {
		t.Errorf("healed disk entry does not decode: %v", err)
	}
}

// TestTimeoutThenRetryCoalesces: a leader whose context expires mid-flight
// gets its error immediately, and an immediate retry joins the
// still-running flight instead of starting a second extraction.
func TestTimeoutThenRetryCoalesces(t *testing.T) {
	tr, digest := testTrace(t)
	gate := make(chan struct{})
	var calls atomic.Int64
	c, err := New(Config{
		Dir: t.TempDir(),
		Extract: func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
			calls.Add(1)
			<-gate
			return core.Extract(tr, opt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()

	// A pre-cancelled context makes the timeout deterministic: the first Get
	// launches the flight, then immediately abandons it.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(cancelled, digest, tr, opt); err != context.Canceled {
		t.Fatalf("timed-out leader returned %v, want context.Canceled", err)
	}

	// Retry: must coalesce onto the surviving flight, not re-extract.
	retryDone := make(chan error, 1)
	var retried *core.Structure
	go func() {
		var err error
		retried, err = c.Get(context.Background(), digest, tr, opt)
		retryDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for counter(c.Registry(), "cache.coalesced") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("retry never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("Extract ran %d times, want exactly 1", got)
	}
	close(gate)
	if err := <-retryDone; err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if retried == nil {
		t.Fatal("retry returned nil structure")
	}
	if got := counter(c.Registry(), "cache.cancelled"); got != 0 {
		t.Errorf("cancelled = %d, want 0 (the flight itself was never cancelled)", got)
	}
}

// TestDetachedLeaderPopulatesCache: a flight every requester abandoned still
// runs to completion and populates the cache, so a later request is a
// memory hit, not a re-extraction.
func TestDetachedLeaderPopulatesCache(t *testing.T) {
	tr, digest := testTrace(t)
	gate := make(chan struct{})
	var calls atomic.Int64
	c, err := New(Config{
		Dir: t.TempDir(),
		Extract: func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
			calls.Add(1)
			<-gate
			return core.Extract(tr, opt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(cancelled, digest, tr, opt); err != context.Canceled {
		t.Fatalf("abandoning leader returned %v, want context.Canceled", err)
	}
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for c.Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned flight never populated the cache")
		}
		time.Sleep(time.Millisecond)
	}
	s, err := c.Get(context.Background(), digest, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("nil structure from populated cache")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("Extract ran %d times, want exactly 1", got)
	}
	if got := counter(c.Registry(), "cache.mem_hits"); got != 1 {
		t.Errorf("mem_hits = %d, want 1", got)
	}
}

// TestDetachedTimeoutCancelsFlight: the hard cap cancels an orphaned flight
// cooperatively via the extraction context, counted in cache.cancelled.
func TestDetachedTimeoutCancelsFlight(t *testing.T) {
	tr, digest := testTrace(t)
	c, err := New(Config{
		Dir:             t.TempDir(),
		DetachedTimeout: 50 * time.Millisecond,
		Extract: func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
			<-opt.Context.Done()
			return nil, opt.Context.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(context.Background(), digest, tr, core.DefaultOptions()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("capped flight returned %v, want context.DeadlineExceeded", err)
	}
	if got := counter(c.Registry(), "cache.cancelled"); got != 1 {
		t.Errorf("cancelled = %d, want 1", got)
	}
}

// TestDiskEntryMode: the trace's file, which holds the entries, lands
// world-readable (0644), not with os.CreateTemp's private 0600.
func TestDiskEntryMode(t *testing.T) {
	tr, digest := testTrace(t)
	c, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	if _, err := c.Get(context.Background(), digest, tr, opt); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(c.Store().Path(digest))
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Mode().Perm(); got != 0o644 {
		t.Errorf("disk entry mode = %o, want 644", got)
	}
}

// TestDiskGCEvictsOldestFirst: with MaxDiskBytes set, the
// least-recently-used trace's entry is evicted first and the newest survives.
func TestDiskGCEvictsOldestFirst(t *testing.T) {
	tr, digest := testTrace(t)
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	digestA, digestB := otherDigest(digest, 1), otherDigest(digest, 2)
	ctx := context.Background()
	if _, err := c.Get(ctx, digestA, tr, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, digestB, tr, opt); err != nil {
		t.Fatal(err)
	}
	c.maxDiskBytes = fileSize(t, c, digestB) // room for exactly the newer entry
	c.gcDisk()
	if _, err := diskEntry(t, c, digestA, opt); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("oldest entry survived GC (read err %v)", err)
	}
	if _, err := diskEntry(t, c, digestB, opt); err != nil {
		t.Errorf("newest entry evicted: %v", err)
	}
	if got := counter(c.Registry(), "cache.disk_evictions"); got != 1 {
		t.Errorf("disk_evictions = %d, want 1", got)
	}
}

// TestDiskReadRetriesTransientError: one transient read failure on an
// existing entry is retried, not treated as a miss.
func TestDiskReadRetriesTransientError(t *testing.T) {
	tr, digest := testTrace(t)
	dir := t.TempDir()
	c1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	if _, err := c1.Get(context.Background(), digest, tr, opt); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	read := c2.readResult
	c2.readResult = func(traceDigest, key string) ([]byte, error) {
		if reads.Add(1) == 1 {
			return nil, errors.New("simulated EIO")
		}
		return read(traceDigest, key)
	}
	if _, err := c2.Get(context.Background(), digest, tr, opt); err != nil {
		t.Fatal(err)
	}
	reg := c2.Registry()
	if got := counter(reg, "cache.disk_retries"); got != 1 {
		t.Errorf("disk_retries = %d, want 1", got)
	}
	if got := counter(reg, "cache.disk_hits"); got != 1 {
		t.Errorf("disk_hits = %d, want 1 (retry should have served the entry)", got)
	}
	if got := counter(reg, "cache.misses"); got != 0 {
		t.Errorf("misses = %d, want 0", got)
	}
}

// TestCloseDrainsFlights: Close waits for in-flight extractions, which
// still populate the cache, and subsequent Gets fail with ErrClosed.
func TestCloseDrainsFlights(t *testing.T) {
	tr, digest := testTrace(t)
	gate := make(chan struct{})
	c, err := New(Config{
		Dir: t.TempDir(),
		Extract: func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
			<-gate
			return core.Extract(tr, opt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(cancelled, digest, tr, core.DefaultOptions()); err != context.Canceled {
		t.Fatalf("leader returned %v, want context.Canceled", err)
	}
	closeDone := make(chan error, 1)
	go func() { closeDone <- c.Close(context.Background()) }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned %v before the flight drained", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-closeDone; err != nil {
		t.Errorf("Close = %v, want nil after clean drain", err)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1: drained flight must populate the cache", c.Len())
	}
	if _, err := c.Get(context.Background(), digest, tr, core.DefaultOptions()); err != ErrClosed {
		t.Errorf("post-Close Get = %v, want ErrClosed", err)
	}
}

// TestCloseDeadlineCancelsFlights: past its deadline, Close cancels
// outstanding flights cooperatively instead of hanging.
func TestCloseDeadlineCancelsFlights(t *testing.T) {
	tr, digest := testTrace(t)
	c, err := New(Config{
		Dir:             t.TempDir(),
		DetachedTimeout: -1, // no hard cap: only Close can stop this flight
		Extract: func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
			<-opt.Context.Done()
			return nil, opt.Context.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(cancelled, digest, tr, core.DefaultOptions()); err != context.Canceled {
		t.Fatalf("leader returned %v, want context.Canceled", err)
	}
	ctx, cancelClose := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelClose()
	if err := c.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Close = %v, want context.DeadlineExceeded", err)
	}
	if got := counter(c.Registry(), "cache.cancelled"); got != 1 {
		t.Errorf("cancelled = %d, want 1", got)
	}
}

// TestLookupPeeksMemoryOnly: Lookup serves memory hits without starting a
// flight or touching disk.
func TestLookupPeeksMemoryOnly(t *testing.T) {
	tr, digest := testTrace(t)
	c, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	if _, ok := c.Lookup(digest, opt); ok {
		t.Fatal("Lookup hit an empty cache")
	}
	want, err := c.Get(context.Background(), digest, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Lookup(digest, opt)
	if !ok || got != want {
		t.Errorf("Lookup = (%p, %v), want the cached structure", got, ok)
	}
	if n := counter(c.Registry(), "cache.mem_hits"); n != 1 {
		t.Errorf("mem_hits = %d, want 1", n)
	}
}
