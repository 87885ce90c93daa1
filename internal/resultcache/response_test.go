package resultcache

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"charmtrace/internal/core"
)

// entryBudget is what the resident entry for (digest, opt) lets its stored
// responses hold.
func entryBudget(t *testing.T, c *Cache, digest string, opt core.Options) int64 {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[KeyID(digest, opt.Fingerprint())]
	if !ok {
		t.Fatal("entry not resident")
	}
	return el.Value.(*entry).budget()
}

// sizedResponse is a response that costs its entry exactly n bytes.
func sizedResponse(n int64) *Response {
	return &Response{ContentType: "application/json", Wire: make([]byte, n-responseOverhead)}
}

// TestStoredResponsesBoundedPerEntry: an entry's stored responses never hold
// more than the entry's own accounted bytes — structure, table and built
// views; once they fill that bound, later responses are refused and none is
// dropped, and a miss reports the room that is left.
func TestStoredResponsesBoundedPerEntry(t *testing.T) {
	tr, digest := testTrace(t)
	iv := &countingView{bytes: 4000}
	c, err := New(Config{Dir: t.TempDir(), Index: iv.build})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	fp := opt.Fingerprint()
	s, err := c.Get(context.Background(), digest, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	bare := entryBudget(t, c, digest, opt)
	if bare != s.Bytes() {
		t.Fatalf("budget of an entry that holds its trace and no view = %d, want its structure's %d bytes", bare, s.Bytes())
	}
	if _, _, err := c.GetIndexed(context.Background(), digest, tr, opt); err != nil {
		t.Fatal(err)
	}
	budget := entryBudget(t, c, digest, opt)
	if budget != bare+iv.bytes {
		t.Fatalf("budget with the index built = %d, want %d", budget, bare+iv.bytes)
	}

	reg := c.Registry()
	gauge := reg.Gauge("cache.response_bytes")
	room := func() int64 { return c.ResponseRoom(digest, fp, "absent") }
	if got, want := room(), budget-responseOverhead; got != want {
		t.Fatalf("room of an entry with nothing stored = %d, want %d", got, want)
	}
	third := budget / 3
	for i := 0; i < 3; i++ {
		if !c.StoreResponse(digest, fp, fmt.Sprint("r", i), sizedResponse(third)) {
			t.Fatalf("r%d not stored", i)
		}
	}
	if got := gauge.Value(); got != float64(3*third) {
		t.Fatalf("cache.response_bytes = %v, want %d", got, 3*third)
	}
	if got, want := room(), budget-3*third-responseOverhead; got != max(want, 0) {
		t.Fatalf("room after three stores = %d, want %d", got, max(want, 0))
	}
	if c.StoreResponse(digest, fp, "r1", sizedResponse(third)) {
		t.Error("a key already stored was stored again")
	}
	if c.StoreResponse(digest, fp, "huge", sizedResponse(budget+1)) {
		t.Error("a response larger than the entry's budget was stored")
	}
	other := opt
	other.Reorder = !opt.Reorder
	if c.StoreResponse(digest, other.Fingerprint(), "r0", sizedResponse(third)) {
		t.Error("a response was stored for an entry that is not resident")
	}
	if room := c.ResponseRoom(digest, other.Fingerprint(), "r3"); room != 0 {
		t.Errorf("an entry that is not resident has room %d, want 0", room)
	}
	if room := c.ResponseRoom(digest, fp, "r0"); room != 0 {
		t.Errorf("a key already stored has room %d, want 0", room)
	}

	// The budget is full: r3 is refused, and r0–r2 stay.
	if c.StoreResponse(digest, fp, "r3", sizedResponse(third)) {
		t.Fatal("r3 was stored past the budget")
	}
	for key, want := range map[string]bool{"r0": true, "r1": true, "r2": true, "r3": false} {
		if resp, _ := c.LookupResponse(digest, fp, key); (resp != nil) != want {
			t.Errorf("after the bound: %s stored = %v, want %v", key, resp != nil, want)
		}
	}
	if got := gauge.Value(); got != float64(3*third) || got > float64(budget) {
		t.Errorf("cache.response_bytes = %v, want %d (budget %d)", got, 3*third, budget)
	}
	if got := counter(reg, "cache.response_stores"); got != 3 {
		t.Errorf("cache.response_stores = %d, want 3", got)
	}
	if got := counter(reg, "cache.response_hits"); got != 3 {
		t.Errorf("cache.response_hits = %d, want 3", got)
	}

	// A response the caller dropped past ResponseRoom counts as refused,
	// like "huge" and r3 above, unless nothing could have been stored
	// under its key: a key already stored, an entry not resident.
	c.RefuseResponse(digest, fp, "r4")
	c.RefuseResponse(digest, fp, "r0")
	c.RefuseResponse(digest, other.Fingerprint(), "r4")
	if got := counter(reg, "cache.response_refused"); got != 3 {
		t.Errorf("cache.response_refused = %d, want 3 (huge, r3, r4)", got)
	}
}

// spillsDone waits for the spills of the evictions made so far: they run on
// the flight goroutine after its waiters were released.
func spillsDone(c *Cache) { c.flightWG.Wait() }

// TestStoredResponsesSpillWithTheirEntry: evicting an entry takes its stored
// responses off the memory gauge and appends each to the trace's file, from
// which LookupResponse then serves it — the same bytes and headers, counted
// as a disk hit and a response hit. A response already on disk is not
// appended again when a later residency of the entry stores it once more. A
// miss on a resident entry neither counts a hit nor refreshes the entry's
// recency.
func TestStoredResponsesSpillWithTheirEntry(t *testing.T) {
	tr, digest := testTrace(t)
	c, err := New(Config{Dir: t.TempDir(), MaxMemEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	optA := core.DefaultOptions()
	optB, optC := optA, optA
	optB.Reorder = !optA.Reorder
	optC.InferDependencies = !optA.InferDependencies
	get := func(opt core.Options) {
		t.Helper()
		if _, err := c.Get(context.Background(), digest, tr, opt); err != nil {
			t.Fatal(err)
		}
		spillsDone(c)
	}
	get(optA)
	get(optB)
	fpA := optA.Fingerprint()
	k := &Response{ContentType: "application/json", ContentEncoding: "gzip", Wire: []byte("body"), BodyBytes: 11}
	if !c.StoreResponse(digest, fpA, "k", k) {
		t.Fatal("not stored")
	}
	reg := c.Registry()
	if reg.Gauge("cache.response_bytes").Value() == 0 {
		t.Fatal("cache.response_bytes did not count the stored response")
	}
	// A is the least recently used entry; a miss on it must leave it so.
	hits := counter(reg, "cache.mem_hits")
	if resp, _ := c.LookupResponse(digest, fpA, "other"); resp != nil {
		t.Fatal("an unstored key was found")
	}
	if got := counter(reg, "cache.mem_hits"); got != hits {
		t.Errorf("a response miss counted %d memory hits", got-hits)
	}
	if counter(reg, "cache.response_spills") != 0 {
		t.Fatal("a response was spilled before its entry was evicted")
	}
	get(optC)
	if _, ok := c.Lookup(digest, optA); ok {
		t.Fatal("entry A survived: the response miss refreshed its recency")
	}
	if got := reg.Gauge("cache.response_bytes").Value(); got != 0 {
		t.Errorf("cache.response_bytes = %v after the entry was evicted, want 0", got)
	}
	if got := counter(reg, "cache.response_spills"); got != 1 {
		t.Fatalf("cache.response_spills = %d after evicting one stored response, want 1", got)
	}
	diskHits, respHits := counter(reg, "cache.disk_hits"), counter(reg, "cache.response_hits")
	resp, outcome := c.LookupResponse(digest, fpA, "k")
	if resp == nil || outcome != OutcomeDisk {
		t.Fatalf("the spilled response: outcome %q, want %q", outcome, OutcomeDisk)
	}
	if resp.ContentType != k.ContentType || resp.ContentEncoding != k.ContentEncoding ||
		resp.BodyBytes != k.BodyBytes || !bytes.Equal(resp.Wire, k.Wire) {
		t.Errorf("spilled response read back as %+v, want %+v", resp, k)
	}
	if counter(reg, "cache.disk_hits") != diskHits+1 || counter(reg, "cache.response_hits") != respHits+1 {
		t.Error("a spilled response served was not counted as a disk hit and a response hit")
	}
	if _, ok := c.Lookup(digest, optA); ok {
		t.Error("serving a spilled response made its entry resident")
	}
	if resp, _ := c.LookupResponse(digest, optB.Fingerprint(), "k"); resp != nil {
		t.Error("a spilled response was served for another option set")
	}

	// A made resident again stores k once more, and k2: evicting it appends
	// k2 only.
	get(optA)
	for _, key := range []string{"k", "k2"} {
		if !c.StoreResponse(digest, fpA, key, k) {
			t.Fatalf("%s not stored on the resident entry", key)
		}
	}
	get(optB)
	get(optC)
	if got := counter(reg, "cache.response_spills"); got != 2 {
		t.Errorf("cache.response_spills = %d, want 2: k was appended again", got)
	}
	if resp, outcome := c.LookupResponse(digest, fpA, "k2"); resp == nil || outcome != OutcomeDisk {
		t.Errorf("k2: outcome %q, want %q", outcome, OutcomeDisk)
	}
}

// TestNoEvictionWritesNothing: while every entry stays resident, storing and
// serving responses writes nothing to disk: no trace file grows and nothing
// is counted in cache.response_spills.
func TestNoEvictionWritesNothing(t *testing.T) {
	tr, digest := testTrace(t)
	c, err := New(Config{Dir: t.TempDir(), MaxMemEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	optA := core.DefaultOptions()
	optB := optA
	optB.Reorder = !optA.Reorder
	for _, opt := range []core.Options{optA, optB} {
		if _, err := c.Get(context.Background(), digest, tr, opt); err != nil {
			t.Fatal(err)
		}
	}
	spillsDone(c)
	size := fileSize(t, c, digest)
	for i := 0; i < 3; i++ {
		for _, opt := range []core.Options{optA, optB} {
			fp := opt.Fingerprint()
			c.StoreResponse(digest, fp, fmt.Sprint("r", i), sizedResponse(responseOverhead+100))
			if resp, outcome := c.LookupResponse(digest, fp, fmt.Sprint("r", i)); resp == nil || outcome != OutcomeMem {
				t.Fatalf("r%d: outcome %q, want %q", i, outcome, OutcomeMem)
			}
			if _, err := c.Get(context.Background(), digest, tr, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	spillsDone(c)
	if got := fileSize(t, c, digest); got != size {
		t.Errorf("the trace's file grew from %d to %d bytes with no eviction", size, got)
	}
	if got := counter(c.Registry(), "cache.response_spills"); got != 0 {
		t.Errorf("cache.response_spills = %d with no eviction", got)
	}
}

// TestWireVersionHidesSpilledResponses: a response spilled under one wire
// version is unreachable to a cache that renders under another — a new
// binary after a restart renders again rather than serve an old render —
// and still reachable under its own.
func TestWireVersionHidesSpilledResponses(t *testing.T) {
	tr, digest := testTrace(t)
	dir := t.TempDir()
	c, err := New(Config{Dir: dir, MaxMemEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	optA := core.DefaultOptions()
	optB := optA
	optB.Reorder = !optA.Reorder
	fp := optA.Fingerprint()
	if _, err := c.Get(context.Background(), digest, tr, optA); err != nil {
		t.Fatal(err)
	}
	if !c.StoreResponse(digest, fp, "k", &Response{Wire: []byte("old render")}) {
		t.Fatal("not stored")
	}
	if _, err := c.Get(context.Background(), digest, tr, optB); err != nil {
		t.Fatal(err)
	}
	spillsDone(c)
	for _, tc := range []struct {
		wire int
		want bool
	}{{wireVersion + 1, false}, {wireVersion, true}} {
		reopened, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		reopened.wire = tc.wire
		if resp, _ := reopened.LookupResponse(digest, fp, "k"); (resp != nil) != tc.want {
			t.Errorf("wire version %d: spilled response found = %v, want %v", tc.wire, resp != nil, tc.want)
		}
	}
}

// TestCorruptSpilledResponseIsNotServed: a spilled response whose section
// fails its checksum is never served — the lookup misses and counts a disk
// error once — and the next eviction of its entry, with the response
// rendered and stored again, appends it anew.
func TestCorruptSpilledResponseIsNotServed(t *testing.T) {
	tr, digest := testTrace(t)
	c, err := New(Config{Dir: t.TempDir(), MaxMemEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	optA := core.DefaultOptions()
	optB := optA
	optB.Reorder = !optA.Reorder
	fp := optA.Fingerprint()
	k := &Response{ContentType: "application/json", Wire: bytes.Repeat([]byte("wire"), 64), BodyBytes: 256}
	cycle := func() { // stores k with A, then evicts A
		t.Helper()
		for i, opt := range []core.Options{optA, optB} {
			if _, err := c.Get(context.Background(), digest, tr, opt); err != nil {
				t.Fatal(err)
			}
			if i == 0 && !c.StoreResponse(digest, fp, "k", k) {
				t.Fatal("not stored")
			}
		}
		spillsDone(c)
	}
	cycle()
	// The spilled section is the last in the file; flip a byte of its wire.
	f, err := os.OpenFile(c.Store().Path(digest), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	at := info.Size() - 56 - 10 // 56: the store's trailer
	b := make([]byte, 1)
	f.ReadAt(b, at)
	f.WriteAt([]byte{b[0] ^ 0x40}, at)
	f.Close()
	reg := c.Registry()
	errs := counter(reg, "cache.disk_errors")
	for i := 0; i < 2; i++ {
		if resp, _ := c.LookupResponse(digest, fp, "k"); resp != nil {
			t.Fatalf("lookup %d: a spilled response that fails its checksum was served", i)
		}
	}
	if got := counter(reg, "cache.disk_errors") - errs; got != 1 {
		t.Errorf("%d disk errors counted for one damaged section, want 1", got)
	}
	cycle()
	if got := counter(reg, "cache.response_spills"); got != 2 {
		t.Errorf("cache.response_spills = %d, want 2: the damaged response was not spilled again", got)
	}
	if resp, outcome := c.LookupResponse(digest, fp, "k"); resp == nil || outcome != OutcomeDisk || !bytes.Equal(resp.Wire, k.Wire) {
		t.Errorf("after the re-spill: outcome %q", outcome)
	}
}

// TestSpilledResponseCodec: a spilled response's payload decodes to the
// response it was encoded from, and a payload cut inside its head is
// refused, never read past its end.
func TestSpilledResponseCodec(t *testing.T) {
	for _, r := range []*Response{
		{ContentType: "application/json", ContentEncoding: "gzip", Wire: []byte("\x1f\x8bwire"), BodyBytes: 1 << 40},
		{ContentType: "application/json", Wire: []byte(`{"a":1}`), BodyBytes: 7},
		{},
	} {
		parts := r.encode()
		payload := append(bytes.Clone(parts[0]), parts[1]...)
		got, err := decodeResponse(payload)
		if err != nil || got.ContentType != r.ContentType || got.ContentEncoding != r.ContentEncoding ||
			got.BodyBytes != r.BodyBytes || !bytes.Equal(got.Wire, r.Wire) {
			t.Errorf("%+v decoded as %+v (err %v)", r, got, err)
		}
		for cut := 0; cut < len(parts[0]); cut++ {
			if _, err := decodeResponse(payload[:cut]); err == nil {
				t.Errorf("%+v cut to %d of its %d head bytes decoded", r, cut, len(parts[0]))
			}
		}
	}
}
