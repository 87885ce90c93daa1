package resultcache

import (
	"context"
	"fmt"
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
		if _, ok := c.LookupResponse(digest, fp, key); ok != want {
			t.Errorf("after the bound: %s stored = %v, want %v", key, ok, want)
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

// TestStoredResponsesGoWithTheirEntry: evicting an entry drops its stored
// responses and takes their bytes off the gauge; a miss on a resident entry
// neither counts a hit nor refreshes the entry's recency.
func TestStoredResponsesGoWithTheirEntry(t *testing.T) {
	tr, digest := testTrace(t)
	c, err := New(Config{Dir: t.TempDir(), MaxMemEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	optA := core.DefaultOptions()
	optB, optC := optA, optA
	optB.Reorder = !optA.Reorder
	optC.InferDependencies = !optA.InferDependencies
	for _, opt := range []core.Options{optA, optB} {
		if _, err := c.Get(context.Background(), digest, tr, opt); err != nil {
			t.Fatal(err)
		}
	}
	if !c.StoreResponse(digest, optA.Fingerprint(), "k", &Response{Wire: []byte("body")}) {
		t.Fatal("not stored")
	}
	reg := c.Registry()
	if reg.Gauge("cache.response_bytes").Value() == 0 {
		t.Fatal("cache.response_bytes did not count the stored response")
	}
	// A is the least recently used entry; a miss on it must leave it so.
	hits := counter(reg, "cache.mem_hits")
	if _, ok := c.LookupResponse(digest, optA.Fingerprint(), "other"); ok {
		t.Fatal("an unstored key was found")
	}
	if got := counter(reg, "cache.mem_hits"); got != hits {
		t.Errorf("a response miss counted %d memory hits", got-hits)
	}
	if _, err := c.Get(context.Background(), digest, tr, optC); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(digest, optA); ok {
		t.Fatal("entry A survived: the response miss refreshed its recency")
	}
	if got := reg.Gauge("cache.response_bytes").Value(); got != 0 {
		t.Errorf("cache.response_bytes = %v after the entry was evicted, want 0", got)
	}
	if _, ok := c.LookupResponse(digest, optA.Fingerprint(), "k"); ok {
		t.Error("a response outlived its entry")
	}
}
