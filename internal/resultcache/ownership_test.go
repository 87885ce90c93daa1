package resultcache

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"sync/atomic"
	"testing"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// hookedCache is a cache whose Trace and Table hooks serve one trace and
// count their calls.
func hookedCache(t *testing.T, dir string, tr *trace.Trace, cfg Config) (c *Cache, traces, tables *atomic.Int64) {
	t.Helper()
	traces, tables = new(atomic.Int64), new(atomic.Int64)
	cfg.Dir = dir
	cfg.Trace = func(context.Context, string) (*trace.Trace, error) { traces.Add(1); return tr, nil }
	cfg.Table = func(context.Context, string) (*trace.Table, error) { tables.Add(1); return tr.Table(), nil }
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, traces, tables
}

// TestTraceOwnershipFollowsTheCaller: a Get that supplies the trace gets a
// structure holding it, as ever; a Get that does not has the cache resolve
// the digest through its hooks — the trace on a true miss only, the table
// on a disk hit or peer fill only, neither on a memory hit — and the entry
// it inserts holds its table and no trace.
func TestTraceOwnershipFollowsTheCaller(t *testing.T) {
	tr, digest := testTrace(t)
	dir := t.TempDir()
	opt, ctx := core.DefaultOptions(), context.Background()

	c, traces, tables := hookedCache(t, dir, tr, Config{})
	s, err := c.Get(ctx, digest, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trace != nil || s.Table() != tr.Table() {
		t.Error("a structure extracted through the Trace hook was inserted holding the trace")
	}
	if traces.Load() != 1 || tables.Load() != 0 {
		t.Errorf("true miss: %d Trace calls, %d Table calls; want 1, 0", traces.Load(), tables.Load())
	}
	if _, err := c.Get(ctx, digest, nil, opt); err != nil || traces.Load() != 1 || tables.Load() != 0 {
		t.Errorf("memory hit touched a hook (%d, %d, err %v)", traces.Load(), tables.Load(), err)
	}
	if got, want := c.Registry().Gauge("cache.table_bytes").Value(), float64(tr.Table().Bytes()); got != want {
		t.Errorf("cache.table_bytes = %v, want %v", got, want)
	}

	// A new process over the same directory: the entry is a disk hit.
	c2, traces, tables := hookedCache(t, dir, tr, Config{MaxMemEntries: 1})
	s2, err := c2.Get(ctx, digest, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Trace != nil || traces.Load() != 0 || tables.Load() != 1 || counter(c2.Registry(), "cache.disk_hits") != 1 {
		t.Errorf("disk hit: Trace %v, %d Trace calls, %d Table calls, %d disk hits; want nil, 0, 1, 1",
			s2.Trace != nil, traces.Load(), tables.Load(), counter(c2.Registry(), "cache.disk_hits"))
	}
	// The same cache, a caller that has the trace: its structure keeps it,
	// and evicting the trace-less entry gives its table's bytes back.
	mp := core.MessagePassingOptions()
	s3, err := c2.Get(ctx, digest, tr, mp)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Trace != tr || traces.Load() != 0 || tables.Load() != 1 {
		t.Errorf("caller-supplied trace: Structure.Trace kept = %v, hooks called (%d, %d)", s3.Trace == tr, traces.Load(), tables.Load())
	}
	if got := c2.Registry().Gauge("cache.table_bytes").Value(); got != 0 {
		t.Errorf("cache.table_bytes = %v after the only trace-less entry was evicted", got)
	}

	// A peer fill decodes against the table too.
	entry, err := os.ReadFile(c.DiskPath(digest, opt))
	if err != nil {
		t.Fatal(err)
	}
	c3, traces, tables := hookedCache(t, t.TempDir(), tr, Config{
		PeerFetch: func(context.Context, string, string) (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(entry)), nil
		},
	})
	if s, err := c3.Get(ctx, digest, nil, opt); err != nil || s.Trace != nil || traces.Load() != 0 || tables.Load() != 1 ||
		counter(c3.Registry(), "cache.peer_hits") != 1 {
		t.Errorf("peer fill: err %v, %d Trace calls, %d Table calls, %d peer hits", err, traces.Load(), tables.Load(), counter(c3.Registry(), "cache.peer_hits"))
	}
}

// TestHookFailureFailsTheRequestOnly: a hook error is the request's error,
// wrapped for errors.Is, and is not remembered — the next Get asks again.
func TestHookFailureFailsTheRequestOnly(t *testing.T) {
	tr, digest := testTrace(t)
	errGone := errors.New("trace file gone")
	fail := true
	c, err := New(Config{
		Dir: t.TempDir(),
		Trace: func(context.Context, string) (*trace.Trace, error) {
			if fail {
				return nil, errGone
			}
			return tr, nil
		},
		Table: func(context.Context, string) (*trace.Table, error) { return nil, errGone },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(context.Background(), digest, nil, core.DefaultOptions()); !errors.Is(err, errGone) {
		t.Fatalf("Get with a failing Trace hook: %v", err)
	}
	if got := counter(c.Registry(), "cache.misses"); got != 0 {
		t.Errorf("a miss that never extracted was counted (%d)", got)
	}
	fail = false
	if _, err := c.Get(context.Background(), digest, nil, core.DefaultOptions()); err != nil {
		t.Fatalf("Get after the hook recovered: %v", err)
	}
	if _, _, err := (&Cache{}).decode(context.Background(), digest, nil, nil); err == nil {
		t.Error("decode with neither a trace nor a Table hook succeeded")
	}
}
