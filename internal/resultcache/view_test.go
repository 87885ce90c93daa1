package resultcache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// countingView is a Config.Index / Config.Aux builder that counts
// constructions and tags each value with the structure it was built from.
type countingView struct {
	mu     sync.Mutex
	builds int
	bytes  int64
}

type fakeView struct{ s *core.Structure }

func (cv *countingView) build(s *core.Structure) (any, int64) {
	cv.mu.Lock()
	cv.builds++
	cv.mu.Unlock()
	return &fakeView{s: s}, cv.bytes
}

// viewSlot is one of the cache's derived-view slots as the exported API
// presents it: the Config field that installs its builder, its Get/Lookup
// pair, and the metric-name infix. Every slot test below runs over both.
type viewSlot struct {
	name    string // metrics are cache.<name>_{builds,hits,bytes}
	bytes   int64  // what this slot's countingView reports per value
	install func(cfg *Config, build func(*core.Structure) (any, int64))
	get     func(c *Cache, ctx context.Context, digest string, tr *trace.Trace, opt core.Options) (*core.Structure, any, error)
	lookup  func(c *Cache, digest string, opt core.Options) (*core.Structure, any, bool)
}

var viewSlots = []viewSlot{
	{
		name: "index", bytes: 1000,
		install: func(cfg *Config, b func(*core.Structure) (any, int64)) { cfg.Index = b },
		get:     (*Cache).GetIndexed,
		lookup:  (*Cache).LookupIndexed,
	},
	{
		name: "aux", bytes: 500,
		install: func(cfg *Config, b func(*core.Structure) (any, int64)) { cfg.Aux = b },
		get:     (*Cache).GetAux,
		lookup:  (*Cache).LookupAux,
	},
}

// forEachSlot runs fn once per slot as a subtest, handing it a fresh
// counting builder and a cache with cfg, a temporary Dir and that builder
// installed.
func forEachSlot(t *testing.T, cfg Config, fn func(t *testing.T, sl viewSlot, cv *countingView, c *Cache)) {
	for _, sl := range viewSlots {
		t.Run(sl.name, func(t *testing.T) {
			cv := &countingView{bytes: sl.bytes}
			conf := cfg
			conf.Dir = t.TempDir()
			sl.install(&conf, cv.build)
			c, err := New(conf)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, sl, cv, c)
		})
	}
}

func (sl viewSlot) gauge(c *Cache) float64 {
	return c.Registry().Gauge("cache." + sl.name + "_bytes").Value()
}

func TestGetViewBuildsOncePerEntry(t *testing.T) {
	tr, digest := testTrace(t)
	forEachSlot(t, Config{}, func(t *testing.T, sl viewSlot, cv *countingView, c *Cache) {
		opt := core.DefaultOptions()
		s1, v1, err := sl.get(c, context.Background(), digest, tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		s2, v2, err := sl.get(c, context.Background(), digest, tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if v1 == nil || v1 != v2 {
			t.Errorf("views differ across hits: %p vs %p", v1, v2)
		}
		if fv := v1.(*fakeView); fv.s != s1 || s1 != s2 {
			t.Error("view not built against the cached structure")
		}
		if cv.builds != 1 {
			t.Errorf("view built %d times, want 1", cv.builds)
		}
		reg := c.Registry()
		if got := counter(reg, "cache."+sl.name+"_builds"); got != 1 {
			t.Errorf("%s_builds = %d, want 1", sl.name, got)
		}
		if got := counter(reg, "cache."+sl.name+"_hits"); got != 1 {
			t.Errorf("%s_hits = %d, want 1", sl.name, got)
		}
		if got := sl.gauge(c); got != float64(sl.bytes) {
			t.Errorf("%s_bytes = %v, want %d", sl.name, got, sl.bytes)
		}
	})
}

func TestLookupViewPeeksAndBuilds(t *testing.T) {
	tr, digest := testTrace(t)
	forEachSlot(t, Config{}, func(t *testing.T, sl viewSlot, cv *countingView, c *Cache) {
		opt := core.DefaultOptions()
		if _, _, ok := sl.lookup(c, digest, opt); ok {
			t.Fatal("lookup hit an empty cache")
		}
		if cv.builds != 0 {
			t.Fatalf("miss built a view (%d builds)", cv.builds)
		}
		if _, err := c.Get(context.Background(), digest, tr, opt); err != nil {
			t.Fatal(err)
		}
		s, v, ok := sl.lookup(c, digest, opt)
		if !ok || s == nil || v == nil {
			t.Fatalf("lookup after Get: ok=%v s=%v view=%v", ok, s, v)
		}
		if cv.builds != 1 {
			t.Errorf("view built %d times, want 1", cv.builds)
		}
	})
}

// TestAuxIndependentOfIndex: the two derived slots build and account
// independently on one entry — requesting one never constructs the other.
func TestAuxIndependentOfIndex(t *testing.T) {
	tr, digest := testTrace(t)
	ci := &countingView{bytes: 1000}
	ca := &countingView{bytes: 500}
	c, err := New(Config{Dir: t.TempDir(), Index: ci.build, Aux: ca.build})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	if _, _, err := c.GetIndexed(context.Background(), digest, tr, opt); err != nil {
		t.Fatal(err)
	}
	if ca.builds != 0 {
		t.Fatalf("GetIndexed built the aux value (%d builds)", ca.builds)
	}
	if _, _, err := c.GetAux(context.Background(), digest, tr, opt); err != nil {
		t.Fatal(err)
	}
	if ci.builds != 1 || ca.builds != 1 {
		t.Fatalf("builds: index=%d aux=%d, want 1/1", ci.builds, ca.builds)
	}
	reg := c.Registry()
	if got := reg.Gauge("cache.index_bytes").Value(); got != 1000 {
		t.Errorf("index_bytes = %v, want 1000", got)
	}
	if got := reg.Gauge("cache.aux_bytes").Value(); got != 500 {
		t.Errorf("aux_bytes = %v, want 500", got)
	}
}

// TestViewBytesReleasedOnEviction: evicting an entry whose view was built
// subtracts its bytes from the gauge, so the gauge tracks resident views
// only.
func TestViewBytesReleasedOnEviction(t *testing.T) {
	tr, digest := testTrace(t)
	forEachSlot(t, Config{MaxMemEntries: 1}, func(t *testing.T, sl viewSlot, cv *countingView, c *Cache) {
		optA := core.DefaultOptions()
		if _, _, err := sl.get(c, context.Background(), digest, tr, optA); err != nil {
			t.Fatal(err)
		}
		if got := sl.gauge(c); got != float64(sl.bytes) {
			t.Fatalf("%s_bytes after build = %v, want %d", sl.name, got, sl.bytes)
		}

		// A second key (different options fingerprint) evicts the first from
		// the 1-entry LRU; its view bytes must be released.
		optB := optA
		optB.Reorder = !optA.Reorder
		if _, _, err := sl.get(c, context.Background(), digest, tr, optB); err != nil {
			t.Fatal(err)
		}
		if c.Len() != 1 {
			t.Fatalf("Len = %d, want 1", c.Len())
		}
		if got := sl.gauge(c); got != float64(sl.bytes) {
			t.Errorf("%s_bytes after eviction+rebuild = %v, want %d", sl.name, got, sl.bytes)
		}
		if got := counter(c.Registry(), "cache."+sl.name+"_builds"); got != 2 {
			t.Errorf("%s_builds = %d, want 2", sl.name, got)
		}
	})
}

// TestGetViewWithoutMemoryLayer: with the memory layer disabled every get
// builds a transient view (never accounted in the gauge) — degraded but
// correct.
func TestGetViewWithoutMemoryLayer(t *testing.T) {
	tr, digest := testTrace(t)
	forEachSlot(t, Config{MaxMemEntries: -1}, func(t *testing.T, sl viewSlot, cv *countingView, c *Cache) {
		opt := core.DefaultOptions()
		for i := 0; i < 2; i++ {
			_, v, err := sl.get(c, context.Background(), digest, tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			if v == nil {
				t.Fatal("nil view")
			}
		}
		if cv.builds != 2 {
			t.Errorf("view built %d times, want 2 (transient per request)", cv.builds)
		}
		if got := sl.gauge(c); got != 0 {
			t.Errorf("%s_bytes = %v, want 0 (transient views are unaccounted)", sl.name, got)
		}
	})
}

// TestGetViewNilBuilder: without its Config builder a slot's accessors
// degrade to Get/Lookup with a nil view.
func TestGetViewNilBuilder(t *testing.T) {
	tr, digest := testTrace(t)
	for _, sl := range viewSlots {
		t.Run(sl.name, func(t *testing.T) {
			c, err := New(Config{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			opt := core.DefaultOptions()
			s, v, err := sl.get(c, context.Background(), digest, tr, opt)
			if err != nil || s == nil || v != nil {
				t.Fatalf("get = (%v, %v, %v), want (structure, nil, nil)", s, v, err)
			}
			if _, v, ok := sl.lookup(c, digest, opt); !ok || v != nil {
				t.Fatalf("lookup = (_, %v, %v), want (_, nil, true)", v, ok)
			}
		})
	}
}

// TestConcurrentViewRequestsBuildOnce: K concurrent requests for one
// resident entry's view share a single build.
func TestConcurrentViewRequestsBuildOnce(t *testing.T) {
	tr, digest := testTrace(t)
	forEachSlot(t, Config{}, func(t *testing.T, sl viewSlot, cv *countingView, c *Cache) {
		opt := core.DefaultOptions()
		if _, err := c.Get(context.Background(), digest, tr, opt); err != nil {
			t.Fatal(err)
		}
		const K = 8
		vals := make([]any, K)
		var wg sync.WaitGroup
		for i := 0; i < K; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, v, err := sl.get(c, context.Background(), digest, tr, opt)
				if err != nil {
					t.Error(err)
					return
				}
				vals[i] = v
			}(i)
		}
		wg.Wait()
		if cv.builds != 1 {
			t.Errorf("view built %d times under concurrency, want 1", cv.builds)
		}
		for i := 1; i < K; i++ {
			if vals[i] != vals[0] {
				t.Fatalf("request %d got a different view", i)
			}
		}
	})
}

// growingView is a view value whose size grows after it is built, as a LOD
// pyramid's does when queries build its levels.
type growingView struct{ bytes atomic.Int64 }

func (g *growingView) Bytes() int64 { return g.bytes.Load() }

// TestViewBytesFollowGrowth: RefreshViewBytes re-measures a value with a
// Bytes method, so the gauge follows its growth while the entry is
// resident, and drops to 0 once it is evicted.
func TestViewBytesFollowGrowth(t *testing.T) {
	tr, digest := testTrace(t)
	for _, sl := range viewSlots {
		t.Run(sl.name, func(t *testing.T) {
			g := &growingView{}
			g.bytes.Store(100)
			conf := Config{Dir: t.TempDir(), MaxMemEntries: 1}
			sl.install(&conf, func(*core.Structure) (any, int64) { return g, g.Bytes() })
			c, err := New(conf)
			if err != nil {
				t.Fatal(err)
			}
			optA := core.DefaultOptions()
			if _, _, err := sl.get(c, context.Background(), digest, tr, optA); err != nil {
				t.Fatal(err)
			}
			if got := sl.gauge(c); got != 100 {
				t.Fatalf("%s_bytes after build = %v, want 100", sl.name, got)
			}
			for _, n := range []int64{250, 400} {
				g.bytes.Store(n)
				if _, _, ok := sl.lookup(c, digest, optA); !ok {
					t.Fatal("entry not resident")
				}
				c.RefreshViewBytes()
				if got := sl.gauge(c); got != float64(n) {
					t.Fatalf("%s_bytes after growth to %d and a refresh = %v", sl.name, n, got)
				}
			}
			optB := optA
			optB.Reorder = !optA.Reorder
			if _, err := c.Get(context.Background(), digest, tr, optB); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := sl.lookup(c, digest, optA); ok {
				t.Fatal("first entry still resident")
			}
			if got := sl.gauge(c); got != 0 {
				t.Errorf("%s_bytes after eviction = %v, want 0", sl.name, got)
			}
		})
	}
}
