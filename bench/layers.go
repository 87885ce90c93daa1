package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"time"

	"charmtrace/internal/cluster"
	"charmtrace/internal/core"
	"charmtrace/internal/lod"
	"charmtrace/internal/metrics"
	"charmtrace/internal/query"
	"charmtrace/internal/resultcache"
	"charmtrace/internal/server"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// The traced run. It replays a fixed sample of a workload's operations
// in-process, outside-in: first through the layer a client reaches
// (server.Server.ServeHTTP on a recorder), then through each layer below it
// on private instances (a resultcache whose exported Extract/Index/Aux
// hooks are wrapped so their spans are real children; tracefile, core,
// query and lod called directly). Every call is bracketed by a span.
//
// This file is the only one that imports the program's internal layers, so
// a change to a layer's public API has one place to land here.

// Span names: the public function each span brackets.
const (
	spDecode    = "tracefile.ReadAutoDigest"
	spExtract   = "core.Extract"
	spMetrics   = "metrics.Compute"
	spEncode    = "core.EncodeStructure"
	spDecodeS   = "core.DecodeStructure"
	spSummary   = "core.DecodeStructureSummary"
	spIndex     = "query.BuildIndex"
	spPyramid   = "lod.Build"
	spReIndex   = "query.BuildIndex(rebuild)"
	spRePyramid = "lod.Build(rebuild)"
	spQueryRun  = "query.Run"
	spLodQuery  = "lod.Query"
	spRender    = "encoding/json.Marshal"
	spLookup    = "resultcache.Lookup"
	spGet       = "resultcache.Get"
	spHandler   = "server.ServeHTTP/"           // + route
	spIdentity  = "server.ServeHTTP(identity)/" // + route
)

// mallocs reads the process-wide allocation count. The replay is
// single-threaded apart from the workers a layer starts itself, so a
// difference across a call is that call's.
func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// replay runs the traced run of one workload.
func (h *harness) replay(ctx context.Context, workload string, seed int64, quick bool) (*traceRun, error) {
	t := newTraceRun()
	var err error
	if workload == wlBatch {
		err = t.replayBatch(seed, quick)
	} else {
		err = t.replayServed(ctx, h, workload, seed, quick)
	}
	if err != nil {
		return nil, err
	}
	t.summarise()
	return t, nil
}

// ---- batch-extract ------------------------------------------------------

// decode brackets one trace decode and pools its cost per event.
func (t *traceRun) decode(parent int, data []byte) (*trace.Trace, error) {
	var tr *trace.Trace
	var err error
	m0 := mallocs()
	d := t.in(spDecode, parent, func(int) { tr, _, err = tracefile.ReadAutoDigest(bytes.NewReader(data)) })
	m1 := mallocs()
	if err != nil {
		return nil, err
	}
	t.pool("decode.ns", float64(d))
	t.pool("decode.mallocs", m1-m0)
	t.pool("decode.events", float64(len(tr.Events)))
	return tr, nil
}

// extract brackets one extraction, lays its stages out from the public
// Stats and pools time, enforce rounds and — when countAllocs — allocations
// per event. Reading the allocation count stops the world, so the cache
// hook, whose caller's self time is itself a metric, leaves it out.
func (t *traceRun) extract(parent int, tr *trace.Trace, opt core.Options, countAllocs bool) (*core.Structure, error) {
	var s *core.Structure
	var err error
	var id int
	m0 := 0.0
	if countAllocs {
		m0 = mallocs()
	}
	d := t.in(spExtract, parent, func(i int) { id = i; s, err = core.Extract(tr, opt) })
	if err != nil {
		return nil, err
	}
	if countAllocs {
		t.pool("extract.mallocs", mallocs()-m0)
		t.pool("extract.malloc_events", float64(len(tr.Events)))
	}
	t.pool("extract.ns", float64(d))
	t.pool("extract.events", float64(len(tr.Events)))
	t.pool("extract.rounds", float64(s.Stats.EnforceRounds))
	t.pool("extract.calls", 1)
	t.mu.Lock()
	at := t.spans[id].Start
	t.mu.Unlock()
	for _, stage := range core.StageOrder {
		sd := s.Stats.StageTime[stage]
		t.lay("core.stage/"+stage, id, at, sd)
		t.pool("stage."+stage, float64(sd))
		at += sd
	}
	return s, nil
}

func (t *traceRun) replayBatch(seed int64, quick bool) error {
	specs := K.BatchTraces
	if quick {
		specs = []traceSpec{{Name: "lulesh", App: "lulesh"}}
	}
	traces, err := buildBatch(seed, specs)
	if err != nil {
		return err
	}
	biggest := traces[0]
	for _, in := range traces {
		root := t.newOp("op batch-extract/" + in.spec.Name)
		tr, err := t.decode(root, in.data)
		if err != nil {
			return err
		}
		s, err := t.extract(root, tr, in.opts, true)
		if err != nil {
			return err
		}
		d := t.in(spMetrics, root, func(int) { metrics.Compute(s) })
		t.pool("metrics.ns", float64(d))
		t.pool("metrics.events", float64(in.events()))
		t.end(root)
		if in.events() > biggest.events() {
			biggest = in
		}
	}

	// core.par_speedup: the largest trace at one worker and at every core.
	root := t.newOp("probe core.par_speedup/" + biggest.spec.Name)
	wall := func(par int) float64 {
		var runs []float64
		for rep := 0; rep < 3; rep++ {
			opt := biggest.opts
			opt.Parallelism = par
			d := t.in(fmt.Sprintf("core.Extract(parallelism=%d)", par), root, func(int) { _, err = core.Extract(biggest.tr, opt) })
			runs = append(runs, float64(d))
		}
		return median(runs)
	}
	one, all := wall(1), wall(runtime.NumCPU())
	t.end(root)
	if err != nil {
		return err
	}
	t.metrics["core.par_speedup"] = metric{Value: ratio(one, all)}

	// core.batch_speedup: a serial loop against ExtractBatch over medium
	// traces that share one option set.
	pool, err := buildPool(seed, 2)
	if err != nil {
		return err
	}
	var medium []*trace.Trace
	for _, in := range pool {
		if in.spec.Preset == "" && len(medium) < K.ReplayBatchTraces {
			medium = append(medium, in.tr)
		}
	}
	root = t.newOp("probe core.batch_speedup")
	var serial, batch []float64
	for rep := 0; rep < 3; rep++ {
		serial = append(serial, float64(t.in("core.Extract x"+fmt.Sprint(len(medium)), root, func(int) {
			for _, tr := range medium {
				if _, e := core.Extract(tr, core.DefaultOptions()); e != nil {
					err = e
				}
			}
		})))
		batch = append(batch, float64(t.in("core.ExtractBatch", root, func(int) {
			if _, e := core.ExtractBatch(medium, core.DefaultOptions()); e != nil {
				err = e
			}
		})))
	}
	t.end(root)
	t.metrics["core.batch_speedup"] = metric{Value: ratio(median(serial), median(batch))}
	return err
}

// ---- served workloads ---------------------------------------------------

// cacheProbe is a private resultcache whose hooks record spans under
// whichever span is current.
type cacheProbe struct {
	t       *traceRun
	c       *resultcache.Cache
	current int  // parent for hook spans
	rebuild bool // hooks fire because an entry was evicted, not first built
}

func (t *traceRun) newCacheProbe(dir string, memEntries int) (*cacheProbe, error) {
	p := &cacheProbe{t: t}
	var err error
	p.c, err = resultcache.New(resultcache.Config{
		Dir:           dir,
		MaxMemEntries: memEntries,
		Extract: func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
			return t.extract(p.current, tr, opt, false)
		},
		Index: func(s *core.Structure) (any, int64) {
			name := spIndex
			if p.rebuild {
				name = spReIndex
			}
			var idx *query.Index
			d := t.in(name, p.current, func(int) { idx = query.BuildIndex(s) })
			t.pool("index.ns", float64(d))
			t.pool("index.bytes", float64(idx.Bytes()))
			t.pool("index.events", float64(len(s.Trace.Events)))
			return idx, idx.Bytes()
		},
		Aux: func(s *core.Structure) (any, int64) {
			name := spPyramid
			if p.rebuild {
				name = spRePyramid
			}
			var pyr *lod.Pyramid
			d := t.in(name, p.current, func(int) { pyr = lod.Build(s, nil) })
			t.pool("pyramid.ns", float64(d))
			t.pool("pyramid.bytes", float64(pyr.Bytes()))
			t.pool("pyramid.events", float64(len(s.Trace.Events)))
			return pyr, pyr.Bytes()
		},
	})
	return p, err
}

// want says which derived value a fetch needs beside the structure.
type want int

const (
	wantStructure want = iota
	wantIndex
	wantPyramid
)

// fetch resolves one (trace, derived value) the way the serving layer does:
// a memory lookup first, the full Get on a miss. The span is named after
// the tier that answered.
func (p *cacheProbe) fetch(parent int, in *traceInput, w want) (*core.Structure, any, error) {
	var s *core.Structure
	var v any
	var ok bool
	id := p.t.begin(spLookup, parent)
	p.current = id
	switch w {
	case wantIndex:
		s, v, ok = p.c.LookupIndexed(in.digest, in.opts)
	case wantPyramid:
		s, v, ok = p.c.LookupAux(in.digest, in.opts)
	default:
		s, ok = p.c.Lookup(in.digest, in.opts)
	}
	p.t.end(id)
	if ok {
		p.t.rename(id, spLookup+"(mem)")
		return s, v, nil
	}
	p.t.rename(id, spLookup+"(absent)")

	ctx, rec := resultcache.WithOutcomeRecorder(context.Background())
	var err error
	id = p.t.begin(spGet, parent)
	p.current = id
	switch w {
	case wantIndex:
		s, v, err = p.c.GetIndexed(ctx, in.digest, in.tr, in.opts)
	case wantPyramid:
		s, v, err = p.c.GetAux(ctx, in.digest, in.tr, in.opts)
	default:
		s, err = p.c.Get(ctx, in.digest, in.tr, in.opts)
	}
	p.t.end(id)
	p.t.rename(id, spGet+"("+rec.Outcome()+")")
	return s, v, err
}

func (t *traceRun) rename(id int, name string) {
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// codecProbe brackets the structure codec on one result.
func (t *traceRun) codecProbe(parent int, s *core.Structure) error {
	var buf bytes.Buffer
	var err error
	d := t.in(spEncode, parent, func(int) { err = core.EncodeStructure(&buf, s) })
	if err != nil {
		return err
	}
	events := float64(len(s.Trace.Events))
	t.pool("encode.ns", float64(d))
	t.pool("codec.events", events)
	t.pool("cstr.bytes", float64(buf.Len()))
	d = t.in(spDecodeS, parent, func(int) { _, _, err = core.DecodeStructure(bytes.NewReader(buf.Bytes()), s.Trace) })
	if err != nil {
		return err
	}
	t.pool("decodes.ns", float64(d))
	t.in(spSummary, parent, func(int) { _, err = core.DecodeStructureSummary(bytes.NewReader(buf.Bytes())) })
	return err
}

// call is one prepared request to an in-process handler.
type call struct {
	req *http.Request
	rec *httptest.ResponseRecorder
}

// newCall prepares a request; gzip mirrors the Go client's default
// Accept-Encoding.
func newCall(method, path string, body []byte, header map[string]string, gzip bool) *call {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range header {
		req.Header.Set(k, v)
	}
	if gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	return &call{req: req, rec: httptest.NewRecorder()}
}

// want fails unless the handler answered with the given status.
func (c *call) want(status int) error {
	if c.rec.Code != status {
		return fmt.Errorf("bench: replay %s %s: status %d, want %d: %s",
			c.req.Method, c.req.URL.RequestURI(), c.rec.Code, status, firstLine(c.rec.Body.Bytes()))
	}
	return nil
}

// decoded returns the answer's body with any gzip transfer encoding undone.
func (c *call) decoded() ([]byte, error) {
	if c.rec.Header().Get("Content-Encoding") != "gzip" {
		return c.rec.Body.Bytes(), nil
	}
	zr, err := gzip.NewReader(c.rec.Body)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// handle serves a prepared call under a span.
func (t *traceRun) handle(name string, parent int, h http.Handler, c *call) time.Duration {
	return t.in(name, parent, func(int) { h.ServeHTTP(c.rec, c.req) })
}

// unbracketed serves a prepared call with no span, timing the same region
// handle brackets — the untraced side of trace.overhead_share.
func unbracketed(h http.Handler, c *call) time.Duration {
	start := time.Now()
	h.ServeHTTP(c.rec, c.req)
	return time.Since(start)
}

// render brackets the JSON encoding the handler performs on a layer's
// result (indented for the query engine, compact for LOD).
func (t *traceRun) render(parent int, v any, indent bool) {
	t.in(spRender, parent, func(int) {
		if indent {
			json.MarshalIndent(v, "", "  ")
		} else {
			json.Marshal(v)
		}
	})
}

// maxStepOf reads max_step from a /structure or /lod answer.
func maxStepOf(c *call) (int32, error) {
	body, err := c.decoded()
	if err != nil {
		return 0, err
	}
	var v struct {
		MaxStep int32 `json:"max_step"`
	}
	return v.MaxStep, json.Unmarshal(body, &v)
}

func (t *traceRun) replayServed(ctx context.Context, h *harness, workload string, seed int64, quick bool) error {
	sh := shapeOf(workload, quick)
	nCold, nReq := K.ReplayColdTraces, K.ReplayRequests
	if quick {
		nCold, nReq = 3, 40
	}
	pool, err := buildPool(seed, sh.perApp)
	if err != nil {
		return err
	}
	newServer := func(label string) (*server.Server, error) {
		dir, err := h.tempDir("replay-" + label)
		if err != nil {
			return nil, err
		}
		return server.New(server.Config{DataDir: dir, MaxMemEntries: sh.memEntries})
	}
	srv, err := newServer("server")
	if err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())
	cacheDir, err := h.tempDir("replay-cache")
	if err != nil {
		return err
	}
	probe, err := t.newCacheProbe(cacheDir, sh.memEntries)
	if err != nil {
		return err
	}
	defer probe.c.Close(context.Background())

	if workload == wlCold {
		return t.replayCold(srv, probe, pool[:min(nCold, len(pool))])
	}
	// A twin server answers the same requests without transfer compression.
	// It sees the same sequence, so its cache is in the same state as the
	// first server's and the private cache's at every request.
	twin, err := newServer("twin")
	if err != nil {
		return err
	}
	defer twin.Shutdown(context.Background())
	loaded := pool[:sh.preload]
	if workload == wlFleet {
		// One node's share of the fleet's traces: each trace lives on
		// FleetReplication of FleetNodes nodes.
		loaded = loaded[:sh.preload*K.FleetReplication/K.FleetNodes]
	}
	if err := t.replayExplore(srv, twin, probe, workload, loaded, seed, sh.zipfS, nReq); err != nil {
		return err
	}
	if workload == wlFleet {
		return t.replayCluster(ctx, h, pool, quick)
	}
	return nil
}

// replayCold replays cold-ingest's op on each sample trace: the three
// handler calls as the client sends them, then the same work layer by layer.
func (t *traceRun) replayCold(srv *server.Server, probe *cacheProbe, sample []*traceInput) error {
	for i, in := range sample {
		// coldCalls prepares the op's three requests for a fresh digest; the
		// zoom window needs the overview's answer, so the third is built late.
		type coldCalls struct {
			digest, params string
			upload, lod    *call
		}
		prepare := func(nonce uint64) coldCalls {
			data := in.variant(nonce)
			digest := tracefile.DigestBytes(data)
			return coldCalls{
				digest: digest,
				upload: newCall("POST", "/v1/traces", data, nil, true),
				lod:    newCall("GET", "/v1/traces/"+digest+"/lod"+in.query("resolution=64"), nil, nil, true),
			}
		}
		zoom := func(c *coldCalls) (*call, error) {
			maxStep, err := maxStepOf(c.lod)
			if err != nil {
				return nil, err
			}
			from, to := zoomWindow(maxStep, i%K.ZoomSlices)
			c.params = fmt.Sprintf("chares=%s&steps=%d..%d", joinInts(chareBlock(len(in.tr.Chares), i%4)), from, to)
			return newCall("GET", "/v1/traces/"+c.digest+"/steps"+in.query(c.params), nil, nil, true), nil
		}

		root := t.newOp("op cold-ingest/" + in.spec.Name)
		c := prepare(uint64(i + 1))
		traced := t.handle(spHandler+"upload", root, srv, c.upload)
		if err := c.upload.want(http.StatusCreated); err != nil {
			return err
		}
		traced += t.handle(spHandler+"lod", root, srv, c.lod)
		if err := c.lod.want(http.StatusOK); err != nil {
			return err
		}
		steps, err := zoom(&c)
		if err != nil {
			return err
		}
		traced += t.handle(spHandler+"steps", root, srv, steps)
		if err := steps.want(http.StatusOK); err != nil {
			return err
		}

		// The same op below the handler.
		tr, err := t.decode(root, in.variant(uint64(i+1)))
		if err != nil {
			return err
		}
		probeIn := *in
		probeIn.tr, probeIn.digest = tr, c.digest
		s, v, err := probe.fetch(root, &probeIn, wantPyramid)
		if err != nil {
			return err
		}
		sp, err := lod.SpecFromParams(url.Values{"resolution": {"64"}})
		if err != nil {
			return err
		}
		var lres *lod.Result
		t.in(spLodQuery, root, func(int) { lres, err = v.(*lod.Pyramid).Query(sp, nil) })
		if err != nil {
			return err
		}
		t.render(root, lres, false)
		if _, v, err = probe.fetch(root, &probeIn, wantIndex); err != nil {
			return err
		}
		vals, err := url.ParseQuery(c.params)
		if err != nil {
			return err
		}
		qs, _, err := query.SpecFromParams(query.SelectSteps, vals)
		if err != nil {
			return err
		}
		var qres *query.Result
		t.in(spQueryRun, root, func(int) { qres, err = query.Run(context.Background(), v.(*query.Index), qs) })
		if err != nil {
			return err
		}
		t.render(root, qres, true)
		t.end(root)

		// Beside the op: the codec on this result.
		root = t.newOp("probe codec/" + in.spec.Name)
		if err := t.codecProbe(root, s); err != nil {
			return err
		}
		t.end(root)

		// The three handler calls again, on another fresh digest, unbracketed.
		c = prepare(uint64(1_000_000 + i))
		plain := unbracketed(srv, c.upload) + unbracketed(srv, c.lod)
		if steps, err = zoom(&c); err != nil {
			return err
		}
		plain += unbracketed(srv, steps)
		t.pool("overhead.traced", float64(traced))
		t.pool("overhead.plain", float64(plain))
	}
	return nil
}

// replayExplore preloads two in-process servers and the private cache with
// the workload's traces, then replays a sample of the exploration mix. Each
// request goes through the first server as the Go client sends it (gzip
// accepted), through the twin without transfer compression, and — where the
// handler decomposes — through the cache, the engine and the renderer.
func (t *traceRun) replayExplore(srv, twin *server.Server, probe *cacheProbe, workload string, loaded []*traceInput, seed int64, zipfS float64, n int) error {
	etag := make(map[string]string)
	pre := &mixGen{traces: loaded}
	for i, in := range loaded {
		root := t.newOp("preload " + in.spec.Name)
		for _, s := range []*server.Server{srv, twin} {
			up := newCall("POST", "/v1/traces", in.data, nil, true)
			t.handle(spHandler+"upload", root, s, up)
			if err := up.want(http.StatusCreated); err != nil {
				return err
			}
			for _, class := range []string{clsStructure, clsOverview} {
				r := pre.build(class, i, 0)
				c := newCall("GET", r.path, nil, nil, true)
				unbracketed(s, c)
				if err := c.want(http.StatusOK); err != nil {
					return err
				}
				etag[r.path] = c.rec.Header().Get("ETag")
				if class == clsStructure {
					var err error
					if in.maxStep, err = maxStepOf(c); err != nil {
						return err
					}
				}
			}
			warm := newCall("GET", "/v1/traces/"+in.digest+"/steps"+in.query("steps=0..1"), nil, nil, true)
			unbracketed(s, warm)
			if err := warm.want(http.StatusOK); err != nil {
				return err
			}
		}
		if _, _, err := probe.fetch(root, in, wantPyramid); err != nil {
			return err
		}
		if _, _, err := probe.fetch(root, in, wantIndex); err != nil {
			return err
		}
		t.end(root)
	}
	// From here on a derived value is only built because its entry was
	// evicted and came back from disk.
	probe.rebuild = true

	g := newMixGen(seed, 99, loaded, zipfS, 0)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = g.next()
	}
	prepare := func(r *request, gzip bool) (*call, int) {
		if r.cond {
			return newCall(r.method, r.path, nil, map[string]string{"If-None-Match": etag[r.path]}, gzip), http.StatusNotModified
		}
		return newCall(r.method, r.path, []byte(r.body), nil, gzip), http.StatusOK
	}

	for i := range reqs {
		r := &reqs[i]
		in := loaded[r.trace]
		route := routeOf[r.class]
		root := t.newOp("op " + workload + "/" + r.class)
		c, status := prepare(r, true)
		t.pool("overhead.traced", float64(t.handle(spHandler+route, root, srv, c)))
		if err := c.want(status); err != nil {
			return err
		}
		c, status = prepare(r, false)
		t.handle(spIdentity+route, root, twin, c)
		if err := c.want(status); err != nil {
			return err
		}
		u, err := url.Parse(r.path)
		if err != nil {
			return err
		}
		// Below the handler: the same cache traffic the handler causes, so
		// the private cache evicts what the servers evict.
		switch r.class {
		case clsOverview, clsZoom:
			_, v, err := probe.fetch(root, in, wantPyramid)
			if err != nil {
				return err
			}
			sp, err := lod.SpecFromParams(u.Query())
			if err != nil {
				return err
			}
			var res *lod.Result
			t.in(spLodQuery, root, func(int) { res, err = v.(*lod.Pyramid).Query(sp, nil) })
			if err != nil {
				return err
			}
			t.render(root, res, false)
		case clsQuery, clsMetrics, clsStepsWin:
			_, v, err := probe.fetch(root, in, wantIndex)
			if err != nil {
				return err
			}
			var qs query.Spec
			switch r.class {
			case clsQuery:
				qs, err = query.ParseSpec(strings.NewReader(r.body))
			case clsMetrics:
				qs, _, err = query.SpecFromParams(query.SelectMetrics, u.Query())
			default:
				qs, _, err = query.SpecFromParams(query.SelectSteps, u.Query())
			}
			if err != nil {
				return err
			}
			var res *query.Result
			t.in(spQueryRun, root, func(int) { res, err = query.Run(context.Background(), v.(*query.Index), qs) })
			if err != nil {
				return err
			}
			t.render(root, res, true)
		case clsStepsFull:
			// Rendered by unexported handler code: only its cache traffic is
			// replayed, and the op stays out of the budget. /structure reads
			// the disk summary without touching the memory tier, and a
			// revalidation touches nothing.
			if _, _, err := probe.fetch(root, in, wantStructure); err != nil {
				return err
			}
		}
		t.end(root)
	}
	// The same handler calls with no spans, for trace.overhead_share.
	for i := range reqs {
		c, status := prepare(&reqs[i], true)
		t.pool("overhead.plain", float64(unbracketed(srv, c)))
		if err := c.want(status); err != nil {
			return err
		}
	}

	// The codec on one result of every app.
	for _, in := range loaded[:min(len(loaded), len(K.PoolApps))] {
		root := t.newOp("probe codec/" + in.spec.Name)
		s, _, err := probe.fetch(root, in, wantStructure)
		if err != nil {
			return err
		}
		if err := t.codecProbe(root, s); err != nil {
			return err
		}
		t.end(root)
	}
	return nil
}

// replayCluster measures what the gateway adds, on an in-process fleet
// reached over loopback: three nodes wired as peers behind a gateway.
func (t *traceRun) replayCluster(ctx context.Context, h *harness, pool []*traceInput, quick bool) error {
	nodes := make([]*httptest.Server, K.FleetNodes)
	members := make([]cluster.Member, K.FleetNodes)
	peers := make([]*cluster.Peers, K.FleetNodes)
	for i := range nodes {
		i := i
		dir, err := h.tempDir("replay-node")
		if err != nil {
			return err
		}
		srv, err := server.New(server.Config{
			DataDir: dir, MaxMemEntries: K.FleetMemEntries, NodeName: fmt.Sprintf("n%d", i),
			PeerFetch: func(ctx context.Context, digest, key string) (io.ReadCloser, error) {
				return peers[i].FetchResult(ctx, digest, key)
			},
			TraceFetch: func(ctx context.Context, digest string) (io.ReadCloser, error) {
				return peers[i].FetchTrace(ctx, digest)
			},
		})
		if err != nil {
			return err
		}
		defer srv.Shutdown(context.Background())
		nodes[i] = httptest.NewServer(srv)
		defer nodes[i].Close()
		members[i] = cluster.Member{Name: fmt.Sprintf("n%d", i), URL: nodes[i].URL}
	}
	for i := range peers {
		var err error
		if peers[i], err = cluster.NewPeers(cluster.PeersConfig{Self: members[i].Name, Members: members}); err != nil {
			return err
		}
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Members: members, Replication: K.FleetReplication})
	if err != nil {
		return err
	}
	gwSrv := httptest.NewServer(gw)
	defer func() {
		gwSrv.Close()
		gw.Close()
	}()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	do := func(name string, parent int, method, u string, body []byte) (status int, header http.Header, err error) {
		t.in(name, parent, func(int) {
			var req *http.Request
			if req, err = http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body)); err != nil {
				return
			}
			var resp *http.Response
			if resp, err = client.Do(req); err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status, header = resp.StatusCode, resp.Header
		})
		return status, header, err
	}

	nUp, nHop := K.ReplayFanoutTraces, K.ReplayHopRequests
	if quick {
		nUp, nHop = 3, 10
	}
	root := t.newOp("probe cluster.upload_fanout")
	nonce := uint64(2_000_000)
	for i := 0; i < nUp; i++ {
		in := pool[i%len(pool)]
		for _, leg := range []struct{ name, base string }{{"cluster.upload(gateway)", gwSrv.URL}, {"cluster.upload(direct)", nodes[0].URL}} {
			nonce++
			status, _, err := do(leg.name, root, "POST", leg.base+"/v1/traces", in.variant(nonce))
			if err != nil || status != http.StatusCreated {
				return fmt.Errorf("bench: replay %s: status %d: %v", leg.name, status, err)
			}
		}
	}
	t.end(root)

	root = t.newOp("probe cluster.gateway_hop")
	in := pool[0]
	path := "/v1/traces/" + in.digest + "/lod" + in.query("resolution=64")
	if status, _, err := do("cluster.upload(gateway)", root, "POST", gwSrv.URL+"/v1/traces", in.data); err != nil || status != http.StatusCreated {
		return fmt.Errorf("bench: replay hop upload: status %d: %v", status, err)
	}
	_, header, err := do("warm", root, "GET", gwSrv.URL+path, nil)
	if err != nil {
		return err
	}
	owner := ""
	for i, m := range members {
		if m.Name == header.Get("X-Charmd-Node") {
			owner = nodes[i].URL
		}
	}
	if owner == "" {
		return fmt.Errorf("bench: replay hop: no X-Charmd-Node on the gateway's answer")
	}
	for i := 0; i < nHop; i++ {
		for _, leg := range []struct{ name, base string }{{"cluster.lod(gateway)", gwSrv.URL}, {"cluster.lod(direct)", owner}} {
			if status, _, err := do(leg.name, root, "GET", leg.base+path, nil); err != nil || status != http.StatusOK {
				return fmt.Errorf("bench: replay %s: status %d: %v", leg.name, status, err)
			}
		}
	}
	t.end(root)
	return nil
}

// ---- from spans to metrics ----------------------------------------------

// summarise computes every replay metric the run's spans support. Metrics
// whose spans never occurred stay absent and are reported as 0.
func (t *traceRun) summarise() {
	t.pooled("tracefile.decode_ns_per_event", "decode.ns", "decode.events")
	t.metrics["tracefile.decode_allocs_per_kevent"] = metric{Value: ratio(t.sums["decode.mallocs"]*1000, t.sums["decode.events"])}
	t.pooled("core.extract_ns_per_event", "extract.ns", "extract.events")
	t.metrics["core.extract_allocs_per_kevent"] = metric{Value: ratio(t.sums["extract.mallocs"]*1000, t.sums["extract.malloc_events"])}
	t.pooled("core.enforce_rounds", "extract.rounds", "extract.calls")
	for _, stage := range core.StageOrder {
		t.pooled(stageMetric(stage), "stage."+stage, "extract.events")
	}
	t.pooled("core.encode_ns_per_event", "encode.ns", "codec.events")
	t.pooled("core.decode_ns_per_event", "decodes.ns", "codec.events")
	t.pooled("core.cstr_bytes_per_event", "cstr.bytes", "codec.events")
	t.medianUS("core.summary_decode_us", spSummary, false)
	t.pooled("metrics.compute_ns_per_event", "metrics.ns", "metrics.events")
	t.pooled("query.index_build_ns_per_event", "index.ns", "index.events")
	t.pooled("query.index_bytes_per_event", "index.bytes", "index.events")
	t.pooled("lod.build_ns_per_event", "pyramid.ns", "pyramid.events")
	t.pooled("lod.pyramid_bytes_per_event", "pyramid.bytes", "pyramid.events")
	t.medianUS("query.run_us", spQueryRun, false)
	t.medianUS("lod.query_us", spLodQuery, false)

	t.medianUS("resultcache.get_miss_us", spGet+"(miss)", false)
	// Self time of a miss: everything but the extraction hook — the encode,
	// the .cstr write and the cache's own bookkeeping. Derived values built
	// under the same Get are children too and are excluded alike.
	t.medianUS("resultcache.miss_overhead_us", spGet+"(miss)", true)
	t.medianUS("resultcache.get_mem_us", spLookup+"(mem)", true)
	t.medianUS("resultcache.get_disk_us", spGet+"(disk)", true)
	t.medianUS("resultcache.disk_hit_index_us", spReIndex, false)
	t.medianUS("resultcache.disk_hit_aux_us", spRePyramid, false)

	for _, r := range handlerRoutes {
		t.medianUS("server.handler_us."+r, spHandler+r, false)
	}
	lodOn, lodOff := median(t.usOf(spHandler+"lod", false)), median(t.usOf(spIdentity+"lod", false))
	if lodOff > 0 {
		t.metrics["server.gzip_overhead_us"] = metric{Value: lodOn - lodOff}
		t.metrics["server.render_overhead_us"] = metric{Value: lodOff - t.metrics["lod.query_us"].Value}
	}
	if dec, up := t.usOf(spDecode, false), t.usOf(spHandler+"upload", false); len(dec) > 0 && len(up) > 0 {
		t.metrics["server.upload_overhead_us"] = metric{Value: median(up) - median(dec)}
	}
	if a, b := t.usOf("cluster.lod(gateway)", false), t.usOf("cluster.lod(direct)", false); len(a) > 0 {
		t.metrics["cluster.gateway_hop_us"] = metric{Value: median(a) - median(b)}
	}
	if a, b := t.usOf("cluster.upload(gateway)", false), t.usOf("cluster.upload(direct)", false); len(b) > 0 {
		t.metrics["cluster.upload_fanout_us"] = metric{Value: median(a) - median(b)}
	}
	if plain := t.sums["overhead.plain"]; plain > 0 {
		t.metrics["trace.overhead_share"] = metric{Value: (t.sums["overhead.traced"] - plain) / plain}
	}
	t.budget()
}

// budget computes the unaccounted share of the handler time: one minus the
// layer spans replayed under each operation over the operation's handler
// spans, pooled over the operations whose handler decomposes into public
// layer calls (those with a query.Run or lod.Query span). Where an
// operation was also served without transfer compression, that call is the
// parent: gzip has no public entry point to bracket and is reported on its
// own as server.gzip_overhead_us.
func (t *traceRun) budget() {
	children := t.childIndex()
	var handler, layers time.Duration
	cold := false
	for root, s := range t.spans {
		if s.Parent != -1 || !strings.HasPrefix(s.Name, "op ") {
			continue
		}
		var gz, identity, l time.Duration
		decomposed := false
		for _, k := range children[root] {
			c := t.spans[k]
			switch {
			case strings.HasPrefix(c.Name, spIdentity):
				identity += c.dur()
			case strings.HasPrefix(c.Name, spHandler):
				gz += c.dur()
			default:
				l += c.dur()
				decomposed = decomposed || c.Name == spQueryRun || c.Name == spLodQuery
			}
		}
		if !decomposed {
			continue
		}
		if identity > 0 {
			gz = identity
		}
		handler, layers = handler+gz, layers+l
		cold = cold || strings.HasPrefix(s.Name, "op "+wlCold)
	}
	if handler == 0 {
		return
	}
	name := "budget.warm.unaccounted_share"
	if cold {
		name = "budget.cold.unaccounted_share"
	}
	t.metrics[name] = metric{Value: 1 - float64(layers)/float64(handler)}
}

// derive fills the metrics that need both runs: the real run's loopback
// latency against the replayed handler time.
func (t *traceRun) derive(real map[string]metric) {
	if h := t.metrics["server.handler_us.lod"].Value; h > 0 {
		if p50, ok := real["route.lod.p50_ms"]; ok {
			t.metrics["server.net_overhead_us"] = metric{Value: p50.Value*1e3 - h}
		}
	}
}
