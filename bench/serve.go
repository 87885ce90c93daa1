package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// serveEnv is one running instance of the program for a served workload:
// a lone charmd (cold-ingest, warm-explore) or a gateway in front of three
// nodes (fleet-overflow), with the traces that were preloaded into it.
type serveEnv struct {
	h        *harness
	workload string
	seed     int64
	base     string  // where the clients send
	nodes    []*proc // charmd processes
	gateway  *proc   // nil for single-node workloads
	dataDirs []string

	pool   []*traceInput     // every generated trace; uploads draw nonce variants of these
	loaded []*traceInput     // the preloaded prefix of pool
	etag   map[string]string // path -> ETag, captured at preload
	v      *verdicts

	nonce         atomic.Uint64
	uploadedBytes atomic.Int64

	// What recycled nodes took with them (cold-ingest starts a fresh node
	// for every window), so CPU, counters, peak memory and stored bytes
	// stay cumulative over the run.
	retired struct {
		cpuMS  float64
		reg    registry
		peakMB float64
		stored int64
	}
}

func (e *serveEnv) procs() []*proc {
	if e.gateway == nil {
		return e.nodes
	}
	return append([]*proc{e.gateway}, e.nodes...)
}

func (e *serveEnv) cpuMS() float64 {
	t := e.retired.cpuMS
	for _, p := range e.procs() {
		t += p.cpuMS()
	}
	return t
}

// peakRSSMB is the largest sum of VmHWM over the program's processes that
// were alive together.
func (e *serveEnv) peakRSSMB() float64 {
	live := 0.0
	for _, p := range e.procs() {
		live += p.peakRSSMB()
	}
	return max(live, e.retired.peakMB)
}

// storedBytes is what the program wrote under its data directories.
func (e *serveEnv) storedBytes() int64 {
	n := e.retired.stored
	for _, d := range e.dataDirs {
		n += dirBytes(d)
	}
	return n
}

// recycle replaces the single node with a fresh process over an empty data
// directory, keeping what the old one had counted.
func (e *serveEnv) recycle(ctx context.Context) error {
	live, err := e.scrapeLive()
	if err != nil {
		return err
	}
	e.retired.reg.add(live)
	e.retired.peakMB = e.peakRSSMB()
	e.retired.stored = e.storedBytes()
	old := e.nodes[0]
	e.retired.cpuMS += old.cpuMS()
	old.stop()
	os.RemoveAll(e.dataDirs[0])
	e.nodes, e.dataDirs = nil, nil
	if err := e.startNode(ctx, "charmd", 0, ""); err != nil {
		return err
	}
	e.base = e.nodes[0].url
	return nil
}

func (e *serveEnv) close() {
	for _, p := range e.procs() {
		p.stop()
	}
}

// shape is a served workload's sizing, shared by the real run's set-up and
// the traced run's in-process replicas.
type shape struct {
	preload    int     // traces uploaded and warmed before measurement
	perApp     int     // simulator seeds per pool app (pool = perApp x nine apps)
	memEntries int     // -mem-entries of each node (0 = the program's default)
	zipfS      float64 // trace popularity of the exploration mix
}

// shapeOf sizes a workload; quick shrinks it to one trace per app.
func shapeOf(workload string, quick bool) shape {
	apps := len(K.PoolApps)
	rounds := func(preload int) int { return (preload + apps - 1) / apps }
	var s shape
	switch workload {
	case wlCold:
		s = shape{perApp: K.ColdPoolPerApp}
	case wlWarm:
		s = shape{preload: K.WarmTraces, perApp: rounds(K.WarmTraces), zipfS: K.WarmZipfS}
	case wlFleet:
		s = shape{preload: K.FleetTraces, perApp: rounds(K.FleetTraces), memEntries: K.FleetMemEntries, zipfS: K.FleetZipfS}
	}
	if quick {
		s.perApp, s.preload = 1, min(s.preload, apps)
	}
	return s
}

// setupServe generates the workload's inputs, starts its processes and
// preloads and warms what the workload wants resident. This is setup_s.
func (h *harness) setupServe(ctx context.Context, workload string, seed int64, quick bool) (*serveEnv, error) {
	e := &serveEnv{h: h, workload: workload, seed: seed, etag: make(map[string]string), v: newVerdicts(K.CheckSample)}
	sh := shapeOf(workload, quick)
	pool, err := buildPool(seed, sh.perApp)
	if err != nil {
		return nil, err
	}
	e.pool, e.loaded = pool, pool[:sh.preload]

	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	if workload == wlFleet {
		if err := e.startFleet(ctx); err != nil {
			return nil, err
		}
	} else {
		if err := e.startNode(ctx, "charmd", 0, ""); err != nil {
			return nil, err
		}
		e.base = e.nodes[0].url
	}
	if err := e.preload(); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

// startNode launches one charmd with default flags apart from its address
// (port 0 = pick a free one), data directory and the extra arguments given.
func (e *serveEnv) startNode(ctx context.Context, name string, port int, peers string, extra ...string) error {
	if port == 0 {
		var err error
		if port, err = freePort(); err != nil {
			return err
		}
	}
	dir, err := e.h.tempDir(e.workload + "-" + name)
	if err != nil {
		return err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data-dir", dir}
	if peers != "" {
		args = append(args, "-node-name", name, "-peers", peers)
	}
	args = append(args, extra...)
	p, err := e.h.start(ctx, e.workload+"-"+name, e.h.charmd, port, args...)
	if err != nil {
		return err
	}
	e.nodes = append(e.nodes, p)
	e.dataDirs = append(e.dataDirs, dir)
	return nil
}

// startFleet launches FleetNodes charmd nodes that know each other and a
// gateway in front of them.
func (e *serveEnv) startFleet(ctx context.Context) error {
	ports := make([]int, K.FleetNodes)
	members := make([]string, K.FleetNodes)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return err
		}
		ports[i] = p
		members[i] = fmt.Sprintf("n%d=http://127.0.0.1:%d", i, p)
	}
	peers := strings.Join(members, ",")
	for i, port := range ports {
		if err := e.startNode(ctx, fmt.Sprintf("n%d", i), port, peers, "-mem-entries", strconv.Itoa(K.FleetMemEntries)); err != nil {
			return err
		}
	}
	gwPort, err := freePort()
	if err != nil {
		return err
	}
	gw, err := e.h.start(ctx, e.workload+"-gateway", e.h.gateway, gwPort,
		"-addr", fmt.Sprintf("127.0.0.1:%d", gwPort), "-peers", peers, "-replication", strconv.Itoa(K.FleetReplication))
	if err != nil {
		return err
	}
	e.gateway, e.base = gw, gw.url
	return nil
}

// preload uploads the traces the workload wants known and asks for each
// one's structure, overview and one indexed window, so the result, the
// pyramid and the query index are all built before measurement. It also
// captures the ETags the revalidation requests will present.
func (e *serveEnv) preload() error {
	c := newClients(1, e.base, e.v, nil)[0]
	defer c.closeIdle()
	g := &mixGen{traces: e.loaded}
	for i, t := range e.loaded {
		digest, ok := c.upload(t.data)
		if !ok {
			return fmt.Errorf("bench: preload upload of %s failed: %v", t.spec.Name, e.v.failures)
		}
		if digest != t.digest {
			return fmt.Errorf("bench: server digested %s as %s, generator as %s", t.spec.Name, digest, t.digest)
		}
		e.uploadedBytes.Add(int64(len(t.data)))
		for _, class := range []string{clsStructure, clsOverview} {
			r := g.build(class, i, 0)
			a := c.send(routeOf[class], "GET", r.path, nil, nil)
			if a.status != http.StatusOK {
				return fmt.Errorf("bench: preload %s: status %d: %s", r.path, a.status, firstLine(a.body))
			}
			e.etag[r.path] = a.header.Get("ETag")
			if class == clsStructure {
				var s struct {
					MaxStep int32 `json:"max_step"`
				}
				if err := json.Unmarshal(a.body, &s); err != nil {
					return fmt.Errorf("bench: preload %s: %w", r.path, err)
				}
				t.maxStep = s.MaxStep
			}
		}
		r := g.build(clsQuery, i, 0)
		if !c.get(&r) {
			return fmt.Errorf("bench: preload %s failed: %v", r.path, e.v.failures)
		}
	}
	return nil
}

// freshNonce returns a nonce no other upload of this run used. The seed is
// folded in so two seeds never offer the same bytes.
func (e *serveEnv) freshNonce() uint64 {
	return uint64(e.seed)<<32 ^ e.nonce.Add(1)
}

// coldOp is cold-ingest's operation: upload a never-seen trace, ask for its
// overview (a miss: decode happened at upload; extraction, the .cstr write
// and the pyramid build happen here), then ask for one indexed zoom window
// (a memory hit that builds the query index).
func (e *serveEnv) coldOp(ti, j int) op {
	t := e.pool[ti]
	data := t.variant(e.freshNonce())
	slice, quarter := j%K.ZoomSlices, j/K.ZoomSlices%4
	return func(c *client) bool {
		digest, ok := c.upload(data)
		if !ok {
			return false
		}
		e.uploadedBytes.Add(int64(len(data)))
		base := "/v1/traces/" + digest
		a := c.send("lod", "GET", base+"/lod"+t.query("resolution=64"), nil, nil)
		var over struct {
			MaxStep int32 `json:"max_step"`
		}
		if a.status != http.StatusOK || json.Unmarshal(a.body, &over) != nil {
			c.v.fail("first overview of %s: status %d: %s", t.spec.Name, a.status, firstLine(a.body))
			return false
		}
		from, to := zoomWindow(over.MaxStep, slice)
		chares := chareBlock(len(t.tr.Chares), quarter)
		a = c.send("steps", "GET", base+"/steps"+t.query(fmt.Sprintf("chares=%s&steps=%d..%d", joinInts(chares), from, to)), nil, nil)
		if a.status != http.StatusOK {
			c.v.fail("first zoom of %s: status %d: %s", t.spec.Name, a.status, firstLine(a.body))
			return false
		}
		c.v.keep(ti, a.body)
		return true
	}
}

// fleetUploadOp is the fleet's 3%: a never-seen upload through the gateway
// followed by its first overview.
func (e *serveEnv) fleetUploadOp(t *traceInput) op {
	data := t.variant(e.freshNonce())
	return func(c *client) bool {
		digest, ok := c.upload(data)
		if !ok {
			return false
		}
		e.uploadedBytes.Add(int64(len(data)))
		a := c.send("lod", "GET", "/v1/traces/"+digest+"/lod"+t.query("resolution=64"), nil, nil)
		if a.status != http.StatusOK {
			c.v.fail("first overview of uploaded %s: status %d: %s", t.spec.Name, a.status, firstLine(a.body))
			return false
		}
		return true
	}
}

func mixOp(r request) op { return func(c *client) bool { return c.get(&r) } }

// measure drives the workload's load phases for about dur in total.
func (e *serveEnv) measure(ctx context.Context, dur time.Duration) []phaseResult {
	clients := newClients(K.Workers, e.base, e.v, e.etag)
	defer func() {
		for _, c := range clients {
			c.closeIdle()
		}
	}()
	perWorker := func(mk func(w int) func() op) opSource {
		gens := make([]func() op, K.Workers)
		for w := range gens {
			gens[w] = mk(w)
		}
		return func(w int) op { return gens[w]() }
	}
	workerRNG := func(w int) *rand.Rand {
		return rand.New(rand.NewSource(e.seed*2_147_483_629 + int64(w)*65_537 + 3))
	}
	switch e.workload {
	case wlCold:
		// Every window gets a fresh charmd over an empty data directory, so
		// each starts from the same state: the server keeps every decoded
		// trace it was ever sent, and one process fed for the whole run
		// would slow from window to window under its own heap.
		// Each worker walks the pool in seed-shuffled rounds, so every round
		// uploads each base trace once: the op mix is exact, like the
		// exploration mix's blocks.
		src := perWorker(func(w int) func() op {
			rng := workerRNG(w)
			var round []int
			j := 0
			return func() op {
				if len(round) == 0 {
					round = rng.Perm(len(e.pool))
				}
				ti := round[len(round)-1]
				round = round[:len(round)-1]
				j++
				return e.coldOp(ti, j)
			}
		})
		n := K.Windows[wlCold]
		var phases []phaseResult
		for w := 0; w < n && ctx.Err() == nil; w++ {
			if w > 0 {
				if err := e.recycle(ctx); err != nil {
					e.v.fail("recycling charmd for window %d: %v", w, err)
					break
				}
				for _, c := range clients {
					c.closeIdle()
					c.base = e.base
				}
			}
			phases = append(phases, runClosed(ctx, clients, src, dur/time.Duration(n), 1, e.cpuMS))
		}
		return phases

	case wlWarm:
		durA := dur * time.Duration(K.WarmOpenWindows) / time.Duration(K.Windows[wlWarm])
		durB := dur - durA
		plan := newMixGen(e.seed, 0, e.loaded, K.WarmZipfS, 0)
		n := int(K.WarmOpenRate*durA.Seconds()*1.5) + 16
		due := poissonSchedule(e.seed, K.WarmOpenRate, n)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = mixOp(plan.next())
		}
		a := runOpen(ctx, clients, ops, due, durA, K.WarmOpenWindows, e.cpuMS)
		src := perWorker(func(w int) func() op {
			g := newMixGen(e.seed, 1+w, e.loaded, K.WarmZipfS, 0)
			return func() op { return mixOp(g.next()) }
		})
		b := runClosed(ctx, clients, src, durB, K.Windows[wlWarm]-K.WarmOpenWindows, e.cpuMS)
		return []phaseResult{a, b}

	case wlFleet:
		src := perWorker(func(w int) func() op {
			g := newMixGen(e.seed, 1+w, e.loaded, K.FleetZipfS, K.FleetUploadShare)
			return func() op {
				r := g.next()
				if r.class == clsUpload {
					return e.fleetUploadOp(e.loaded[r.trace])
				}
				return mixOp(r)
			}
		})
		return []phaseResult{runClosed(ctx, clients, src, dur, K.Windows[wlFleet], e.cpuMS)}
	}
	panic("bench: measure: not a served workload: " + e.workload)
}

// checkKept runs the causal checker over the sampled /steps and /query
// answers and returns how many failed it.
func (e *serveEnv) checkKept() int {
	placed := make(map[int]*placement)
	bad := 0
	for _, k := range e.v.kept {
		t := e.pool[k.trace] // loaded is a prefix of pool, so one index space
		p := placed[k.trace]
		if p == nil {
			p = newPlacement(len(t.tr.Events))
			placed[k.trace] = p
		}
		if err := p.addResponse(t.tr, k.body); err != nil {
			e.v.fail("checker: %s: %v", t.spec.Name, err)
			bad++
		}
	}
	for ti, p := range placed {
		t := e.pool[ti]
		if err := p.check(t.tr); err != nil {
			e.v.fail("checker: %s: %v", t.spec.Name, err)
			bad++
		}
	}
	return bad
}

// ---- the program's own counters ----------------------------------------

// histogram is the subset of a /debug/stats histogram the bench reads.
type histogram struct {
	Count   float64 `json:"count"`
	Buckets []struct {
		LE    float64 `json:"le"`
		Count float64 `json:"count"`
	} `json:"buckets"`
}

// registry is a flattened scrape: counters (node registries summed) and the
// histograms the bench needs.
type registry struct {
	counters map[string]float64
	hists    map[string]histogram
}

func newRegistry() registry {
	return registry{counters: make(map[string]float64), hists: make(map[string]histogram)}
}

// add folds o into r.
func (r *registry) add(o registry) {
	if r.counters == nil {
		*r = newRegistry()
	}
	for k, v := range o.counters {
		r.counters[k] += v
	}
	for k, v := range o.hists {
		have := r.hists[k]
		have.Count += v.Count
		have.Buckets = append(have.Buckets, v.Buckets...)
		r.hists[k] = have
	}
}

// scrape is the program's counters so far: the live processes' plus what
// recycled ones had reached.
func (e *serveEnv) scrape() (registry, error) {
	r, err := e.scrapeLive()
	if err != nil {
		return r, err
	}
	r.add(e.retired.reg)
	return r, nil
}

// scrapeLive reads /debug/stats of every node and /metrics of the gateway.
func (e *serveEnv) scrapeLive() (registry, error) {
	r := newRegistry()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for _, n := range e.nodes {
		resp, err := client.Get(n.url + "/debug/stats")
		if err != nil {
			return r, err
		}
		var s struct {
			Counters   map[string]float64   `json:"counters"`
			Histograms map[string]histogram `json:"histograms"`
		}
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil {
			return r, fmt.Errorf("bench: %s/debug/stats: %w", n.url, err)
		}
		r.add(registry{counters: s.Counters, hists: s.Histograms})
	}
	if e.gateway != nil {
		resp, err := client.Get(e.gateway.url + "/metrics")
		if err != nil {
			return r, err
		}
		err = readPromCounters(resp.Body, r.counters)
		resp.Body.Close()
		if err != nil {
			return r, err
		}
	}
	return r, nil
}

// readPromCounters folds the plain samples of a Prometheus text exposition
// into dst under their exposition names (labels dropped; the gateway
// labels every series node="gateway").
func readPromCounters(body io.Reader, dst map[string]float64) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.Contains(name[i:], `le="`) {
				continue // histogram bucket
			}
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		dst[name] += v
	}
	return sc.Err()
}

// delta returns after-before for one counter.
func delta(before, after registry, name string) float64 {
	return after.counters[name] - before.counters[name]
}

// histP95 is the upper bound of the bucket holding the 95th percentile of
// the observations a histogram gained between two scrapes (base-2 buckets,
// so it reads high by up to 2x; what matters is whether it moves).
func histP95(before, after registry, name string) float64 {
	gained := make(map[float64]float64)
	for _, b := range after.hists[name].Buckets {
		gained[b.LE] += b.Count
	}
	for _, b := range before.hists[name].Buckets {
		gained[b.LE] -= b.Count
	}
	var les []float64
	total := 0.0
	for le, n := range gained {
		if n > 0 {
			les = append(les, le)
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	les = sorted(les)
	seen := 0.0
	for _, le := range les {
		seen += gained[le]
		if seen >= 0.95*total {
			return le
		}
	}
	return les[len(les)-1]
}
