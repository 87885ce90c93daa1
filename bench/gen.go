package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"charmtrace"
	"charmtrace/internal/cli"
)

// Input generation. Everything here is a pure function of the seed: the
// simulator seeds, the popularity ranking, every mix draw and the arrival
// schedule. The program under test only ever sees the bytes produced here.

// nonceMark is spliced into the first entry-method name of every generated
// trace. Entry names are opaque to the algorithm and stored verbatim
// (length-prefixed) by the binary format, so overwriting the sixteen hex
// digits after '#' yields a valid trace with the same events and a new
// SHA-256 — a never-seen upload for the cost of one copy. cold-ingest and
// the fleet's upload share need hundreds of distinct digests per run, and
// the set-up that would otherwise simulate them runs three times per
// benchmark run.
const nonceMark = "#0000000000000000"

// traceInput is one generated trace with the ground truth the checker
// needs and what the request generators learn about it during preload.
type traceInput struct {
	spec   traceSpec
	tr     *charmtrace.Trace
	opts   charmtrace.Options
	data   []byte // binary encoding carrying nonceMark
	nonce  int    // offset of the sixteen hex digits in data
	digest string // content address of data as generated (nonce all zero)

	maxStep int32 // learned from the server's first answer
}

func (t *traceInput) events() int { return len(t.tr.Events) }

// query appends the ?preset= this trace's programming model needs.
func (t *traceInput) query(params string) string {
	if t.spec.Preset != "" {
		if params != "" {
			params += "&"
		}
		params += "preset=" + t.spec.Preset
	}
	if params == "" {
		return ""
	}
	return "?" + params
}

// generate runs one simulator and encodes its trace with the nonce mark.
func generate(spec traceSpec, simSeed int64) (*traceInput, error) {
	tr, opts, err := cli.Generate(spec.App, cli.Params{Scale: spec.Scale, Iterations: spec.Iters, Seed: simSeed})
	if err != nil {
		return nil, err
	}
	if len(tr.Entries) == 0 {
		return nil, fmt.Errorf("bench: trace %s has no entry methods to carry the nonce", spec.Name)
	}
	// Entries is the only slice written; copy it so the simulator's result
	// is not aliased.
	marked := *tr
	marked.Entries = append(marked.Entries[:0:0], tr.Entries...)
	marked.Entries[0].Name += nonceMark
	var buf bytes.Buffer
	if err := charmtrace.WriteTraceBinary(&buf, &marked); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	at := bytes.Index(data, []byte(nonceMark))
	if at < 0 {
		return nil, fmt.Errorf("bench: nonce mark lost in the encoding of %s", spec.Name)
	}
	sum := sha256.Sum256(data)
	return &traceInput{
		spec: spec, tr: tr, opts: opts,
		data: data, nonce: at + 1, digest: hex.EncodeToString(sum[:]),
	}, nil
}

// variant returns a copy of the encoded trace with nonce n spliced in:
// the same trace under a digest the server has never seen (n > 0).
func (t *traceInput) variant(n uint64) []byte {
	out := append([]byte(nil), t.data...)
	copy(out[t.nonce:t.nonce+16], fmt.Sprintf("%016x", n))
	return out
}

// simSeedFor spreads (benchmark seed, slot) over distinct non-zero
// simulator seeds; internal/cli treats 0 as "use the default".
func simSeedFor(seed int64, slot int) int64 {
	return seed*1_000_003 + int64(slot)*7919 + 1
}

// buildPool generates perApp traces of each pool app. Order is app-major
// so pool[i] for i < len(PoolApps) holds one trace of every app.
func buildPool(seed int64, perApp int) ([]*traceInput, error) {
	var pool []*traceInput
	for k := 0; k < perApp; k++ {
		for a, spec := range K.PoolApps {
			t, err := generate(spec, simSeedFor(seed, k*len(K.PoolApps)+a))
			if err != nil {
				return nil, err
			}
			t.spec.Name = fmt.Sprintf("%s/%d", spec.Name, k)
			pool = append(pool, t)
		}
	}
	return pool, nil
}

// buildBatch generates the five large batch-extract traces.
func buildBatch(seed int64, specs []traceSpec) ([]*traceInput, error) {
	out := make([]*traceInput, len(specs))
	for i, spec := range specs {
		t, err := generate(spec, simSeedFor(seed, 1000+i))
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// request is one planned HTTP request of the exploration mix.
type request struct {
	class  string
	trace  int // index into the preloaded trace list
	method string
	path   string // path + query, relative to the base URL
	body   string
	cond   bool // send If-None-Match with the ETag captured at preload; expect 304
}

// key identifies a request for the repeated-answer check.
func (r *request) key() string { return r.method + " " + r.path + " " + r.body }

// mixGen hands out the exploration mix. Requests are planned in blocks of
// mixBlock: within a block every class appears exactly in proportion to its
// weight, its requests are spread over the traces at the Zipf distribution's
// own quantiles, and parameters cycle through a small quantised set; the
// seed then shuffles the block. So every block offers the same multiset of
// work in a different order — the mix is exact, not merely expected. With
// independent draws the number of slow requests (a 30 ms full /steps, a
// zoom into the hottest trace) in a two-second window varied enough to move
// the window's p95 by a fifth on its own.
//
// Popularity rank r is trace r of the pool, and the pool is app-major, so
// the hot set always holds one trace of each app in the same order — the
// seed decides which simulated run of the app that is, not whether the
// hottest trace is a large stencil or a small PDES run.
//
// Identical requests recur within a run, which is what lets the checker
// compare repeated answers.
type mixGen struct {
	rng     *rand.Rand
	traces  []*traceInput
	classes []mixEntry
	cdf     []float64 // Zipf CDF over trace ranks
	queue   []request
}

// mixBlock is the planning block: large enough that the rarest class (1.8%)
// gets 18 requests per block.
const mixBlock = 1000

// clsUpload is the fleet's never-seen upload, planned like a mix class.
const clsUpload = "upload"

// newMixGen plans the mix over traces with Zipf exponent zipfS. A positive
// uploadShare adds clsUpload at that share and scales the rest down.
func newMixGen(seed int64, stream int, traces []*traceInput, zipfS, uploadShare float64) *mixGen {
	g := &mixGen{
		rng:    rand.New(rand.NewSource(seed*7_368_787 + int64(stream)*104_729 + 13)),
		traces: traces,
	}
	for _, m := range K.Mix {
		g.classes = append(g.classes, mixEntry{m.Class, m.Weight * (1 - uploadShare)})
	}
	if uploadShare > 0 {
		g.classes = append(g.classes, mixEntry{clsUpload, uploadShare})
	}
	total := 0.0
	for k := range traces {
		total += math.Pow(float64(1+k), -zipfS)
		g.cdf = append(g.cdf, total)
	}
	for k := range g.cdf {
		g.cdf[k] /= total
	}
	return g
}

// rankAt is the Zipf quantile function: the trace rank at cumulative
// probability u.
func (g *mixGen) rankAt(u float64) int {
	return min(sort.SearchFloat64s(g.cdf, u), len(g.cdf)-1)
}

// apportion splits n into whole counts proportional to the class weights
// (largest remainder), so the counts always sum to n.
func apportion(n int, classes []mixEntry) []int {
	total := 0.0
	for _, c := range classes {
		total += c.Weight
	}
	counts := make([]int, len(classes))
	rem := make([]float64, len(classes))
	left := n
	for i, c := range classes {
		exact := float64(n) * c.Weight / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// refill plans and shuffles the next block.
func (g *mixGen) refill() {
	for ci, n := range apportion(mixBlock, g.classes) {
		for j := 0; j < n; j++ {
			ti := g.rankAt((float64(j) + 0.5) / float64(n))
			g.queue = append(g.queue, g.build(g.classes[ci].Class, ti, j))
		}
	}
	g.rng.Shuffle(len(g.queue), func(i, j int) { g.queue[i], g.queue[j] = g.queue[j], g.queue[i] })
}

// next hands out one request.
func (g *mixGen) next() request {
	if len(g.queue) == 0 {
		g.refill()
	}
	r := g.queue[len(g.queue)-1]
	g.queue = g.queue[:len(g.queue)-1]
	return r
}

// zoomWindow returns slice k of the trace's step range cut into
// ZoomSlices equal windows.
func zoomWindow(maxStep int32, k int) (int32, int32) {
	n := int32(K.ZoomSlices)
	w := (maxStep + n) / n
	if w < 1 {
		w = 1
	}
	from := int32(k) * w
	to := from + w - 1
	if from > maxStep {
		from, to = 0, w-1
	}
	return from, to
}

// chareBlock returns four consecutive chare ids starting at quarter q of
// the chare range.
func chareBlock(numChares, q int) []int {
	start := q * numChares / 4
	out := make([]int, 0, 4)
	for c := start; c < start+4 && c < numChares; c++ {
		out = append(out, c)
	}
	return out
}

func joinInts(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// build makes request j of its class against trace ti; j cycles the
// parameters (zoom slice, chare block, grouping, revalidation target).
func (g *mixGen) build(class string, ti, j int) request {
	t := g.traces[ti]
	base := "/v1/traces/" + t.digest
	r := request{class: class, trace: ti, method: "GET"}
	switch class {
	case clsOverview:
		r.path = base + "/lod" + t.query("resolution=64")
	case clsZoom:
		from, to := zoomWindow(t.maxStep, j%K.ZoomSlices)
		r.path = base + "/lod" + t.query(fmt.Sprintf("resolution=256&steps=%d..%d&max_rows=16", from, to))
	case clsQuery:
		from, to := zoomWindow(t.maxStep, j%K.ZoomSlices)
		chares := chareBlock(len(t.tr.Chares), j/K.ZoomSlices%4)
		r.method = "POST"
		r.path = base + "/query" + t.query("")
		r.body = fmt.Sprintf(`{"select":"steps","filter":{"chares":[%s],"steps":{"from":%d,"to":%d}}}`, joinInts(chares), from, to)
	case clsMetrics:
		by := "chare"
		if j%2 == 1 {
			by = "phase"
		}
		r.path = base + "/metrics" + t.query("group_by="+by)
	case clsStructure:
		r.path = base + "/structure" + t.query("")
	case clsStepsWin:
		from, to := zoomWindow(t.maxStep, j%K.ZoomSlices)
		r.path = base + "/steps" + t.query(fmt.Sprintf("steps=%d..%d", from, to))
	case clsStepsFull:
		r.path = base + "/steps" + t.query("")
	case clsUpload:
		// built by the fleet's op source from r.trace
	case clsRevalidate:
		r.cond = true
		if j%2 == 0 {
			r.path = base + "/lod" + t.query("resolution=64")
		} else {
			r.path = base + "/structure" + t.query("")
		}
	default:
		panic("bench: unknown request class " + class)
	}
	return r
}

// poissonSchedule returns n arrival offsets at the given mean rate.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed*9_176_551 + 77))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
