package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// result is everything one run of one workload measured.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Windows   []windowStat      `json:"windows"`
	SetupS    []float64         `json:"setup_s_samples"`
}

// runOptions shapes one run.
type runOptions struct {
	seed    int64
	seconds float64
	setups  int  // how many times to set up; setup_s is the median
	quick   bool // tiny inputs and op counts, for the smoke test
}

// runWorkload sets the workload up (o.setups times, keeping the last),
// measures it for o.seconds, checks the answers and tears everything down.
// It fills the end-to-end metrics and the per-layer metrics that come from
// the real run: the program's own counters, per-route latency and the
// harness's self-measurements.
func (h *harness) runWorkload(ctx context.Context, name string, o runOptions) (*result, error) {
	res := &result{
		Workload: name, Seed: o.seed, Seconds: o.seconds,
		EndToEnd: make(map[string]metric), PerLayer: make(map[string]metric),
	}
	if name == wlBatch {
		return res, h.runBatch(ctx, res, o)
	}
	for _, known := range workloadNames {
		if name == known {
			return res, h.runServed(ctx, res, o)
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadNames)
}

// finish derives the eight end-to-end metrics and the window-spread
// metrics from the measurement windows.
func (res *result) finish(wins []windowStat, okLatMS []float64, peakRSSMB float64) {
	res.Windows = wins
	// Throughput and latency come from the closed-loop windows; the
	// open-loop windows' latency (from due time) is reported per layer as
	// openloop.*: on this runner its tail spreads by 25-40% of its median
	// across seeds, three times the closed loop's, because the generator
	// itself is woken late by the host (gen.lateness_p99_ms).
	var ops, p50, p95, cpu, open50, open95 []float64
	cpuTotal, wallTotal := 0.0, 0.0
	for _, w := range wins {
		res.Attempted += w.Attempted
		cpuTotal += w.CPUms
		wallTotal += w.WallS
		if w.OK == 0 {
			continue
		}
		cpu = append(cpu, w.CPUms/float64(w.OK))
		if w.Open {
			open50, open95 = append(open50, w.P50ms), append(open95, w.P95ms)
		} else {
			ops, p50, p95 = append(ops, w.OpsPerS), append(p50, w.P50ms), append(p95, w.P95ms)
		}
	}
	within := 0
	limit := K.SLOms[res.Workload]
	for _, l := range okLatMS {
		if l <= limit {
			within++
		}
	}
	ok := len(okLatMS)
	res.Failed += res.Attempted - ok

	res.EndToEnd["setup_s"] = metric{Value: median(res.SetupS), Unit: "s", IQR: iqr(res.SetupS)}
	res.EndToEnd["ops_per_s"] = windowed(ops, "1/s")
	res.EndToEnd["op_p50_ms"] = windowed(p50, "ms")
	res.EndToEnd["op_p95_ms"] = windowed(p95, "ms")
	res.EndToEnd["slo_share"] = metric{Value: ratio(float64(within), float64(res.Attempted)), Unit: "share"}
	res.EndToEnd["cpu_ms_per_op"] = windowed(cpu, "ms")
	res.EndToEnd["peak_rss_mb"] = metric{Value: peakRSSMB, Unit: "MB"}

	res.PerLayer["openloop.p50_ms"] = metric{Value: median(open50)}
	res.PerLayer["openloop.p95_ms"] = metric{Value: median(open95)}
	res.PerLayer["window.ops_iqr_share"] = metric{Value: ratio(iqr(ops), median(ops))}
	res.PerLayer["window.p50_iqr_share"] = metric{Value: ratio(iqr(p50), median(p50))}
	res.PerLayer["proc.cpu_util_share"] = metric{Value: ratio(cpuTotal, wallTotal*1e3*float64(runtime.NumCPU()))}
}

// settle writes the two failure metrics once every check has run.
func (res *result) settle() {
	failShare := ratio(float64(res.Failed), float64(res.Attempted))
	res.EndToEnd["ok_share"] = metric{Value: 1 - failShare, Unit: "share"}
	res.PerLayer["fail_share"] = metric{Value: failShare}
}

func (h *harness) runBatch(ctx context.Context, res *result, o runOptions) error {
	specs := K.BatchTraces
	if o.quick {
		// Same apps, toy sizes: the smoke test checks plumbing, not speed.
		specs = make([]traceSpec, len(K.BatchTraces))
		for i, s := range K.BatchTraces {
			s.Scale, s.Iters = 0, 0
			if s.App == "mergetree" {
				s.Scale = 64
			}
			specs[i] = s
		}
	}
	var child *batchChild
	for i := 0; i < o.setups; i++ {
		if child != nil {
			child.abandon()
		}
		start := time.Now()
		var err error
		if child, err = h.setupBatch(ctx, o.seed, o.seconds, specs); err != nil {
			return err
		}
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
	}
	rep, err := child.run()
	if err != nil {
		return err
	}

	var wins []windowStat
	var lat []float64
	perTrace := make([][]float64, len(specs))
	for p, pass := range rep.OpNS {
		w := windowStat{Attempted: len(pass), CPUms: rep.PassCPU[p]}
		var passLat []float64
		for i, ns := range pass {
			if ns < 0 {
				continue
			}
			ms := float64(ns) / 1e6
			w.OK++
			w.WallS += ms / 1e3
			passLat = append(passLat, ms)
			perTrace[i] = append(perTrace[i], ms)
		}
		// One worker, back to back: the pass's wall time is the sum of its
		// ops (the untimed fingerprinting between ops is not the library's).
		w.OpsPerS = ratio(float64(w.OK), w.WallS)
		w.P50ms, w.P95ms = percentile(passLat, 50), percentile(passLat, 95)
		wins = append(wins, w)
		lat = append(lat, passLat...)
	}
	res.finish(wins, lat, rep.HWMkB/1024)
	for i, s := range specs {
		res.PerLayer["batch."+s.Name+".ms"] = metric{Value: median(perTrace[i])}
	}
	res.PerLayer["proc.rss_end_mb"] = metric{Value: rep.RSSkB / 1024}
	res.Failed += len(rep.Failures)
	res.Failures = rep.Failures
	res.settle()
	return nil
}

func (h *harness) runServed(ctx context.Context, res *result, o runOptions) error {
	if err := h.build(ctx); err != nil {
		return err
	}
	var env *serveEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	for i := 0; i < o.setups; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = h.setupServe(ctx, res.Workload, o.seed, o.quick); err != nil {
			return err
		}
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
	}

	before, err := env.scrape()
	if err != nil {
		return err
	}
	phases := env.measure(ctx, time.Duration(o.seconds*float64(time.Second)))
	after, err := env.scrape()
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	var wins []windowStat
	var lat []float64
	byRoute := make(map[string][]float64)
	okReqs, notModified := 0.0, 0.0
	for _, ph := range phases {
		wins = append(wins, ph.windowsOf()...)
		for _, s := range ph.ops {
			if s.ok {
				lat = append(lat, s.latencyMS())
			}
		}
		for _, s := range ph.reqs {
			if s.ok {
				byRoute[s.route] = append(byRoute[s.route], s.latencyMS())
				okReqs++
				if s.route == "revalidate" {
					notModified++
				}
			}
		}
		if ph.open {
			res.PerLayer["gen.lateness_p99_ms"] = metric{Value: percentile(ph.lateness, 99)}
			res.PerLayer["gen.achieved_rate_rps"] = metric{Value: ratio(float64(len(ph.ops)), ph.dur.Seconds())}
		}
	}
	rssEnd := 0.0
	for _, p := range env.procs() {
		rssEnd += p.rssMB()
	}
	res.finish(wins, lat, env.peakRSSMB())
	res.Failed += env.checkKept()
	res.Failures = env.v.failures
	res.settle()

	for r, v := range byRoute {
		res.PerLayer["route."+r+".p50_ms"] = metric{Value: percentile(v, 50)}
		res.PerLayer["route."+r+".p95_ms"] = metric{Value: percentile(v, 95)}
		res.PerLayer["route."+r+".p99_ms"] = metric{Value: percentile(v, 99)}
	}
	res.PerLayer["proc.rss_end_mb"] = metric{Value: rssEnd}
	res.PerLayer["setup.build_s"] = metric{Value: h.buildS}
	res.PerLayer["store.bytes_per_trace_byte"] = metric{Value: ratio(float64(env.storedBytes()), float64(env.uploadedBytes.Load()))}
	res.PerLayer["server.not_modified_share"] = metric{Value: ratio(notModified, okReqs)}
	counterMetrics(res.PerLayer, before, after, float64(len(lat)))
	return nil
}

// counterMetrics turns the growth of the program's own counters over the
// measured phases into the per-layer counter metrics; kops is per 1,000
// successful ops.
func counterMetrics(out map[string]metric, before, after registry, okOps float64) {
	d := func(name string) float64 { return delta(before, after, name) }
	perKop := func(name string) metric { return metric{Value: ratio(d(name)*1000, okOps)} }

	mem, disk, peer, miss := d("cache.mem_hits"), d("cache.disk_hits"), d("cache.peer_hits"), d("cache.misses")
	lookups := mem + disk + peer + miss
	out["resultcache.mem_hit_ratio"] = metric{Value: ratio(mem, lookups)}
	out["resultcache.disk_hit_ratio"] = metric{Value: ratio(disk, lookups)}
	// Of the lookups that went past memory, the share that had to extract.
	out["resultcache.miss_ratio"] = metric{Value: ratio(miss, disk+peer+miss)}
	out["resultcache.evictions_per_kop"] = perKop("cache.evictions")
	out["resultcache.index_builds_per_kop"] = perKop("cache.index_builds")
	out["resultcache.aux_builds_per_kop"] = perKop("cache.aux_builds")
	out["resultcache.coalesced_per_kop"] = perKop("cache.coalesced")
	out["resultcache.peer_hits_per_kop"] = perKop("cache.peer_hits")
	out["server.shed_per_kop"] = perKop("server.shed")
	out["server.queue_wait_p95_ms"] = metric{Value: histP95(before, after, "server.queue_wait_ms")}

	out["cluster.hedge_fired_per_kop"] = perKop("gateway_hedge_fired_total")
	out["cluster.hedge_won_per_kop"] = perKop("gateway_hedge_won_total")
	out["cluster.failovers_per_kop"] = perKop("gateway_failovers_total")
	out["cluster.peer_fill_hits_per_kop"] = perKop("gateway_peer_fill_hits_total")
	out["cluster.replica_pushes_per_kop"] = perKop("gateway_replica_pushes_total")
	out["cluster.replica_errors_per_kop"] = perKop("gateway_replica_errors_total")
}
