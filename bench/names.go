package main

import "charmtrace/internal/core"

// The metric catalogue: every name the benchmark reports, with its unit and
// the direction that is better. BENCHMARK.json lists exactly these (a test
// holds the two together), an untraced run prints every end-to-end metric
// and a traced run every per-layer metric. A per-layer metric reads 0 on a
// workload whose operations never enter that layer — which is the
// prediction "this layer does nothing here", measured.

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEndDefs = []metricDef{
	{"setup_s", "s", lower},
	{"ops_per_s", "1/s", higher},
	{"op_p50_ms", "ms", lower},
	{"op_p95_ms", "ms", lower},
	{"slo_share", "share", higher},
	{"ok_share", "share", higher},
	{"cpu_ms_per_op", "ms", lower},
	{"peak_rss_mb", "MB", lower},
}

// handlerRoutes are the routes replayed handler-only in the traced run.
var handlerRoutes = []string{"upload", "structure", "steps", "metrics", "query", "lod"}

func perLayerDefs() []metricDef {
	d := []metricDef{
		{"tracefile.decode_ns_per_event", "ns", lower},
		{"tracefile.decode_allocs_per_kevent", "count", lower},
		{"core.extract_ns_per_event", "ns", lower},
		{"core.extract_allocs_per_kevent", "count", lower},
		{"core.enforce_rounds", "count", lower},
	}
	for _, s := range core.StageOrder {
		d = append(d, metricDef{stageMetric(s), "ns", lower})
	}
	d = append(d,
		metricDef{"core.par_speedup", "ratio", higher},
		metricDef{"core.batch_speedup", "ratio", higher},
		metricDef{"core.encode_ns_per_event", "ns", lower},
		metricDef{"core.decode_ns_per_event", "ns", lower},
		metricDef{"core.summary_decode_us", "us", lower},
		metricDef{"core.cstr_bytes_per_event", "B", lower},
		metricDef{"metrics.compute_ns_per_event", "ns", lower},
		metricDef{"query.index_build_ns_per_event", "ns", lower},
		metricDef{"query.index_bytes_per_event", "B", lower},
		metricDef{"query.run_us", "us", lower},
		metricDef{"lod.build_ns_per_event", "ns", lower},
		metricDef{"lod.pyramid_bytes_per_event", "B", lower},
		metricDef{"lod.query_us", "us", lower},
		metricDef{"resultcache.get_miss_us", "us", lower},
		metricDef{"resultcache.miss_overhead_us", "us", lower},
		metricDef{"resultcache.get_mem_us", "us", lower},
		metricDef{"resultcache.get_disk_us", "us", lower},
		metricDef{"resultcache.disk_hit_index_us", "us", lower},
		metricDef{"resultcache.disk_hit_aux_us", "us", lower},
		metricDef{"resultcache.mem_hit_ratio", "share", higher},
		metricDef{"resultcache.disk_hit_ratio", "share", lower},
		metricDef{"resultcache.miss_ratio", "share", lower},
		metricDef{"resultcache.evictions_per_kop", "count", lower},
		metricDef{"resultcache.index_builds_per_kop", "count", lower},
		metricDef{"resultcache.aux_builds_per_kop", "count", lower},
		metricDef{"resultcache.coalesced_per_kop", "count", lower},
		metricDef{"resultcache.peer_hits_per_kop", "count", higher},
	)
	for _, r := range handlerRoutes {
		d = append(d, metricDef{"server.handler_us." + r, "us", lower})
	}
	d = append(d,
		metricDef{"server.gzip_overhead_us", "us", lower},
		metricDef{"server.render_overhead_us", "us", lower},
		metricDef{"server.upload_overhead_us", "us", lower},
		metricDef{"server.net_overhead_us", "us", lower},
		metricDef{"server.queue_wait_p95_ms", "ms", lower},
		metricDef{"server.shed_per_kop", "count", lower},
		metricDef{"server.not_modified_share", "share", higher},
		metricDef{"cluster.gateway_hop_us", "us", lower},
		metricDef{"cluster.upload_fanout_us", "us", lower},
		metricDef{"cluster.hedge_fired_per_kop", "count", lower},
		metricDef{"cluster.hedge_won_per_kop", "count", higher},
		metricDef{"cluster.failovers_per_kop", "count", lower},
		metricDef{"cluster.peer_fill_hits_per_kop", "count", higher},
		metricDef{"cluster.replica_pushes_per_kop", "count", lower},
		metricDef{"cluster.replica_errors_per_kop", "count", lower},
	)
	for _, r := range routes {
		for _, p := range []string{"p50", "p95", "p99"} {
			d = append(d, metricDef{"route." + r + "." + p + "_ms", "ms", lower})
		}
	}
	for _, t := range K.BatchTraces {
		d = append(d, metricDef{"batch." + t.Name + ".ms", "ms", lower})
	}
	d = append(d,
		metricDef{"openloop.p50_ms", "ms", lower},
		metricDef{"openloop.p95_ms", "ms", lower},
		metricDef{"gen.lateness_p99_ms", "ms", lower},
		metricDef{"gen.achieved_rate_rps", "1/s", higher},
		metricDef{"window.ops_iqr_share", "share", lower},
		metricDef{"window.p50_iqr_share", "share", lower},
		metricDef{"proc.cpu_util_share", "share", lower},
		metricDef{"proc.rss_end_mb", "MB", lower},
		metricDef{"store.bytes_per_trace_byte", "ratio", lower},
		metricDef{"setup.build_s", "s", lower},
		metricDef{"trace.overhead_share", "share", lower},
		metricDef{"budget.cold.unaccounted_share", "share", lower},
		metricDef{"budget.warm.unaccounted_share", "share", lower},
		metricDef{"fail_share", "share", lower},
	)
	return d
}

// complete returns got with every catalogue metric present: a metric the
// run did not produce reads 0 in its catalogue unit.
func complete(defs []metricDef, got map[string]metric) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m := got[d.Name]
		m.Unit = d.Unit
		out[d.Name] = m
	}
	return out
}

// stageMetric names one extraction stage's per-event time.
func stageMetric(stage string) string { return "core.stage." + stage + ".ns_per_event" }
