package main

// Every tunable of the benchmark lives here, is fixed at compile time, and
// is copied into the env block of each result file. Nothing is scaled at run
// time to the machine: two runs on different hardware offer the same load.
// BENCHMARK.json has a closed schema (the driver refuses extra keys), so it
// carries only run_seconds and the metric bounds; README.md records how each
// value below was calibrated on the seed commit.

// traceSpec names one generated trace: a workload of internal/cli at a scale.
type traceSpec struct {
	Name   string `json:"name"`
	App    string `json:"app"`
	Scale  int    `json:"scale"`
	Iters  int    `json:"iters"`
	Preset string `json:"preset"` // "" (charm) or "mp": the ?preset= the server needs
}

// mixEntry is one request class of the exploration mix with its weight.
type mixEntry struct {
	Class  string  `json:"class"`
	Weight float64 `json:"weight"`
}

type constants struct {
	Workers int `json:"workers"` // load-generator workers = connections (the runner's nproc)
	// Windows is how many measurement windows a run is cut into. A window
	// must hold enough ops for its p95 to have ten samples beyond it, so the
	// slower cold-ingest gets fewer, longer windows.
	Windows      map[string]int `json:"windows"`
	SetupRepeats int            `json:"setup_repeats"` // set-ups per untraced run; setup_s is their median

	BatchTraces []traceSpec `json:"batch_traces"` // batch-extract: one pass = these five, in order
	PoolApps    []traceSpec `json:"pool_apps"`    // the nine zoo apps at medium scale; a pool is k seeds of each

	ZoomSlices     int `json:"zoom_slices"`       // step range is cut into this many zoom windows
	ColdPoolPerApp int `json:"cold_pool_per_app"` // simulator seeds per app behind cold-ingest's upload variants

	WarmTraces      int        `json:"warm_traces"`       // preloaded, all memory-resident (< 64 default entries)
	WarmZipfS       float64    `json:"warm_zipf_s"`       // trace popularity
	WarmOpenRate    float64    `json:"warm_open_rate"`    // phase A arrivals per second (Poisson)
	WarmOpenWindows int        `json:"warm_open_windows"` // windows of the run spent in phase A; the rest is phase B
	Mix             []mixEntry `json:"mix"`

	FleetNodes       int     `json:"fleet_nodes"`
	FleetReplication int     `json:"fleet_replication"`
	FleetMemEntries  int     `json:"fleet_mem_entries"`
	FleetTraces      int     `json:"fleet_traces"` // preloaded through the gateway
	FleetZipfS       float64 `json:"fleet_zipf_s"`
	FleetUploadShare float64 `json:"fleet_upload_share"`

	// SLOms is each workload's fixed latency limit for slo_share.
	SLOms map[string]float64 `json:"slo_ms"`

	// Traced-run sample sizes (fixed counts, not time-based, so the span
	// populations behind every replay metric are the same on every commit).
	ReplayColdTraces   int `json:"replay_cold_traces"`
	ReplayRequests     int `json:"replay_requests"`
	ReplayHopRequests  int `json:"replay_hop_requests"`
	ReplayFanoutTraces int `json:"replay_fanout_traces"`
	ReplayBatchTraces  int `json:"replay_batch_traces"` // traces of the core.batch_speedup probe
	CheckSample        int `json:"check_sample"`        // steps/query bodies kept per run for the checker
}

const (
	wlBatch = "batch-extract"
	wlCold  = "cold-ingest"
	wlWarm  = "warm-explore"
	wlFleet = "fleet-overflow"
)

var workloadNames = []string{wlBatch, wlCold, wlWarm, wlFleet}

// Request classes of the exploration mix; the route a class reports under
// is routeOf[class].
const (
	clsOverview   = "lod-overview"
	clsZoom       = "lod-zoom"
	clsQuery      = "query"
	clsMetrics    = "metrics-group"
	clsStructure  = "structure"
	clsStepsWin   = "steps-window"
	clsStepsFull  = "steps-full"
	clsRevalidate = "revalidate"
)

var K = constants{
	Workers:      2,
	Windows:      map[string]int{wlCold: 5, wlWarm: 10, wlFleet: 10},
	SetupRepeats: 3,

	BatchTraces: []traceSpec{
		{Name: "jacobi32i8", App: "jacobi", Scale: 32, Iters: 8},
		{Name: "jacobi16i32", App: "jacobi", Scale: 16, Iters: 32},
		{Name: "jacobi32i16", App: "jacobi", Scale: 32, Iters: 16},
		{Name: "lulesh6", App: "lulesh", Scale: 6},
		{Name: "mergetree4096", App: "mergetree", Scale: 4096, Preset: "mp"},
	},
	PoolApps: []traceSpec{
		{Name: "jacobi", App: "jacobi", Scale: 8, Iters: 12},
		{Name: "lulesh", App: "lulesh", Scale: 4},
		{Name: "lassen", App: "lassen", Iters: 40},
		{Name: "mergetree", App: "mergetree", Scale: 512, Preset: "mp"},
		{Name: "nasbt", App: "nasbt", Scale: 5, Iters: 16, Preset: "mp"},
		{Name: "pdes", App: "pdes", Scale: 128, Iters: 16},
		{Name: "lbmigrate", App: "lbmigrate", Scale: 48, Iters: 24},
		{Name: "faultsim", App: "faultsim", Scale: 32, Iters: 30},
		{Name: "ordstress", App: "ordstress", Scale: 32, Iters: 20},
	},

	ZoomSlices:     8,
	ColdPoolPerApp: 4,

	WarmTraces:      24,
	WarmZipfS:       1.2,
	WarmOpenRate:    250,
	WarmOpenWindows: 5,
	Mix: []mixEntry{
		{clsOverview, 0.18},
		{clsZoom, 0.27},
		{clsQuery, 0.18},
		{clsMetrics, 0.09},
		{clsStructure, 0.072},
		{clsStepsWin, 0.072},
		{clsStepsFull, 0.018},
		{clsRevalidate, 0.10},
	},

	FleetNodes:       3,
	FleetReplication: 2,
	FleetMemEntries:  8,
	FleetTraces:      48,
	FleetZipfS:       1.01,
	FleetUploadShare: 0.03,

	SLOms: map[string]float64{wlBatch: 1500, wlCold: 250, wlWarm: 50, wlFleet: 100},

	ReplayColdTraces:   18,
	ReplayRequests:     400,
	ReplayHopRequests:  100,
	ReplayFanoutTraces: 12,
	ReplayBatchTraces:  8,
	CheckSample:        96,
}

// routeOf maps a request class to the route its latency is reported under
// (route.<r>.p50_ms ...).
var routeOf = map[string]string{
	clsOverview:   "lod",
	clsZoom:       "lod",
	clsQuery:      "query",
	clsMetrics:    "metrics",
	clsStructure:  "structure",
	clsStepsWin:   "steps",
	clsStepsFull:  "steps",
	clsRevalidate: "revalidate",
}

// routes is the fixed report order; "upload" is not in the mix but is sent
// by cold-ingest and fleet-overflow.
var routes = []string{"upload", "structure", "steps", "metrics", "query", "lod", "revalidate"}
