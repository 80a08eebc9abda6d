package main

// The benchmark's fixed vocabulary: metric names with unit, direction and
// regression bound, and the run shape. BENCHMARK.json at the repository root
// mirrors these tables; TestManifestMatchesTables keeps the two in step.

import "time"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload by an untraced run. An op is one complete user-visible unit: one
// source-to-stable-state run, or one HTTP request.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_s_p50", "s", "lower", 0.25},
	{"cpu_s_per_op", "s", "lower", 0.25},
	{"alloc_b_per_op", "B", "lower", 0.05},
}

// perLayer are the traced run's metrics, one list for every workload: a layer
// a workload never enters reports 0 there. Times are mean seconds per op and
// counts are per op unless the README says otherwise.
var perLayer = []metricDef{
	{Name: "schema.decode_s", Unit: "s", Better: "lower"},
	{Name: "schema.encode_s", Unit: "s", Better: "lower"},
	{Name: "schema.decode_resp_s", Unit: "s", Better: "lower"},
	{Name: "schema.body_bytes", Unit: "B", Better: "lower"},

	{Name: "gammalang.parse_s", Unit: "s", Better: "lower"},
	{Name: "gammalang.src_bytes", Unit: "B", Better: "lower"},

	{Name: "multiset.parse_s", Unit: "s", Better: "lower"},
	{Name: "multiset.format_s", Unit: "s", Better: "lower"},
	{Name: "multiset.clone_s", Unit: "s", Better: "lower"},
	{Name: "multiset.apply_s", Unit: "s", Better: "lower"},
	{Name: "multiset.scan_s", Unit: "s", Better: "lower"},
	{Name: "multiset.scan_visited", Unit: "count", Better: "lower"},
	{Name: "multiset.final_len", Unit: "count", Better: "lower"},

	{Name: "gamma.run_s", Unit: "s", Better: "lower"},
	{Name: "gamma.steps", Unit: "count", Better: "lower"},
	{Name: "gamma.probes", Unit: "count", Better: "lower"},
	{Name: "gamma.steps_per_probe", Unit: "ratio", Better: "higher"},
	{Name: "gamma.ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "gamma.match_s", Unit: "s", Better: "lower"},
	{Name: "gamma.cold_extra_s", Unit: "s", Better: "lower"},
	{Name: "gamma.conflicts", Unit: "count", Better: "lower"},
	{Name: "gamma.retries", Unit: "count", Better: "lower"},
	{Name: "gamma.backoff_waits", Unit: "count", Better: "lower"},
	{Name: "gamma.steals", Unit: "count", Better: "lower"},
	{Name: "gamma.batches", Unit: "count", Better: "lower"},
	{Name: "gamma.steps_per_batch", Unit: "ratio", Better: "higher"},
	{Name: "gamma.scale_exp", Unit: "ratio", Better: "lower"},

	{Name: "dataflow.run_s", Unit: "s", Better: "lower"},
	{Name: "dataflow.firings", Unit: "count", Better: "lower"},
	{Name: "dataflow.ns_per_firing", Unit: "ns", Better: "lower"},
	{Name: "dataflow.pending", Unit: "count", Better: "lower"},
	{Name: "dataflow.seq_s", Unit: "s", Better: "lower"},
	{Name: "dataflow.matrix_s", Unit: "s", Better: "lower"},
	{Name: "dataflow.parallel_s", Unit: "s", Better: "lower"},
	{Name: "dataflow.ticks", Unit: "count", Better: "lower"},
	{Name: "dataflow.fired_per_tick", Unit: "ratio", Better: "higher"},

	{Name: "dfir.unmarshal_s", Unit: "s", Better: "lower"},
	{Name: "dfir.marshal_s", Unit: "s", Better: "lower"},
	{Name: "dfir.src_bytes", Unit: "B", Better: "lower"},

	{Name: "compiler.compile_s", Unit: "s", Better: "lower"},
	{Name: "compiler.nodes", Unit: "count", Better: "lower"},

	{Name: "core.to_gamma_s", Unit: "s", Better: "lower"},
	{Name: "core.reactions", Unit: "count", Better: "lower"},
	{Name: "core.to_graph_s", Unit: "s", Better: "lower"},

	{Name: "equiv.gamma_over_df", Unit: "ratio", Better: "lower"},
	{Name: "equiv.firing_parity", Unit: "ratio", Better: "higher"},

	{Name: "service.submit_s", Unit: "s", Better: "lower"},
	{Name: "service.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "service.run_s", Unit: "s", Better: "lower"},
	{Name: "service.overhead_s", Unit: "s", Better: "lower"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "service.req_s_p99", Unit: "s", Better: "lower"},

	{Name: "client.roundtrip_s", Unit: "s", Better: "lower"},
	{Name: "client.http_overhead_s", Unit: "s", Better: "lower"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_s", Unit: "s", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.op_s_p90", Unit: "s", Better: "lower"},
	{Name: "bench.samples", Unit: "count", Better: "higher"},
	{Name: "bench.window_spread", Unit: "ratio", Better: "lower"},
	{Name: "bench.explained_share", Unit: "ratio", Better: "higher"},
	{Name: "bench.fail_ratio", Unit: "ratio", Better: "lower"},
}

// shape is the run shape, identical on every commit. Only the measured
// window follows --seconds; the smoke test shrinks the rest.
type shape struct {
	// minN is gamma_min's multiset size; tournamentN (a power of two) the
	// size of both tournament workloads.
	minN, tournamentN int
	// width × depth is df_wide's graph; iters is equiv_loop's trip count.
	width, depth, iters int
	// mixedTournament and mixedMin size svc_mixed's gamma requests;
	// mixedWidth × mixedDepth its dataflow requests.
	mixedTournament, mixedMin, mixedWidth, mixedDepth int
	// scaleSizes are the n of the gamma.scale_exp fit, scaleReps runs each.
	scaleSizes []int
	scaleReps  int
	// Set-up runs at least minSetups times, and on until setupBudget is spent
	// or maxSetups is reached; setup_s is the median.
	minSetups, maxSetups int
	setupBudget          time.Duration
	// warm is the untimed warm-up before a window: the first seconds of a
	// process on this host run up to 3× slow.
	warm time.Duration
	// subWindows splits the timed window for the throughput median.
	subWindows int
	// probeReps is how many times each untimed layer probe (engine
	// comparison, schedule replay, cold start) repeats for its median.
	probeReps int
}

var fullShape = shape{
	minN: 8192, tournamentN: 16384, width: 2048, depth: 16, iters: 2000,
	mixedTournament: 512, mixedMin: 256, mixedWidth: 32, mixedDepth: 8,
	scaleSizes: []int{4096, 8192, 16384, 32768}, scaleReps: 3,
	minSetups: 5, maxSetups: 500, setupBudget: time.Second,
	warm: 3 * time.Second, subWindows: 5, probeReps: 3,
}

// smokeShape keeps every code path of fullShape at a size the tier-1 smoke
// test runs in seconds.
var smokeShape = shape{
	minN: 256, tournamentN: 256, width: 64, depth: 4, iters: 50,
	mixedTournament: 64, mixedMin: 32, mixedWidth: 4, mixedDepth: 2,
	scaleSizes: []int{64, 128, 256}, scaleReps: 1,
	minSetups: 2, maxSetups: 2,
	warm: 20 * time.Millisecond, subWindows: 5, probeReps: 1,
}

const (
	// loadClients is the closed-loop client count of the svc_* workloads and
	// servicePool the executor pool they run against: the host has 2 cores.
	loadClients = 2
	servicePool = 2
	// tracedClient is the request stream of the traced pass, after the load
	// goroutines' streams 0..loadClients-1.
	tracedClient = loadClients
	// engineWorkers is the worker count of every parallel engine.
	engineWorkers = 2
	// heapSampleEvery is the live-heap sampling period behind
	// runtime.heap_peak_mb.
	heapSampleEvery = 100 * time.Millisecond
)
