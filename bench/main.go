// Command bench is the repository's benchmark: seven workloads over the
// Gamma and dataflow engines, the paper's translation pipeline and the gammad
// service, each measured end to end by an untraced run and layer by layer by
// a traced run, with every result checked against a plain-Go oracle. See
// README.md in this directory.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//	bench --all --seed N [--runs R] [--out FILE]          every workload, R untraced runs and one traced
//	bench --compare A.json B.json                         two --all result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one-line JSON a single run prints last.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (BENCHMARK.json lists them)")
		seed         = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", runSeconds, "length of the timed window")
		traced       = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceDir     = flag.String("trace-dir", ".bench_build", "directory the traced run writes trace-<workload>.json to")
		all          = flag.Bool("all", false, "run every workload: --runs untraced runs on consecutive seeds, then one traced run")
		runs         = flag.Int("runs", 1, "untraced runs per workload with --all")
		out          = flag.String("out", "", "with --all, write the results (with host and provenance) to this file")
		compare      = flag.Bool("compare", false, "compare two --all result files: bench --compare A.json B.json")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json as the program's tables define it")
	)
	flag.Parse()
	length := time.Duration(*seconds * float64(time.Second))

	switch {
	case *manifest:
		if err := writeManifest(os.Stdout); err != nil {
			fatalf(1, "%v", err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatalf(2, "usage: bench --compare A.json B.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf(2, "compare: %v", err)
		}
		if worse > 0 {
			os.Exit(1)
		}
	case *all:
		if err := runAll(os.Stdout, *seed, *runs, length, *traceDir, *out); err != nil {
			fatalf(1, "%v", err)
		}
	default:
		w := findWorkload(*workloadName)
		if w == nil {
			fatalf(2, "unknown workload %q (BENCHMARK.json lists them)", *workloadName)
		}
		var res runResult
		var err error
		if *traced != 0 {
			res, err = runTraced(os.Stdout, w, *seed, fullShape, length, *traceDir)
		} else {
			res, err = runUntraced(os.Stdout, w, *seed, fullShape, length)
		}
		if err != nil {
			fatalf(1, "%s: %v", w.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf(1, "%v", err)
		}
		fmt.Printf("%s\n", line)
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// runSeconds is the timed window the driver asks for (BENCHMARK.json
// run_seconds); with set-up and warm-up a run takes about 17 s.
const runSeconds = 12

// writeManifest renders BENCHMARK.json from the tables, so the manifest and
// the program cannot name different metrics.
func writeManifest(w io.Writer) error {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	man := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricDef     `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, wl := range workloads {
		man.Workloads = append(man.Workloads, workloadEntry{wl.name, wl.why})
	}
	for _, m := range perLayer {
		man.PerLayer = append(man.PerLayer, layerEntry{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// setUp sets the workload up repeatedly — one set-up is too short to time
// alone — and returns the last instance with the median set-up time.
func setUp(w *workload, seed int64, sh shape) (instance, float64, error) {
	var inst instance
	var times []float64
	var spent time.Duration
	for len(times) < sh.minSetups || (len(times) < sh.maxSetups && spent < sh.setupBudget) {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed, sh); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	return inst, median(times), nil
}

// runUntraced is the end-to-end run: set-up, warm-up, one timed window.
func runUntraced(out io.Writer, w *workload, seed int64, sh shape, length time.Duration) (runResult, error) {
	inst, setupS, err := setUp(w, seed, sh)
	if err != nil {
		return runResult{}, err
	}
	defer inst.close()
	win, _ := measure(inst, w.clients, 0, sh.warm, length, sh.subWindows)
	if win.ops == 0 {
		return runResult{}, fmt.Errorf("no correct op in the window (first error: %v)", win.firstErr)
	}
	vals := map[string]float64{
		"setup_s":        setupS,
		"ops_per_s":      median(win.rates),
		"op_s_p50":       quantile(win.latencies, 0.50),
		"cpu_s_per_op":   win.cpuS / win.ops,
		"alloc_b_per_op": win.allocB / win.ops,
	}
	res := runResult{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed,
		Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "%s seed=%d untraced window=%s samples=%d failed=%d sub-window rates=%.4g gc=%.0f\n",
		w.name, seed, length, len(win.latencies), win.failed, win.rates, win.gcCycles)
	if win.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", win.firstErr)
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", m.Name, vals[m.Name], m.Unit)
	}
	return res, nil
}

// runTraced is the per-layer run: set-up, warm-up, a short untraced reference
// window at the workload's client count (the run-wide counters), the traced
// ops, then the layer probes. The trace is written when the run ends.
func runTraced(out io.Writer, w *workload, seed int64, sh shape, length time.Duration, traceDir string) (runResult, error) {
	inst, _, err := setUp(w, seed, sh)
	if err != nil {
		return runResult{}, err
	}
	defer inst.close()
	ref, nextOp := measure(inst, w.clients, 0, sh.warm, length*2/5, sh.subWindows)

	// Traced and untraced ops alternate on this one goroutine, swapping which
	// goes first, so the two means differ by the cost of tracing and not by
	// drift, contention or what ran just before.
	tr := newTracer()
	attempted, failed := 0, 0
	var firstErr error
	var untraced []float64
	for deadline := time.Now().Add(length * 2 / 5); attempted == 0 || time.Now().Before(deadline); attempted++ {
		var err error
		for k := 0; k < 2 && err == nil; k++ {
			if k == attempted%2 {
				err = inst.tracedOp(nextOp+2*attempted+k, tr)
				continue
			}
			var lat time.Duration
			if lat, err = inst.op(nextOp+2*attempted+k, tracedClient); err == nil {
				untraced = append(untraced, lat.Seconds())
			}
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	p := &probe{sh: sh, vals: map[string]float64{}}
	if err := inst.probes(p); err != nil {
		return runResult{}, fmt.Errorf("layer probes: %w", err)
	}

	vals := layerValues(tr, attempted, p, ref)
	if base := mean(untraced); base > 0 {
		vals["bench.trace_overhead_pct"] = 100 * (tr.seconds("op", attempted) - base) / base
	}
	vals["bench.fail_ratio"] = float64(failed+ref.failed) / float64(attempted+ref.attempted)
	fmt.Fprintf(out, "%s seed=%d traced ops=%d failed=%d (reference window: %d ops, %d failed)\n",
		w.name, seed, attempted, failed, ref.attempted, ref.failed)
	if firstErr == nil {
		firstErr = ref.firstErr
	}
	if firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", firstErr)
	}
	vals["bench.explained_share"] = tr.selfTable(out, "op", attempted)
	if tr.totals["byhand"] != nil {
		tr.selfTable(out, "byhand", attempted)
	}

	res := runResult{Correct: failed+ref.failed == 0, Attempted: attempted + ref.attempted, Failed: failed + ref.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		v := vals[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", m.Name, v, m.Unit)
	}

	if traceDir != "" {
		path := filepath.Join(traceDir, "trace-"+w.name+".json")
		if err := writeTrace(tr, path); err != nil {
			return runResult{}, err
		}
		fmt.Fprintf(out, "  trace: %s (%d spans)\n", path, len(tr.spans))
	}
	return res, nil
}

func writeTrace(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerValues assembles the per-layer metrics: span means and counters from
// the traced ops, direct values from the probes, run-wide figures from the
// untraced reference window, and the ratios derived from them.
func layerValues(tr *tracer, ops int, p *probe, ref window) map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayer {
		// A metric named <span>_s is that span's mean seconds per op; any
		// other name is a counter's mean per op.
		if n := len(m.Name); n > 2 && m.Name[n-2:] == "_s" {
			v[m.Name] = tr.seconds(m.Name[:n-2], ops)
		} else {
			v[m.Name] = tr.perOp(m.Name, ops)
		}
	}
	for name, val := range p.vals {
		v[name] = val
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["gamma.steps_per_probe"] = ratio(v["gamma.steps"], v["gamma.probes"])
	v["gamma.ns_per_step"] = ratio(v["gamma.run_s"]*1e9, v["gamma.steps"])
	v["gamma.steps_per_batch"] = ratio(v["gamma.steps"], v["gamma.batches"])
	if v["multiset.apply_s"] > 0 {
		v["gamma.match_s"] = v["gamma.run_s"] - v["multiset.apply_s"]
	}
	v["dataflow.ns_per_firing"] = ratio(v["dataflow.run_s"]*1e9, v["dataflow.firings"])
	// Only a workload that translates (Alg. 1) runs one program on both models.
	if v["gamma.run_s"] > 0 && v["dataflow.run_s"] > 0 && v["core.to_gamma_s"] > 0 {
		v["equiv.gamma_over_df"] = v["gamma.run_s"] / v["dataflow.run_s"]
	}
	if inproc := tr.seconds("service.inproc", ops); inproc > 0 {
		v["service.overhead_s"] = inproc - tr.perOp("service.inproc_run_s", ops) - tr.perOp("service.inproc_queue_wait_s", ops)
		v["client.http_overhead_s"] = v["client.roundtrip_s"] - inproc
		v["service.req_s_p99"] = quantile(ref.latencies, 0.99)
	}

	v["runtime.gc_cycles"] = ref.gcCycles
	v["runtime.gc_pause_s"] = ref.gcPauseS
	v["runtime.allocs_per_op"] = ratio(ref.mallocs, ref.ops)
	v["runtime.heap_peak_mb"] = ref.heapPeak / (1 << 20)
	v["bench.op_s_p90"] = quantile(ref.latencies, 0.90)
	v["bench.samples"] = float64(len(ref.latencies))
	v["bench.window_spread"] = ratio(quantile(ref.rates, 1)-quantile(ref.rates, 0), median(ref.rates))
	return v
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
