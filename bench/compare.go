package main

// --all result sets and --compare. A result set holds, per workload and
// end-to-end metric, one value per untraced run (consecutive seeds), plus one
// traced run's per-layer values and the host the set was measured on.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"git_commit"`
}

type seriesValues struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

type workloadResults struct {
	Seeds     []int64                 `json:"seeds"`
	Attempted []int                   `json:"attempted"`
	Failed    []int                   `json:"failed"`
	EndToEnd  map[string]seriesValues `json:"end_to_end"`
	PerLayer  map[string]metricValue  `json:"per_layer"`
}

type resultSet struct {
	Host       hostInfo                    `json:"host"`
	Time       string                      `json:"time"`
	Seed       int64                       `json:"seed"`
	Runs       int                         `json:"runs"`
	WindowS    float64                     `json:"window_s"`
	WarmS      float64                     `json:"warm_s"`
	SubWindows int                         `json:"sub_windows"`
	Workloads  map[string]*workloadResults `json:"workloads"`
}

func readHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH, Kernel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// runAll measures every workload: runs untraced runs on seeds seed, seed+1,
// … and one traced run on seed, printing every metric by name.
func runAll(out io.Writer, seed int64, runs int, length time.Duration, traceDir, outPath string) error {
	set := resultSet{Host: readHost(), Time: time.Now().UTC().Format(time.RFC3339), Seed: seed, Runs: runs,
		WindowS: length.Seconds(), WarmS: fullShape.warm.Seconds(), SubWindows: fullShape.subWindows,
		Workloads: map[string]*workloadResults{}}
	fmt.Fprintf(out, "host: NumCPU=%d GOMAXPROCS=%d %s %s/%s kernel %s commit %s\n", set.Host.NumCPU, set.Host.GOMAXPROCS,
		set.Host.GoVersion, set.Host.OS, set.Host.Arch, set.Host.Kernel, set.Host.Commit)
	for i := range workloads {
		w := &workloads[i]
		wr := &workloadResults{EndToEnd: map[string]seriesValues{}, PerLayer: map[string]metricValue{}}
		set.Workloads[w.name] = wr
		for r := 0; r < runs; r++ {
			res, err := runUntraced(out, w, seed+int64(r), fullShape, length)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			wr.Seeds = append(wr.Seeds, seed+int64(r))
			wr.Attempted = append(wr.Attempted, res.Attempted)
			wr.Failed = append(wr.Failed, res.Failed)
			for name, mv := range res.Metrics {
				s := wr.EndToEnd[name]
				s.Unit, s.Values = mv.Unit, append(s.Values, mv.Value)
				wr.EndToEnd[name] = s
			}
		}
		res, err := runTraced(out, w, seed, fullShape, length, traceDir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		wr.PerLayer = res.Metrics
	}
	if outPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(b, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// spread is the interquartile distance as a share of the median, the noise
// figure bounds are judged against; 0 for fewer than two values.
func spread(vs []float64) float64 {
	if len(vs) < 2 || median(vs) == 0 {
		return 0
	}
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / median(vs)
}

// verdict judges B against A for one metric. Positive delta is worse.
func verdict(m metricDef, a, b []float64) (delta float64, sp float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
	}
	better := func(x, y float64) bool { return x < y }
	if m.Better == "higher" {
		delta = -delta
		better = func(x, y float64) bool { return x > y }
	}
	sp = spread(a)
	if s := spread(b); s > sp {
		sp = s
	}
	if sp > m.Bound {
		// Too noisy to call, unless every run of B beats every run of A.
		for _, y := range b {
			for _, x := range a {
				if !better(y, x) {
					return delta, sp, "unresolved"
				}
			}
		}
		return delta, sp, "ok"
	}
	if delta > m.Bound {
		return delta, sp, "worse"
	}
	return delta, sp, "ok"
}

// compareFiles prints, per workload and end-to-end metric, A's and B's
// medians, B's relative change, the run-to-run spread, the bound and the
// verdict, and returns how many cells are worse. More failed ops in B than in
// A is always worse.
func compareFiles(out io.Writer, pathA, pathB string) (worse int, err error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "A: %s  commit %s  %d runs from seed %d\n", pathA, a.Host.Commit, a.Runs, a.Seed)
	fmt.Fprintf(out, "B: %s  commit %s  %d runs from seed %d\n", pathB, b.Host.Commit, b.Runs, b.Seed)
	fmt.Fprintf(out, "%-22s %-16s %13s %13s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	unresolved := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			return worse, fmt.Errorf("workload %s missing from a result set", w.name)
		}
		for _, m := range endToEnd {
			va, vb := wa.EndToEnd[m.Name].Values, wb.EndToEnd[m.Name].Values
			if len(va) == 0 || len(vb) == 0 {
				return worse, fmt.Errorf("%s %s missing from a result set", w.name, m.Name)
			}
			delta, sp, v := verdict(m, va, vb)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(out, "%-22s %-16s %13.6g %13.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.name, m.Name, median(va), median(vb), 100*delta, 100*sp, 100*m.Bound, v)
		}
		fa, fb := sum(wa.Failed), sum(wb.Failed)
		v := "ok"
		if fb*sum(wa.Attempted) > fa*sum(wb.Attempted) {
			v = "worse"
			worse++
		}
		fmt.Fprintf(out, "%-22s %-16s %13d %13d %34s\n", w.name, "failed ops", fa, fb, v)
	}
	fmt.Fprintf(out, "%d worse, %d unresolved (positive change is worse; spread is the wider interquartile distance ÷ median of the two sets)\n", worse, unresolved)
	return worse, nil
}

func sum(vs []int) int {
	s := 0
	for _, v := range vs {
		s += v
	}
	return s
}
