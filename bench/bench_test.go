package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, at smoke size: oracle
// agreement, every metric emitted once with a finite value, and a trace file
// that parses and whose spans nest.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var log bytes.Buffer
			res, err := runUntraced(&log, w, 1, smokeShape, 100*time.Millisecond)
			if err != nil {
				t.Fatalf("untraced: %v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
			}
			checkMetrics(t, res.Metrics, endToEnd, true)

			log.Reset()
			res, err = runTraced(&log, w, 1, smokeShape, 250*time.Millisecond, dir)
			if err != nil {
				t.Fatalf("traced: %v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d\n%s", res.Correct, res.Failed, log.String())
			}
			checkMetrics(t, res.Metrics, perLayer, false)
			if share := res.Metrics["bench.explained_share"].Value; share <= 0 || share > 1 {
				t.Errorf("bench.explained_share = %v, want in (0, 1]", share)
			}
			for _, m := range perLayer {
				if !strings.Contains(log.String(), m.Name) {
					t.Errorf("traced run did not print %s", m.Name)
				}
			}
			checkTraceFile(t, filepath.Join(dir, "trace-"+w.name+".json"))
		})
	}
}

// checkMetrics holds got to exactly the names and units of defs, with finite
// (and, for end-to-end metrics, positive) values.
func checkMetrics(t *testing.T, got map[string]metricValue, defs []metricDef, positive bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics emitted, %d defined", len(got), len(defs))
	}
	for _, m := range defs {
		mv, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case mv.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, want %q", m.Name, mv.Unit, m.Unit)
		case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
			t.Errorf("metric %s = %v", m.Name, mv.Value)
		case positive && mv.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, mv.Value)
		}
	}
}

// checkTraceFile parses a Chrome trace-event file and checks that every span
// lies inside its parent and shares its op.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if len(events) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	const slack = 0.002 // µs: timestamps are ns rendered as fractional µs
	roots := 0
	for i, ev := range events {
		if ev.Ph != "X" || ev.Name == "" || ev.Dur < 0 || ev.Args.ID != i {
			t.Fatalf("event %d malformed: %+v", i, ev)
		}
		if ev.Args.Parent < 0 {
			roots++
			continue
		}
		if ev.Args.Parent >= i {
			t.Fatalf("event %d names parent %d, which is not an earlier span", i, ev.Args.Parent)
		}
		p := events[ev.Args.Parent]
		if ev.Ts < p.Ts-slack || ev.Ts+ev.Dur > p.Ts+p.Dur+slack {
			t.Errorf("span %d %s [%f,+%f] not inside parent %s [%f,+%f]", i, ev.Name, ev.Ts, ev.Dur, p.Name, p.Ts, p.Dur)
		}
		if ev.Args.Op != p.Args.Op {
			t.Errorf("span %d %s has op %d, its parent op %d", i, ev.Name, ev.Args.Op, p.Args.Op)
		}
	}
	if roots == 0 {
		t.Error("no root span")
	}
}

// TestManifestMatchesTables holds BENCHMARK.json to the tables in defs.go and
// the workload list, so the manifest the driver reads cannot drift from what
// the program emits.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	wantKeys := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(got) != len(wantKeys) {
		t.Errorf("BENCHMARK.json keys %v, want exactly %v", got, wantKeys)
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(man.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", man.Command, man.Paths)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", man.RunSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program {%s %s}", i, man.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(man.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nmanifest %+v\nprogram  %+v", man.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(man.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nmanifest %+v\nprogram  %+v", man.PerLayer, perLayer)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestOracles(t *testing.T) {
	if s, n := minOracle([]int64{5, 2, 9, 2, 7}); s != "{[2], [2]}" || n != 3 {
		t.Errorf("minOracle = %q, %d", s, n)
	}
	if s, n := tournamentOracle([]int64{5, 2, 9, 4}, 2); s != "{[2, 'L2']}" || n != 3 {
		t.Errorf("tournamentOracle = %q, %d", s, n)
	}
	outs, firings := wideOracle([]int64{3, 700}, 2)
	if want := map[string]int64{"outT0": 3 + 1 + 2, "outF1": 700 * 4}; !reflect.DeepEqual(outs, want) || firings != 10 {
		t.Errorf("wideOracle = %v, %d", outs, firings)
	}
	// 3 trips from s=1, t=0: s = 1+9, +4, +1 → 10, 14, 15; t = 3, 3, 4.
	if s, tt := loopOracle(3, 1, 0); s != 15 || tt != 4 {
		t.Errorf("loopOracle = %d, %d", s, tt)
	}
	if s := example1Oracle(1, 5, 3, 2); s != "{[0, 'm']}" {
		t.Errorf("example1Oracle = %q", s)
	}
}

// TestWrongAnswerIsAFailedOp feeds an instance a poisoned oracle: the op
// must report an error, not panic, and a traced op likewise.
func TestWrongAnswerIsAFailedOp(t *testing.T) {
	inst, err := findWorkload("gamma_min").setup(1, smokeShape)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	g := inst.(*gammaInst)
	g.inputs = []gammaInput{newGammaInput("min", g.rng, g.n)}
	g.inputs[0].want = "{[-1]}"
	if _, err := g.op(0, 0); err == nil {
		t.Error("op agreed with a wrong oracle")
	}
	if err := g.tracedOp(0, newTracer()); err == nil {
		t.Error("traced op agreed with a wrong oracle")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.ops++
	tr.beginAt("op", 0)
	tr.beginAt("a", 10)
	tr.beginAt("b", 20)
	tr.endAt(50)
	tr.leaf("c", 30, 90) // [60, 90]
	tr.endAt(100)
	tr.endAt(120)
	want := map[string][2]int64{"op": {120, 30}, "a": {90, 30}, "b": {30, 30}, "c": {30, 30}}
	for name, w := range want {
		lt := tr.totals[name]
		if lt == nil || lt.total != w[0] || lt.self != w[1] || lt.root != "op" {
			t.Errorf("%s: %+v, want total %d self %d under op", name, lt, w[0], w[1])
		}
	}
	if share := tr.selfTable(io.Discard, "op", 1); math.Abs(share-0.75) > 1e-9 {
		t.Errorf("explained share %v, want 0.75", share)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_s_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower", lower, steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{"rate fell", higher, steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{"rate rose", higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"noisy", lower, steady, []float64{70, 130, 100, 90, 110}, "unresolved"},
		{"noisy but every run better", lower, steady, []float64{40, 60, 50, 45, 55}, "ok"},
	} {
		if _, _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles round-trips two result sets through files and checks the
// printed table and the worse count.
func TestCompareFiles(t *testing.T) {
	mk := func(scale float64) *resultSet {
		set := &resultSet{Runs: 3, Workloads: map[string]*workloadResults{}}
		for _, w := range workloads {
			wr := &workloadResults{Attempted: []int{10, 10, 10}, Failed: []int{0, 0, 0}, EndToEnd: map[string]seriesValues{}}
			for _, m := range endToEnd {
				v := 100.0
				if m.Name == "op_s_p50" {
					v *= scale
				}
				wr.EndToEnd[m.Name] = seriesValues{Unit: m.Unit, Values: []float64{v, v * 1.01, v * 0.99}}
			}
			set.Workloads[w.name] = wr
		}
		return set
	}
	dir := t.TempDir()
	write := func(name string, set *resultSet) string {
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", mk(1)), write("b.json", mk(1.5))
	var out bytes.Buffer
	if worse, err := compareFiles(&out, a, a); err != nil || worse != 0 {
		t.Errorf("A against itself: %d worse, err %v", worse, err)
	}
	out.Reset()
	worse, err := compareFiles(&out, a, b)
	if err != nil || worse != len(workloads) {
		t.Errorf("op_s_p50 up 50%% on every workload: %d worse, err %v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "gamma_min") {
		t.Errorf("table lacks the verdicts:\n%s", out.String())
	}
}
