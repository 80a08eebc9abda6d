package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestLabeledRollupExact pins the label-registry invariant: events accounted
// into the global instrument and exactly one child per dimension sum to the
// global exactly, and a missed child write is caught by CheckRollup.
func TestLabeledRollupExact(t *testing.T) {
	reg := NewRegistry()
	record := func(tenant string, steps int64, wallNS int64) {
		reg.Counter("svc.steps").Add(steps)
		reg.Histogram("svc.wall_ns").Observe(wallNS)
		child := reg.Labeled("tenant", tenant)
		child.Counter("svc.steps").Add(steps)
		child.Histogram("svc.wall_ns").Observe(wallNS)
	}
	record("alice", 10, 1500)
	record("alice", 5, 90)
	record("bob", 7, 64)
	if err := reg.CheckRollup("tenant"); err != nil {
		t.Fatalf("CheckRollup on a consistent registry: %v", err)
	}
	if got := reg.Labeled("tenant", "alice").CounterValue("svc.steps"); got != 15 {
		t.Errorf("alice steps = %d, want 15", got)
	}

	// A write that skips the global side must surface as a rollup failure.
	reg.Labeled("tenant", "bob").Counter("svc.steps").Inc()
	if err := reg.CheckRollup("tenant"); err == nil {
		t.Fatal("CheckRollup missed a child/global divergence")
	}
}

// TestLabeledRollupConcurrent hammers one registry from many goroutines
// (each writing global + its tenant child + its engine child) and requires
// both dimensions to roll up exactly — the -race version of the invariant.
func TestLabeledRollupConcurrent(t *testing.T) {
	reg := NewRegistry()
	engines := []string{"seq", "parallel"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%3)
			engine := engines[g%2]
			tc := reg.Labeled("tenant", tenant)
			ec := reg.Labeled("engine", engine)
			for i := 0; i < 500; i++ {
				reg.Counter("svc.done").Inc()
				tc.Counter("svc.done").Inc()
				ec.Counter("svc.done").Inc()
				reg.Histogram("svc.run_ns").Observe(int64(i))
				tc.Histogram("svc.run_ns").Observe(int64(i))
				ec.Histogram("svc.run_ns").Observe(int64(i))
			}
		}(g)
	}
	wg.Wait()
	for _, dim := range []string{"tenant", "engine"} {
		if err := reg.CheckRollup(dim); err != nil {
			t.Errorf("rollup %s: %v", dim, err)
		}
	}
	if got := reg.CounterValue("svc.done"); got != 8*500 {
		t.Errorf("global done = %d, want %d", got, 8*500)
	}
}

// TestSnapshotIncludesChildren checks the additive Children field renders
// and survives a JSON round trip.
func TestSnapshotIncludesChildren(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(3)
	reg.Labeled("tenant", "alice").Counter("c").Add(3)
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Children["tenant"]["alice"].Counters["c"] != 3 {
		t.Fatalf("children lost in snapshot JSON: %s", data)
	}

	// A label-free registry must not grow a children key (additive contract).
	plain, _ := json.Marshal(NewRegistry().Snapshot())
	if strings.Contains(string(plain), "children") {
		t.Errorf("label-free snapshot leaks a children field: %s", plain)
	}
}

// TestPrometheusHistogramCumulative checks the bucket series is cumulative
// and capped by +Inf == count, independent of the golden.
func TestPrometheusHistogramCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_ns")
	for _, v := range []int64{1, 2, 3, 1000} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_ns_bucket{le="1"} 1`,    // v=1
		`lat_ns_bucket{le="3"} 3`,    // +v=2,3
		`lat_ns_bucket{le="1023"} 4`, // +v=1000
		`lat_ns_bucket{le="+Inf"} 4`,
		`lat_ns_sum 1006`,
		`lat_ns_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsHandlerFormats pins the format dispatch: JSON and Prometheus
// each with their Content-Type, and 406 (not silent JSON) on unknown formats.
func TestMetricsHandlerFormats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("gamma.steps").Add(5)
	ts := httptest.NewServer(MetricsMux(reg))
	defer ts.Close()

	get := func(q string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}

	resp, body := get("")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("json Content-Type = %q", ct)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil || s.Counters["gamma.steps"] != 5 {
		t.Errorf("json payload broken: %v\n%s", err, body)
	}

	resp, body = get("?format=prom")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom Content-Type = %q", ct)
	}
	if !strings.Contains(body, "# TYPE gamma_steps counter") || !strings.Contains(body, "gamma_steps 5") {
		t.Errorf("prom payload broken:\n%s", body)
	}

	resp, _ = get("?format=xml")
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Errorf("unknown format status = %d, want 406", resp.StatusCode)
	}
}
