package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/rt"
	"repro/internal/schema"
)

// stagedProgram is a composed two-stage plan whose source declares its own
// initial multiset.
const stagedProgram = `init {[1, 'raw'], [2, 'raw'], [3, 'raw'], [4, 'raw']}
DOUBLE = replace [x, 'raw'] by [x * 2, 'mid']
SUM    = replace [x, 'mid'], [y, 'mid'] by [x + y, 'mid']
DOUBLE ; SUM
`

// uncached answers req the way the service did before the plan cache: the
// run pipeline end to end, loading the program afresh.
func uncached(req *schema.RunRequest) (state string, res *schema.RunResult, werr *schema.WireError) {
	job, err := schema.LoadGamma("run", req.Program, req.Init)
	if err != nil {
		return "", nil, schema.NewWireError(err)
	}
	if job.Init == nil {
		job.Init = multiset.New()
	}
	gopt, dopt := req.Spec.Lower(nil, nil)
	out, err := job.Run(context.Background(), gopt, dopt)
	state = schema.StateDone
	if err != nil {
		state = schema.StateFailed
	}
	return state, out.Result(), schema.NewWireError(err)
}

func planCounters(s *Server) (hits, misses int64) {
	return s.reg.CounterValue("service.plan_cache.hits"), s.reg.CounterValue("service.plan_cache.misses")
}

// TestPlanCacheHitChangesNoAnswer interleaves three programs — Example 1,
// Eq. 2 min and a composed two-stage plan — across two tenants in 32
// concurrent submissions, with and without init overrides, some cut by their
// step cap. Every state, step count, final multiset and error must equal the
// uncached pipeline's on the same request, and the counters must roll up.
func TestPlanCacheHitChangesNoAnswer(t *testing.T) {
	s := New(Config{Pool: 4})
	defer s.Close()
	const n = 32
	reqs := make([]schema.RunRequest, n)
	for i := range reqs {
		spec := schema.RunSpec{Engine: schema.EngineSeq, MaxSteps: 10000}
		var program, init string
		switch i % 3 {
		case 0:
			program = paper.Example1GammaListing
			init = fmt.Sprintf("{[%d, 'A1'], [%d, 'B1'], [%d, 'C1'], [%d, 'D1']}", i, i+1, i+2, i+3)
		case 1:
			program = paper.MinElementListing
			init = fmt.Sprintf("{[%d], [%d], [%d], [%d], [%d]}", 9*i, i+7, 3, 40-i, 11)
			if i%2 == 1 {
				spec.MaxSteps = 2 // fails with max_steps, naming stage run.0
			}
		case 2:
			program = stagedProgram
			if i%2 == 0 {
				init = fmt.Sprintf("{[%d, 'raw'], [%d, 'raw']}", i, 2*i)
			}
		}
		reqs[i] = schema.NewGammaRequest(program, init, spec)
	}
	runs := make([]*Run, n)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Submit(&reqs[i], fmt.Sprintf("tenant-%d", i%2))
			if err != nil {
				t.Errorf("submission %d: %v", i, err)
				return
			}
			<-r.Done()
			runs[i] = r
		}(i)
	}
	wg.Wait()
	for i, r := range runs {
		if r == nil {
			continue
		}
		got := r.snapshot()
		state, res, werr := uncached(&reqs[i])
		if got.State != state || fmt.Sprint(got.Error) != fmt.Sprint(werr) ||
			got.Result.Steps != res.Steps || got.Result.Multiset != res.Multiset {
			t.Errorf("submission %d: cached %s %+v steps %d %s, uncached %s %+v steps %d %s", i,
				got.State, got.Error, got.Result.Steps, got.Result.Multiset, state, werr, res.Steps, res.Multiset)
		}
	}
	hits, misses := planCounters(s)
	if hits+misses != n || misses < 6 || hits == 0 {
		t.Errorf("plan cache hits %d, misses %d: want %d lookups, 6 or more misses (3 programs × 2 tenants)", hits, misses, n)
	}
	if len(s.plans.jobs) != 6 {
		t.Errorf("%d cached plans, want 6", len(s.plans.jobs))
	}
	for _, dim := range []string{"tenant", "engine"} {
		if err := s.reg.CheckRollup(dim); err != nil {
			t.Error(err)
		}
	}
}

// TestPlanCacheErrors: a hit still reports a malformed init as rt.ErrParse
// (400 over HTTP), the error order of the uncached loader holds, and a
// program that fails to load is never cached.
func TestPlanCacheErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1})
	ok := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset, schema.RunSpec{MaxSteps: 100})
	for i := 0; i < 2; i++ {
		if hres, resp := postRun(t, ts, ok, "?wait=true", ""); hres.StatusCode != http.StatusOK || resp.State != schema.StateDone {
			t.Fatalf("Example 1: status %d, state %s", hres.StatusCode, resp.State)
		}
	}
	if hits, _ := planCounters(s); hits != 1 {
		t.Fatalf("second Example 1 did not hit: %d hits", hits)
	}
	bad := schema.NewGammaRequest(paper.Example1GammaListing, "{[1, 'A1'", schema.RunSpec{})
	if hres, resp := postRun(t, ts, bad, "", ""); hres.StatusCode != http.StatusBadRequest || resp.Error == nil || resp.Error.Code != "parse" {
		t.Errorf("malformed init after a hit: status %d, error %+v, want 400 parse", hres.StatusCode, resp.Error)
	}

	const unknownStage = "R = replace [x] by [x]\nR ; NOPE\n"
	for _, c := range []struct {
		program, init string
		want          error
	}{
		{"R = replace [x] by", "", rt.ErrParse},
		{"R = replace [x] by", "{[1", rt.ErrParse},
		{unknownStage, "", rt.ErrInvalid},
		{unknownStage, "{[1", rt.ErrParse}, // the override reports before the composition
	} {
		for try := 0; try < 2; try++ {
			req := schema.NewGammaRequest(c.program, c.init, schema.RunSpec{})
			_, err := s.Submit(&req, "")
			_, _, werr := uncached(&req)
			if !errors.Is(err, c.want) || fmt.Sprint(schema.NewWireError(err)) != fmt.Sprint(werr) {
				t.Errorf("%q with init %q: err %v, want %v as uncached (%+v)", c.program, c.init, err, c.want, werr)
			}
		}
	}
	if n := len(s.plans.jobs); n != 1 {
		t.Errorf("%d cached plans after failed loads, want 1 (Example 1)", n)
	}
}

// TestPlanCacheSourceInitPristine: a run rewrites its Init in place, so a
// program whose source declares its init must run on a fresh copy each time.
func TestPlanCacheSourceInitPristine(t *testing.T) {
	s := New(Config{Pool: 1})
	defer s.Close()
	req := schema.NewGammaRequest(stagedProgram, "", schema.RunSpec{MaxSteps: 100})
	for i := 0; i < 3; i++ {
		r, err := s.Submit(&req, "")
		if err != nil {
			t.Fatal(err)
		}
		<-r.Done()
		if res := r.snapshot().Result; r.Err() != nil || res.Multiset != "{[20, 'mid']}" || res.Steps != 7 {
			t.Errorf("run %d: %+v, err %v, want {[20, 'mid']} in 7 steps", i, res, r.Err())
		}
	}
	if hits, misses := planCounters(s); hits != 2 || misses != 1 {
		t.Errorf("hits %d, misses %d, want 2 and 1", hits, misses)
	}
}

// TestPlanCacheBound submits more distinct programs than the entry cap, then
// programs whose sources overrun the byte cap: both bounds hold, and an
// evicted program loads again and answers correctly.
func TestPlanCacheBound(t *testing.T) {
	s := New(Config{Pool: 2})
	defer s.Close()
	submit := func(program string) {
		t.Helper()
		req := schema.NewGammaRequest(program, "{[5], [2], [8]}", schema.RunSpec{MaxSteps: 100})
		r, err := s.Submit(&req, "")
		if err != nil {
			t.Fatal(err)
		}
		<-r.Done()
		if res := r.snapshot().Result; r.Err() != nil || res.Multiset != "{[2]}" {
			t.Fatalf("%.40q: %+v, err %v", program, res, r.Err())
		}
	}
	checkBound := func() {
		t.Helper()
		c := &s.plans
		sum := 0
		for k := range c.jobs {
			sum += len(k.program)
		}
		if len(c.jobs) > planCacheEntries || len(c.order) != len(c.jobs) || c.bytes != sum || c.bytes > planCacheBytes {
			t.Fatalf("%d entries (%d in order), %d bytes (%d summed): bounds %d, %d B",
				len(c.jobs), len(c.order), c.bytes, sum, planCacheEntries, planCacheBytes)
		}
	}
	program := func(i int, pad int) string {
		return fmt.Sprintf("# program %d%s\n%s", i, strings.Repeat(" ", pad), paper.MinElementListing)
	}
	for i := 0; i < planCacheEntries+8; i++ {
		submit(program(i, 0))
		checkBound()
	}
	_, misses := planCounters(s)
	submit(program(0, 0)) // evicted first
	if _, m := planCounters(s); m != misses+1 {
		t.Errorf("the oldest program was not evicted: misses %d → %d", misses, m)
	}
	for i := 0; i < 5; i++ {
		submit(program(i, planCacheBytes/4))
		checkBound()
	}
	if n := len(s.plans.jobs); n >= 5 {
		t.Errorf("%d cached plans of a quarter of the byte cap each", n)
	}
}

// TestPlanCacheReplayHits: POST /v1/replay loads through the same cache, so
// replaying a submitted program's schedule hits, and confirms the run; the
// same replay from another tenant misses.
func TestPlanCacheReplayHits(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1})
	req := schema.NewGammaRequest(paper.Example1GammaListing, paper.Example1InitialMultiset,
		schema.RunSpec{Engine: schema.EngineSeq, MaxSteps: 100, Trace: true})
	_, resp := postRun(t, ts, req, "?wait=true", "alice")
	_, sched := getTrace(t, ts, resp.ID, "schedule")
	rreq := schema.NewGammaReplayRequest(paper.Example1GammaListing, paper.Example1InitialMultiset, string(sched))
	body, err := rreq.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"alice", "bob"} {
		hreq := mustReq(t, "POST", ts.URL+"/v1/replay")
		hreq.Body = io.NopCloser(bytes.NewReader(body))
		hreq.Header.Set("X-API-Key", tenant)
		hres, err := ts.Client().Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		var rep schema.ReplayResponse
		err = json.NewDecoder(hres.Body).Decode(&rep)
		hres.Body.Close()
		if err != nil || hres.StatusCode != http.StatusOK || rep.Divergence != nil || rep.Multiset != resp.Result.Multiset {
			t.Fatalf("%s's replay: status %d, %+v, %v", tenant, hres.StatusCode, rep, err)
		}
	}
	for tenant, want := range map[string]int64{"alice": 1, "bob": 0} {
		if hits := s.reg.Labeled("tenant", tenant).CounterValue("service.plan_cache.hits"); hits != want {
			t.Errorf("%s's replay of alice's program: %d hits, want %d", tenant, hits, want)
		}
	}
}

// TestPlanCacheMissCost: traffic that never repeats a program pays for the
// cache only its bookkeeping — a miss allocates within 256 B of loading the
// same request without the cache, eviction included.
func TestPlanCacheMissCost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bytes are not repeatable under the race detector")
	}
	s := New(Config{Pool: 1})
	defer s.Close()
	const n = 4 * planCacheEntries
	programs := func(set string) []string {
		ps := make([]string, n)
		for i := range ps {
			ps[i] = fmt.Sprintf("# %s %d\n%s", set, i, paper.Example1GammaListing)
		}
		return ps
	}
	sets := 0
	perLoad := func(load func(program string)) float64 {
		sets++
		ps := programs(fmt.Sprint("set ", sets))
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for _, p := range ps {
			load(p)
		}
		runtime.ReadMemStats(&b)
		return float64(b.TotalAlloc-a.TotalAlloc) / n
	}
	cached := func(p string) {
		if _, err := s.load("t", schema.KindGamma, "run", p, paper.Example1InitialMultiset, ""); err != nil {
			t.Fatal(err)
		}
	}
	perLoad(cached) // fill the cache, so that every measured miss also evicts
	miss := perLoad(cached)
	plain := perLoad(func(p string) {
		if _, err := schema.LoadGamma("run", p, paper.Example1InitialMultiset); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bytes per load: cache miss %.0f, uncached %.0f", miss, plain)
	if miss > plain+256 {
		t.Errorf("a cache miss allocates %.0f B against %.0f B uncached, want within 256 B", miss, plain)
	}
}

// TestPlanCacheRefusedLoadsNothing: admission comes before the load, so a
// submission refused for a full queue or a spent budget neither parses its
// program nor touches the plan cache — and a program that would not parse is
// refused as busy, not malformed.
func TestPlanCacheRefusedLoadsNothing(t *testing.T) {
	fresh := []schema.RunRequest{
		schema.NewGammaRequest("R = replace [x], [y] by [x] if x < y", "", schema.RunSpec{}),
		schema.NewGammaRequest("replace", "", schema.RunSpec{}),
	}
	refused := func(t *testing.T, s *Server, tenant string) {
		t.Helper()
		hits, misses := planCounters(s)
		for _, req := range fresh {
			var busy *TooBusyError
			if _, err := s.Submit(&req, tenant); !errors.As(err, &busy) {
				t.Errorf("%q: err = %v, want *TooBusyError", req.Program, err)
			}
		}
		if h, m := planCounters(s); h != hits || m != misses {
			t.Errorf("plan cache hits/misses moved %d/%d → %d/%d on refused submissions", hits, misses, h, m)
		}
	}
	wait := func(t *testing.T, r *Run, state string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); r.snapshot().State != state; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("run %s never reached %s", r.ID, state)
			}
		}
	}
	spin := schema.NewGammaRequest(counterProgram, counterInit, schema.RunSpec{MaxSteps: 5000})

	t.Run("queue full", func(t *testing.T) {
		s := New(Config{Pool: 1, QueueDepth: 1})
		defer s.Close()
		spin := spin
		spin.Spec.MaxSteps = 0
		first, err := s.Submit(&spin, "")
		if err != nil {
			t.Fatal(err)
		}
		wait(t, first, schema.StateRunning)
		if _, err := s.Submit(&spin, ""); err != nil {
			t.Fatal(err)
		}
		refused(t, s, "")
	})
	t.Run("budget spent", func(t *testing.T) {
		s := New(Config{Pool: 1, Tenants: map[string]Quota{"carol": {StepBudget: 100}}})
		defer s.Close()
		r, err := s.Submit(&spin, "carol")
		if err != nil {
			t.Fatal(err)
		}
		<-r.Done()
		refused(t, s, "carol")
	})
}
