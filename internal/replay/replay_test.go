package replay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dataflow"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/rt"
	"repro/internal/value"
)

func example1() (*gamma.Program, *multiset.Multiset) {
	p, err := gammalang.ParseProgram("ex1", paper.Example1GammaListing)
	if err != nil {
		panic(err)
	}
	m, err := multiset.Parse(paper.Example1InitialMultiset)
	if err != nil {
		panic(err)
	}
	return p, m
}

// recordGamma runs p over a clone of init with a schedule recorder attached
// and returns the linearized schedule plus the final multiset.
func recordGamma(t *testing.T, p *gamma.Program, init *multiset.Multiset, opt gamma.Options) (*Schedule, *multiset.Multiset) {
	t.Helper()
	rec := NewRecorder(KindGamma, p.Name)
	opt.Schedule = rec
	m := init.Clone()
	if _, err := gamma.Run(p, m, opt); err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	return rec.Schedule(), m
}

func TestScheduleRoundTrip(t *testing.T) {
	rec := NewRecorder(KindGamma, "ex1")
	a1, b1, b2 := multiset.Pair(value.Int(1), "A1"), multiset.Pair(value.Int(5), "B1"), multiset.Pair(value.Int(2), "B2")
	rec.RecordStepTuples(2, "R2", time.Now(), []multiset.Tuple{a1}, []multiset.Tuple{b2})
	rec.RecordStepTuples(1, "R1", time.Now(), []multiset.Tuple{a1, b1}, nil)
	rec.RecordStepTuples(3, "R3", time.Now(), nil, []multiset.Tuple{{value.Bool(true)}})
	s := rec.Schedule()
	if s.Steps[0].Name != "R1" || s.Steps[0].Step != 1 {
		t.Fatalf("linearization: want R1 first, got %+v", s.Steps[0])
	}
	got := s.Bytes()
	back, err := Parse(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if again := back.Bytes(); !bytes.Equal(got, again) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", got, again)
	}
}

func TestScheduleParseRejects(t *testing.T) {
	s := &Schedule{Kind: KindGamma, Name: "x", Steps: []Step{{Step: 1, Seq: 1, Name: "R1"}}}
	good := string(s.Bytes())
	cases := map[string]string{
		"empty":       "",
		"bad header":  "not json\n",
		"bad version": strings.Replace(good, `"schedule":"v1"`, `"schedule":"v9"`, 1),
		"bad kind":    strings.Replace(good, `"kind":"gamma"`, `"kind":"quantum"`, 1),
		"truncated":   strings.SplitAfter(good, "\n")[0],
		"renumbered":  strings.Replace(good, `"step":1`, `"step":7`, 1),
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); !errors.Is(err, rt.ErrParse) {
			t.Errorf("%s: want rt.ErrParse, got %v", name, err)
		}
	}
}

// FuzzScheduleRoundTrip checks the canonicality invariant: anything Parse
// accepts re-encodes and re-parses to the same document, byte for byte.
func FuzzScheduleRoundTrip(f *testing.F) {
	p, init := example1()
	sched, _ := recordGammaF(f, p, init)
	f.Add(sched.Bytes())
	f.Add([]byte(`{"schedule":"v1","kind":"dataflow","steps":1}` + "\n" + `{"step":1,"seq":4,"name":"n","consumed":["A1@0"],"produced":["B1@1"]}` + "\n"))
	f.Add([]byte(`{"schedule":"v1","kind":"gamma","steps":0}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc := s.Bytes()
		back, err := Parse(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("canonical form failed to parse: %v\n%s", err, enc)
		}
		if again := back.Bytes(); !bytes.Equal(enc, again) {
			t.Fatalf("canonical form not a fixed point:\n%s\nvs\n%s", enc, again)
		}
		checkFolds(t, s)
	})
}

// checkFolds holds the firing-DAG folds of an accepted schedule to their
// invariants: every producer comes before its consumer, the profile's work
// is the step count, its per-depth widths sum to the work and its span is at
// most the work, and the DOT writer succeeds.
func checkFolds(t *testing.T, s *Schedule) {
	t.Helper()
	for i, srcs := range s.Sources() {
		for j, src := range srcs {
			if src.Step >= i || src.Step < -1 {
				t.Fatalf("step %d consumed slot %d from step %d", i, j, src.Step)
			}
		}
	}
	r := s.Profile()
	sum := int64(0)
	for _, n := range r.Profile {
		sum += n
	}
	if r.Work != int64(len(s.Steps)) || sum != r.Work || r.Span > r.Work {
		t.Fatalf("profile work=%d span=%d widths %v for %d steps", r.Work, r.Span, r.Profile, len(s.Steps))
	}
	if err := s.WriteDOT(io.Discard); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
}

func recordGammaF(f *testing.F, p *gamma.Program, init *multiset.Multiset) (*Schedule, *multiset.Multiset) {
	rec := NewRecorder(KindGamma, p.Name)
	m := init.Clone()
	if _, err := gamma.Run(p, m, gamma.Options{Schedule: rec}); err != nil {
		f.Fatalf("recorded run: %v", err)
	}
	return rec.Schedule(), m
}

func TestKeyTupleRoundTrip(t *testing.T) {
	tuples := []multiset.Tuple{
		{value.Int(1), value.Str("A1")},
		{value.Int(-42), value.Float(2.0), value.Float(1.5e300)},
		{value.Bool(true), value.Bool(false), value.Str("")},
		{value.Str("with spaces and @ and \x1e")},
		{value.Str("a'\"\x1f4\"b'"), value.Str("\x1e\x1f")}, // both quotes and the stuffed bytes
		{value.Int(0)},
	}
	for _, tu := range tuples {
		back, err := KeyTuple(tu.Key())
		if err != nil {
			t.Fatalf("KeyTuple(%q): %v", tu.Key(), err)
		}
		if back.Key() != tu.Key() {
			t.Fatalf("round trip changed key: %q -> %q", tu.Key(), back.Key())
		}
	}
	for _, bad := range []string{"", "\x1f", "9zzz", "5x"} {
		if _, err := KeyTuple(bad); !errors.Is(err, rt.ErrParse) {
			t.Errorf("KeyTuple(%q): want rt.ErrParse, got %v", bad, err)
		}
	}
}

// TestReplayGammaSequential verifies the base invariant: a sequential run's
// schedule replays against the same initial multiset to the identical final
// state, stable, with the same firing count.
func TestReplayGammaSequential(t *testing.T) {
	p, init := example1()
	sched, final := recordGamma(t, p, init, gamma.Options{})
	res, err := ReplayGamma(p, init.Clone(), sched)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Divergence != nil {
		t.Fatalf("unexpected divergence: %v", res.Divergence)
	}
	if !res.Stable {
		t.Error("replayed state is not stable")
	}
	if res.Steps != len(sched.Steps) {
		t.Errorf("replayed %d of %d steps", res.Steps, len(sched.Steps))
	}
	if !res.Final.Equal(final) {
		t.Errorf("final multiset diverged:\nreplay %s\nrecord %s", res.Final, final)
	}
}

// TestReplayGammaParallelDifferential is the record→replay differential at
// the heart of the schedule format: a nondeterministic parallel execution,
// recorded in commit order, must replay *sequentially* to the byte-identical
// final multiset and firing count. Run under -race by make stress.
func TestReplayGammaParallelDifferential(t *testing.T) {
	p, init := example1()
	for seed := int64(1); seed <= 4; seed++ {
		sched, final := recordGamma(t, p, init, gamma.Options{Workers: 4, Seed: seed})
		res, err := ReplayGamma(p, init.Clone(), sched)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if res.Divergence != nil {
			t.Fatalf("seed %d: parallel schedule diverged on sequential replay: %v", seed, res.Divergence)
		}
		if !res.Stable {
			t.Errorf("seed %d: replayed state not stable", seed)
		}
		if got, want := res.Final.String(), final.String(); got != want {
			t.Errorf("seed %d: final multiset diverged:\nreplay %s\nrecord %s", seed, got, want)
		}
		if res.Steps != len(sched.Steps) {
			t.Errorf("seed %d: replayed %d of %d firings", seed, res.Steps, len(sched.Steps))
		}
	}
}

// TestReplayDivergenceInjectedMutation corrupts a single recorded product
// and checks the divergence report names exactly the first divergent step.
func TestReplayDivergenceInjectedMutation(t *testing.T) {
	p, init := example1()
	sched, _ := recordGamma(t, p, init, gamma.Options{})
	// Mutate the last step that produced anything: late steps have real
	// ancestor chains through the earlier products they consumed.
	target := -1
	for i := len(sched.Steps) - 1; i >= 0; i-- {
		if len(sched.Steps[i].Produced) > 0 {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no producing step in schedule")
	}
	sched.Steps[target].Produced[0] = multiset.Tuple{value.Int(999), value.Str("XX")}.Key()
	res, err := ReplayGamma(p, init.Clone(), sched)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	d := res.Divergence
	if d == nil {
		t.Fatal("mutation not detected")
	}
	if d.Step != sched.Steps[target].Step {
		t.Errorf("divergence at step %d, want %d", d.Step, sched.Steps[target].Step)
	}
	if d.Reason != ReasonProductMismatch {
		t.Errorf("reason %q, want %q", d.Reason, ReasonProductMismatch)
	}
	if len(d.Expected) == 0 || len(d.Actual) == 0 {
		t.Errorf("report missing expected/actual products: %+v", d)
	}
	if res.Steps != target {
		t.Errorf("replayed %d clean steps, want %d", res.Steps, target)
	}
	if s := d.String(); !strings.Contains(s, ReasonProductMismatch) {
		t.Errorf("String() lacks reason: %s", s)
	}
}

// TestReplayDivergenceReasons exercises the remaining gamma divergence
// classes: unknown reaction, missing consumed elements, and a kernel that no
// longer accepts the recorded elements.
func TestReplayDivergenceReasons(t *testing.T) {
	p, init := example1()
	sched, _ := recordGamma(t, p, init, gamma.Options{})

	renamed := *sched
	renamed.Steps = append([]Step(nil), sched.Steps...)
	renamed.Steps[0].Name = "R99"
	res, err := ReplayGamma(p, init.Clone(), &renamed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence == nil || res.Divergence.Reason != ReasonUnknownReaction {
		t.Errorf("renamed reaction: got %+v", res.Divergence)
	}

	// Replaying against the *final* multiset: step 1's consumed elements are
	// long gone.
	_, final := recordGamma(t, p, init, gamma.Options{})
	if len(sched.Steps) > 0 && len(sched.Steps[0].Consumed) > 0 {
		res, err = ReplayGamma(p, final.Clone(), sched)
		if err != nil {
			t.Fatal(err)
		}
		if res.Divergence == nil || res.Divergence.Reason != ReasonConsumedMissing {
			t.Errorf("wrong initial state: got %+v", res.Divergence)
		}
		if len(res.Divergence.Missing) == 0 {
			t.Error("consumed-missing report lists nothing missing")
		}
	}

	// An element that no longer matches the reaction's patterns.
	mismatched := *sched
	mismatched.Steps = append([]Step(nil), sched.Steps...)
	st := mismatched.Steps[0]
	st.Consumed = append([]string(nil), st.Consumed...)
	alien := multiset.Tuple{value.Str("alien"), value.Str("alien"), value.Str("alien"), value.Str("alien")}
	st.Consumed[0] = alien.Key()
	mismatched.Steps[0] = st
	withAlien := init.Clone()
	withAlien.Add(alien)
	res, err = ReplayGamma(p, withAlien, &mismatched)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence == nil || res.Divergence.Reason != ReasonKernelError {
		t.Errorf("pattern mismatch: got %+v", res.Divergence)
	}
}

// TestReplayPartialScheduleFromFault verifies that the committed prefix of a
// run stopped mid-flight by an injected fault replays cleanly: every
// recorded firing was really committed, so the schedule is a valid (just
// incomplete) execution.
func TestReplayPartialScheduleFromFault(t *testing.T) {
	p, err := gammalang.ParseProgram("ex2", paper.Example2GammaListing)
	if err != nil {
		t.Fatal(err)
	}
	init, err := multiset.Parse(paper.Example2InitialMultiset(9, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	boom := errors.New("injected fault")
	rec := NewRecorder(KindGamma, "ex2-partial")
	m := init.Clone()
	_, err = gamma.Run(p, m, gamma.Options{
		Workers:  4,
		Seed:     7,
		Schedule: rec,
		FaultInjector: func(site string, worker int) error {
			if fired.Add(1) > 5 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("run did not fail with the injected fault: %v", err)
	}
	sched := rec.Schedule()
	res, rerr := ReplayGamma(p, init.Clone(), sched)
	if rerr != nil {
		t.Fatalf("replay: %v", rerr)
	}
	if res.Divergence != nil {
		t.Fatalf("committed prefix diverged: %v", res.Divergence)
	}
	if res.Steps != len(sched.Steps) {
		t.Errorf("replayed %d of %d committed firings", res.Steps, len(sched.Steps))
	}
}

// recordDataflow runs g with a schedule recorder and returns the schedule
// and the recorded result.
func recordDataflow(t *testing.T, g *dataflow.Graph, opt dataflow.Options) (*Schedule, *dataflow.Result) {
	t.Helper()
	rec := NewRecorder(KindDataflow, g.Name)
	opt.Schedule = rec
	res, err := dataflow.Run(g, opt)
	if err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	return rec.Schedule(), res
}

func sameOutputs(a, b map[string][]dataflow.TaggedValue) error {
	if len(a) != len(b) {
		return fmt.Errorf("output labels differ: %d vs %d", len(a), len(b))
	}
	for label, avs := range a {
		bvs := b[label]
		if len(avs) != len(bvs) {
			return fmt.Errorf("%s: %d vs %d tokens", label, len(avs), len(bvs))
		}
		for i := range avs {
			if avs[i].Tag != bvs[i].Tag || !value.Equal(avs[i].Val, bvs[i].Val) {
				return fmt.Errorf("%s[%d]: %v@%d vs %v@%d", label, i, avs[i].Val, avs[i].Tag, bvs[i].Val, bvs[i].Tag)
			}
		}
	}
	return nil
}

// TestReplayDataflowFig1 replays a recorded Fig. 1 execution and checks the
// replay reproduces the recorded outputs, firing for firing.
func TestReplayDataflowFig1(t *testing.T) {
	g := paper.Fig1Graph()
	sched, rec := recordDataflow(t, g, dataflow.Options{})
	res, err := ReplayDataflow(g, sched)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Divergence != nil {
		t.Fatalf("unexpected divergence: %v", res.Divergence)
	}
	if !res.Stable {
		t.Error("replayed state not stable")
	}
	if int64(res.Steps) != rec.Firings {
		t.Errorf("replayed %d steps, recorded %d firings", res.Steps, rec.Firings)
	}
	if res.Pending != rec.Pending {
		t.Errorf("pending %d, recorded %d", res.Pending, rec.Pending)
	}
	if err := sameOutputs(res.Outputs, rec.Outputs); err != nil {
		t.Errorf("outputs diverged: %v", err)
	}
	if v, ok := res.Outputs["m"]; !ok || len(v) == 0 || !value.Equal(v[len(v)-1].Val, value.Int(paper.Example1M)) {
		t.Errorf("Fig. 1 output m: got %v, want %d", v, paper.Example1M)
	}
}

// levelReversed returns the dataflow schedule s with the steps of each
// dependency level in reverse order. A step's level is one more than its
// deepest producer's in the firing DAG (Sources; a const is level 0), so
// every step still follows its producers: a linearisation the FIFO schedule
// never produces. Steps keep their recorded Seq and are renumbered densely.
func levelReversed(s *Schedule) *Schedule {
	level := make([]int, len(s.Steps))
	for i, srcs := range s.Sources() {
		for _, src := range srcs {
			if src.Step >= 0 {
				level[i] = max(level[i], level[src.Step]+1)
			}
		}
	}
	order := make([]int, len(s.Steps))
	for i := range order {
		order[i] = len(order) - 1 - i
	}
	sort.SliceStable(order, func(a, b int) bool { return level[order[a]] < level[order[b]] })
	out := &Schedule{Kind: s.Kind, Name: s.Name, Steps: make([]Step, len(order))}
	for i, j := range order {
		out.Steps[i] = s.Steps[j]
		out.Steps[i].Step = i + 1
	}
	return out
}

// TestReplayDataflowParallelDifferential: Fig. 1's and Fig. 2's FIFO
// schedules with every dependency level reversed — a linearisation other
// than the FIFO one — replay step for step to the recorded outputs and
// pending operands. Run under -race by make stress.
func TestReplayDataflowParallelDifferential(t *testing.T) {
	for _, g := range []*dataflow.Graph{paper.Fig1Graph(), paper.Fig2Graph()} {
		sched, rec := recordDataflow(t, g, dataflow.Options{})
		perm := levelReversed(sched)
		if bytes.Equal(perm.Bytes(), sched.Bytes()) {
			t.Fatalf("%s: the level-reversed schedule is the FIFO one", g.Name)
		}
		res, err := ReplayDataflow(g, perm)
		if err != nil {
			t.Fatalf("%s: replay: %v", g.Name, err)
		}
		if res.Divergence != nil {
			t.Fatalf("%s: level-reversed schedule diverged on replay: %v", g.Name, res.Divergence)
		}
		if int64(res.Steps) != rec.Firings {
			t.Errorf("%s: replayed %d steps, recorded %d firings", g.Name, res.Steps, rec.Firings)
		}
		if err := sameOutputs(res.Outputs, rec.Outputs); err != nil {
			t.Errorf("%s: outputs diverged: %v", g.Name, err)
		}
		if res.Pending != rec.Pending {
			t.Errorf("%s: pending %d, recorded %d", g.Name, res.Pending, rec.Pending)
		}
	}
}

// TestReplayDataflowDivergence: renaming a vertex and dropping a token both
// produce structured reports.
func TestReplayDataflowDivergence(t *testing.T) {
	g := paper.Fig1Graph()
	sched, _ := recordDataflow(t, g, dataflow.Options{})

	renamed := *sched
	renamed.Steps = append([]Step(nil), sched.Steps...)
	renamed.Steps[0].Name = "no-such-vertex"
	res, err := ReplayDataflow(g, &renamed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence == nil || res.Divergence.Reason != ReasonUnknownNode {
		t.Errorf("renamed vertex: got %+v", res.Divergence)
	}

	// Drop the first consuming step: its products never materialize, so the
	// first later step consuming them reports missing tokens with the
	// ancestor chain pointing back through the recorded provenance.
	firstConsumer := -1
	for i, st := range sched.Steps {
		if len(st.Consumed) > 0 {
			firstConsumer = i
			break
		}
	}
	if firstConsumer < 0 {
		t.Fatal("no consuming step")
	}
	cut := *sched
	cut.Steps = append([]Step(nil), sched.Steps...)
	cut.Steps = append(cut.Steps[:firstConsumer], cut.Steps[firstConsumer+1:]...)
	for i := range cut.Steps {
		cut.Steps[i].Step = i + 1
	}
	res, err = ReplayDataflow(g, &cut)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence == nil || res.Divergence.Reason != ReasonConsumedMissing {
		t.Errorf("dropped firing: got %+v", res.Divergence)
	}
}

// TestReplayDataflowOperandVector: a step's consumed keys are its operand
// vector, one per input port in port order. A vector of the wrong length, or
// keys on edges that do not feed the vertex's ports, is a divergence at that
// step — not a panic in the vertex operation, and not a clean replay.
func TestReplayDataflowOperandVector(t *testing.T) {
	g := paper.Fig1Graph()
	sched, _ := recordDataflow(t, g, dataflow.Options{})
	step := func(s *Schedule, name string) *Step {
		for i := range s.Steps {
			if s.Steps[i].Name == name {
				return &s.Steps[i]
			}
		}
		t.Fatalf("no step fires %s", name)
		return nil
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *Schedule)
	}{
		{"one operand for a two-port vertex", func(s *Schedule) { step(s, "R1").Consumed = []string{"A1@0"} }},
		{"R1 and R2 consume each other's operands", func(s *Schedule) {
			r1, r2 := step(s, "R1"), step(s, "R2")
			r1.Consumed, r2.Consumed = r2.Consumed, r1.Consumed
		}},
	} {
		s := *sched
		s.Steps = append([]Step(nil), sched.Steps...)
		tc.mutate(&s)
		res, err := ReplayDataflow(g, &s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := res.Divergence; d == nil || d.Reason != ReasonKernelError || d.Name != "R1" {
			t.Errorf("%s: divergence %+v, want %s at R1", tc.name, d, ReasonKernelError)
		}
	}
}

// TestAncestors checks the provenance slice: the divergent step's ancestors
// are exactly the earlier steps whose products it transitively consumed.
func TestAncestors(t *testing.T) {
	s := &Schedule{Kind: KindGamma, Steps: []Step{
		{Step: 1, Seq: 1, Name: "A", Produced: []string{"k1"}},
		{Step: 2, Seq: 2, Name: "B", Produced: []string{"k2"}},
		{Step: 3, Seq: 3, Name: "C", Consumed: []string{"k1"}, Produced: []string{"k3"}},
		{Step: 4, Seq: 4, Name: "D", Consumed: []string{"k3", "kInit"}},
	}}
	got := ancestors(s, 3)
	want := []int{1, 3}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("ancestors = %v, want %v", got, want)
	}
	if got := ancestors(s, 0); len(got) != 0 {
		t.Errorf("step 1 has ancestors %v", got)
	}

	// Duplicate keys: A and B each produce one k, C and D each consume one.
	// The most recent unconsumed product goes first — C takes B's, D A's —
	// as in the firing DAG the DOT draws.
	dup := &Schedule{Kind: KindGamma, Steps: []Step{
		{Step: 1, Seq: 1, Name: "A", Produced: []string{"k"}},
		{Step: 2, Seq: 2, Name: "B", Produced: []string{"k"}},
		{Step: 3, Seq: 3, Name: "C", Consumed: []string{"k"}},
		{Step: 4, Seq: 4, Name: "D", Consumed: []string{"k"}},
	}}
	if got := ancestors(dup, 2); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("C's ancestors = %v, want [2]", got)
	}
	if got := ancestors(dup, 3); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("D's ancestors = %v, want [1]", got)
	}
}

// TestRecorderFootprintTracksSchedule pins the recorder's growth discipline:
// its raw stores double from a few hundred bytes, so recording Example 1's
// three firings costs about a kilobyte (fixed 64 KiB / 32 KiB / 64 KiB first
// chunks made every traced three-firing service run carry 160 kB), and a long
// recording allocates a bounded multiple of what it holds.
func TestRecorderFootprintTracksSchedule(t *testing.T) {
	record := func(steps int) (bytes, held uint64) {
		consumed := []multiset.Tuple{multiset.Pair(value.Int(1), "a"), multiset.Pair(value.Int(2), "b")}
		produced := []multiset.Tuple{multiset.Pair(value.Int(3), "c")}
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		rec := NewRecorder(KindGamma, "footprint")
		for i := 0; i < steps; i++ {
			rec.RecordStepTuples(uint64(i), "R", time.Now(), consumed, produced)
		}
		runtime.ReadMemStats(&b)
		if rec.Len() != steps {
			t.Fatalf("recorded %d of %d steps", rec.Len(), steps)
		}
		return b.TotalAlloc - a.TotalAlloc, uint64(len(rec.buf) + 4*len(rec.offs) + int(unsafe.Sizeof(rawStep{}))*len(rec.raw))
	}
	small, _ := record(3)
	long, held := record(20000)
	t.Logf("3 firings: %d B; 20000 firings: %d B allocated for %d B held", small, long, held)
	if small > 4<<10 {
		t.Errorf("recording 3 firings allocated %d B, want <= 4 KiB", small)
	}
	if long > 5*held {
		t.Errorf("recording 20000 firings allocated %d B for %d B held, want <= 5x", long, held)
	}
}

// TestRecorderCostPerFiring states the schedule recorder's run-time cost in
// absolute units, nanoseconds per firing, on the labeled tournament at n=2000
// (1 994 firings, sequential engine). A share of the bare run's time would
// fail whenever the engine gets faster with the recorder unchanged; a
// nanosecond figure fails only when recording itself gets dearer. The cost is
// three keys rendered into a byte buffer under a lock, the collector's share
// of the retained schedule, and the firing's timing — a clock read at every
// probe start and one at the record: 580–790 ns per firing on the 2-core
// host (a bare firing is 2.5 µs, so 10 % of host noise reads as 250 ns); the
// 1 500 ns ceiling is there to catch a second per-firing cost (a string per
// key, a map insert, a fixed chunk), not a slow host.
//
// A timed sample is a batch of 8 back-to-back runs, because much of the cost
// is collector work that amortizes across runs; bare and recorded batches
// alternate, each mode's median batch is kept, and before failing everything
// is measured again keeping each mode's faster median, as TestLabelFreeScaling
// does: a busy host only ever adds time.
func TestRecorderCostPerFiring(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("wall-clock gate: needs a non-race, non-short build")
	}
	const n, stages, batch, rounds, ceilingNS = 2000, 11, 8, 9, 1500.0
	src := ""
	for i := 0; i < stages; i++ {
		src += fmt.Sprintf("R%d = replace [x, 'L%d'], [y, 'L%d'] by [x, 'L%d'] if x <= y by [y, 'L%d'] else\n", i, i, i, i+1, i+1)
	}
	prog, err := gammalang.ParseProgram("tournament", src)
	if err != nil {
		t.Fatal(err)
	}
	init := multiset.New()
	for i := 0; i < n; i++ {
		init.Add(multiset.Pair(value.Int(int64((i*2654435761+17)%(4*n))), "L0"))
	}
	var steps int64
	timeBatch := func(record bool) time.Duration {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			opt := gamma.Options{}
			var rec *Recorder
			if record {
				rec = NewRecorder(KindGamma, "cost")
				opt.Schedule = rec
			}
			st, err := gamma.Run(prog, init.Clone(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if rec != nil && int64(rec.Len()) != st.Steps {
				t.Fatalf("recorded %d of %d firings", rec.Len(), st.Steps)
			}
			steps = st.Steps
		}
		return time.Since(t0) / batch
	}
	// medians returns the median per-run time of each mode over alternating
	// batches; the first pair warms kernels, pools and the heap goal.
	medians := func() (bare, recorded time.Duration) {
		var ds [2][]time.Duration
		for r := -1; r < rounds; r++ {
			for mode := range ds {
				if d := timeBatch(mode == 1); r >= 0 {
					ds[mode] = append(ds[mode], d)
				}
			}
		}
		for mode := range ds {
			sort.Slice(ds[mode], func(a, b int) bool { return ds[mode][a] < ds[mode][b] })
		}
		return ds[0][rounds/2], ds[1][rounds/2]
	}
	bare, recorded := medians()
	cost := func() float64 { return float64(recorded-bare) / float64(steps) }
	for retry := 0; cost() > ceilingNS && retry < 2; retry++ {
		t.Logf("recording cost %.0f ns per firing (bare %v, recorded %v), measuring again", cost(), bare, recorded)
		b, r := medians()
		bare, recorded = min(bare, b), min(recorded, r)
	}
	t.Logf("bare %v, recorded %v per run of %d firings: %.0f ns per firing", bare, recorded, steps, cost())
	if cost() > ceilingNS {
		t.Errorf("recording costs %.0f ns per firing (bare %v, recorded %v, %d firings), want <= %.0f",
			cost(), bare, recorded, steps, ceilingNS)
	}
}

// TestReplaySessionScheduleLinearizes: the sequential engine commits under one
// write session that it gives up and re-takes every gamma.sessionProbes probes,
// and tells the recorder of each firing from inside it. The sequence numbers
// it draws there must still be the run's own order — 1, 2, 3, … with no gap
// across a session boundary — and the schedule must replay to the recorded
// final state. 2 500 firings span two boundaries.
func TestReplaySessionScheduleLinearizes(t *testing.T) {
	p, err := gammalang.ParseProgram("pairs", "P = replace [x, 'L'], [y, 'L'] by [x + y, 'M']")
	if err != nil {
		t.Fatal(err)
	}
	init := multiset.New()
	for i := int64(0); i < 5000; i++ {
		init.Add(multiset.Pair(value.Int(i), "L"))
	}
	for _, seed := range []int64{0, 7} {
		rec := NewRecorder(KindGamma, p.Name)
		m := init.Clone()
		st, err := gamma.Run(p, m, gamma.Options{Seed: seed, Schedule: rec})
		if err != nil || st.Steps != 2500 {
			t.Fatalf("seed %d: %d steps, err %v", seed, st.Steps, err)
		}
		sched := rec.Schedule()
		for i, step := range sched.Steps {
			if step.Seq != uint64(i+1) {
				t.Fatalf("seed %d: firing %d carries seq %d", seed, i, step.Seq)
			}
		}
		res, err := ReplayGamma(p, init.Clone(), sched)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if res.Divergence != nil || !res.Stable || res.Steps != 2500 || !res.Final.Equal(m) {
			t.Fatalf("seed %d: divergence %v, stable %v, %d steps, final equal %v",
				seed, res.Divergence, res.Stable, res.Steps, res.Final.Equal(m))
		}
	}
}
