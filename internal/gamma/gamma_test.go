package gamma

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/value"
)

// minReaction builds Eq. 2 of the paper:
//
//	R = replace(x, y) by x where x < y
func minReaction() *Reaction {
	return &Reaction{
		Name:     "R",
		Patterns: []Pattern{{FVar("x")}, {FVar("y")}},
		Branches: []Branch{{
			Cond:     expr.MustParse("x < y"),
			Products: []Template{{expr.MustParse("x")}},
		}},
	}
}

func intsMultiset(vals ...int64) *multiset.Multiset {
	m := multiset.New()
	for _, v := range vals {
		m.Add(multiset.New1(value.Int(v)))
	}
	return m
}

func TestMinReactionSequential(t *testing.T) {
	m := intsMultiset(9, 4, 7, 1, 8, 3)
	p := MustProgram("min", minReaction())
	stats, err := Run(p, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || !m.Contains(multiset.New1(value.Int(1))) {
		t.Fatalf("result = %s, want {1}", m)
	}
	if stats.Steps != 5 || stats.Fired["R"] != 5 {
		t.Errorf("stats = %+v, want 5 firings", stats)
	}
}

func TestMinReactionParallel(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		m := intsMultiset()
		for i := int64(1); i <= 100; i++ {
			m.Add(multiset.New1(value.Int(i)))
		}
		p := MustProgram("min", minReaction())
		stats, err := Run(p, m, Options{Workers: workers, Seed: int64(workers)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if m.Len() != 1 || !m.Contains(multiset.New1(value.Int(1))) {
			t.Fatalf("workers=%d: result = %s, want {1}", workers, m)
		}
		if stats.Steps != 99 {
			t.Errorf("workers=%d: steps = %d, want 99", workers, stats.Steps)
		}
	}
}

// example1Program builds R1–R3 from §III-A1:
//
//	R1 = replace [id1,'A1'],[id2,'B1'] by [id1+id2,'B2']
//	R2 = replace [id1,'C1'],[id2,'D1'] by [id1*id2,'C2']
//	R3 = replace [id1,'B2'],[id2,'C2'] by [id1-id2,'m']
func example1Program() *Program {
	bin := func(name, la, lb, op, out string) *Reaction {
		return &Reaction{
			Name:     name,
			Patterns: []Pattern{{FVar("id1"), FLabel(la)}, {FVar("id2"), FLabel(lb)}},
			Branches: []Branch{{
				Products: []Template{{expr.MustParse("id1 " + op + " id2"), expr.Lit{Val: value.Str(out)}}},
			}},
		}
	}
	return MustProgram("example1",
		bin("R1", "A1", "B1", "+", "B2"),
		bin("R2", "C1", "D1", "*", "C2"),
		bin("R3", "B2", "C2", "-", "m"),
	)
}

// example1Input is the paper's initial multiset {[1,A1],[5,B1],[3,C1],[2,D1]}.
func example1Input() *multiset.Multiset {
	return multiset.New(
		multiset.Pair(value.Int(1), "A1"),
		multiset.Pair(value.Int(5), "B1"),
		multiset.Pair(value.Int(3), "C1"),
		multiset.Pair(value.Int(2), "D1"),
	)
}

func TestExample1Gamma(t *testing.T) {
	m := example1Input()
	stats, err := Run(example1Program(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := multiset.Pair(value.Int(0), "m") // (1+5)-(3*2) = 0
	if m.Len() != 1 || !m.Contains(want) {
		t.Fatalf("result = %s, want {[0, 'm']}", m)
	}
	if stats.Steps != 3 {
		t.Errorf("steps = %d, want 3", stats.Steps)
	}
}

func TestExample1GammaParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		m := example1Input()
		if _, err := Run(example1Program(), m, Options{Workers: 4, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		if !m.Contains(multiset.Pair(value.Int(0), "m")) || m.Len() != 1 {
			t.Fatalf("seed %d: result = %s", seed, m)
		}
	}
}

// steerReaction reproduces R16: consume data+control, keep data on true,
// discard both on false ("by 0 else").
func steerReaction() *Reaction {
	return &Reaction{
		Name: "R16",
		Patterns: []Pattern{
			{FVar("id1"), FLabel("B13"), FVar("v")},
			{FVar("id2"), FLabel("B15"), FVar("v")},
		},
		Branches: []Branch{
			{Cond: expr.MustParse("id2 == 1"),
				Products: []Template{{expr.MustParse("id1"), expr.Lit{Val: value.Str("B17")}, expr.MustParse("v")}}},
			{Products: nil}, // by 0 else
		},
	}
}

func TestSteerTrueBranch(t *testing.T) {
	m := multiset.New(multiset.IntElem(42, "B13", 3), multiset.IntElem(1, "B15", 3))
	if _, err := Run(MustProgram("steer", steerReaction()), m, Options{}); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || !m.Contains(multiset.IntElem(42, "B17", 3)) {
		t.Fatalf("result = %s, want {[42,'B17',3]}", m)
	}
}

func TestSteerFalseBranchDiscards(t *testing.T) {
	m := multiset.New(multiset.IntElem(42, "B13", 3), multiset.IntElem(0, "B15", 3))
	if _, err := Run(MustProgram("steer", steerReaction()), m, Options{}); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("result = %s, want {}", m)
	}
}

func TestSteerTagMismatchDoesNotFire(t *testing.T) {
	// Same labels but different iteration tags: dynamic dataflow forbids the
	// match, and the shared tag variable v enforces it.
	m := multiset.New(multiset.IntElem(42, "B13", 3), multiset.IntElem(1, "B15", 4))
	stats, err := Run(MustProgram("steer", steerReaction()), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 0 || m.Len() != 2 {
		t.Fatalf("steps=%d result=%s, want no firing", stats.Steps, m)
	}
}

// inctagReaction reproduces R11: one input, condition on the label variable,
// tag incremented.
func inctagReaction() *Reaction {
	return &Reaction{
		Name:     "R11",
		Patterns: []Pattern{{FVar("id1"), FVar("x"), FVar("v")}},
		Branches: []Branch{{
			Cond:     expr.MustParse("(x == 'A1') or (x == 'A11')"),
			Products: []Template{{expr.MustParse("id1"), expr.Lit{Val: value.Str("A12")}, expr.MustParse("v + 1")}},
		}},
	}
}

func TestInctagIncrementsTag(t *testing.T) {
	m := multiset.New(multiset.IntElem(7, "A1", 0))
	if _, err := Run(MustProgram("inctag", inctagReaction()), m, Options{}); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || !m.Contains(multiset.IntElem(7, "A12", 1)) {
		t.Fatalf("result = %s, want {[7,'A12',1]}", m)
	}
}

func TestInctagGuardPreventsFiring(t *testing.T) {
	m := multiset.New(multiset.IntElem(7, "Z9", 0))
	stats, err := Run(MustProgram("inctag", inctagReaction()), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 0 || m.Len() != 1 {
		t.Fatalf("guarded reaction fired on wrong label: %s", m)
	}
}

func TestValidate(t *testing.T) {
	good := minReaction()
	if err := good.Validate(); err != nil {
		t.Errorf("valid reaction rejected: %v", err)
	}
	bad := []*Reaction{
		{Name: "noPatterns", Branches: []Branch{{}}},
		{Name: "noBranches", Patterns: []Pattern{{FVar("x")}}},
		{Name: "emptyPattern", Patterns: []Pattern{{}}, Branches: []Branch{{}}},
		{Name: "badField", Patterns: []Pattern{{Field{}}}, Branches: []Branch{{}}},
		{Name: "unboundCond", Patterns: []Pattern{{FVar("x")}},
			Branches: []Branch{{Cond: expr.MustParse("y > 0")}}},
		{Name: "unboundProduct", Patterns: []Pattern{{FVar("x")}},
			Branches: []Branch{{Products: []Template{{expr.MustParse("q")}}}}},
		{Name: "elseNotLast", Patterns: []Pattern{{FVar("x")}},
			Branches: []Branch{{Products: nil}, {Cond: expr.MustParse("x > 0")}}},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("reaction %s should fail validation", r.Name)
		}
	}
	if _, err := NewProgram("p", bad[0]); err == nil {
		t.Error("NewProgram should validate")
	}
}

// TestValidateOnce holds the run's well-formedness check to the verdict taken
// with the kernel: a program built by hand, past NewProgram, still fails
// every run with rt.ErrInvalid, and a warm run of a valid program no longer
// pays for re-validating (the per-run Validate cost 16 allocations here
// against 10 without it).
func TestValidateOnce(t *testing.T) {
	p := &Program{Name: "hand", Reactions: []*Reaction{{Name: "unbound", Patterns: []Pattern{{FVar("x")}},
		Branches: []Branch{{Cond: expr.MustParse("y > 0")}}}}}
	for run := 1; run <= 2; run++ {
		if _, err := Run(p, intsMultiset(1), Options{}); !errors.Is(err, rt.ErrInvalid) {
			t.Errorf("run %d of an unbound variable: err = %v, want ErrInvalid", run, err)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	warm, m := MustProgram("min", minReaction()), intsMultiset(1)
	Run(warm, m, Options{})
	if a := testing.AllocsPerRun(100, func() { Run(warm, m, Options{}) }); a > 12 {
		t.Errorf("a warm run on a stable state allocates %.0f times, want <= 12", a)
	}
}

func TestMustProgramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustProgram should panic on invalid reaction")
		}
	}()
	MustProgram("p", &Reaction{Name: "bad"})
}

func TestProgramLookupAndString(t *testing.T) {
	p := example1Program()
	if p.Reaction("R2") == nil || p.Reaction("R9") != nil {
		t.Error("Reaction lookup wrong")
	}
	s := p.String()
	for _, want := range []string{"R1 = replace [id1, 'A1'], [id2, 'B1']", "by [id1 + id2, 'B2']"} {
		if !strings.Contains(s, want) {
			t.Errorf("program rendering missing %q:\n%s", want, s)
		}
	}
	st := steerReaction().String()
	for _, want := range []string{"by 0", "else", "if id2 == 1"} {
		if !strings.Contains(st, want) {
			t.Errorf("steer rendering missing %q:\n%s", want, st)
		}
	}
}

func TestRunErrorPropagation(t *testing.T) {
	// Division by zero inside an action.
	r := &Reaction{
		Name:     "div",
		Patterns: []Pattern{{FVar("x")}},
		Branches: []Branch{{Products: []Template{{expr.MustParse("x / 0")}}}},
	}
	m := intsMultiset(1)
	if _, err := Run(MustProgram("p", r), m, Options{}); err == nil {
		t.Error("sequential run should surface action error")
	}
	m2 := intsMultiset(1, 2, 3, 4)
	if _, err := Run(MustProgram("p", r), m2, Options{Workers: 4}); err == nil {
		t.Error("parallel run should surface action error")
	}
	// Type error inside a condition.
	rc := &Reaction{
		Name:     "cond",
		Patterns: []Pattern{{FVar("x")}},
		Branches: []Branch{{Cond: expr.MustParse("x > 'zz' and x > 0"), Products: nil}},
	}
	m3 := intsMultiset(5)
	if _, err := Run(MustProgram("p", rc), m3, Options{}); err == nil {
		t.Error("condition type error should surface")
	}
}

func TestMaxSteps(t *testing.T) {
	// A diverging reaction: x -> x+1 forever.
	r := &Reaction{
		Name:     "grow",
		Patterns: []Pattern{{FVar("x")}},
		Branches: []Branch{{Products: []Template{{expr.MustParse("x + 1")}}}},
	}
	m := intsMultiset(0)
	_, err := Run(MustProgram("p", r), m, Options{MaxSteps: 50})
	if !errors.Is(err, ErrMaxSteps) {
		t.Errorf("sequential: err = %v, want ErrMaxSteps", err)
	}
	m2 := intsMultiset(0, 0, 0, 0)
	_, err = Run(MustProgram("p", r), m2, Options{Workers: 3, MaxSteps: 50})
	if !errors.Is(err, ErrMaxSteps) {
		t.Errorf("parallel: err = %v, want ErrMaxSteps", err)
	}
}

func TestMaxStepsNotHitWhenTerminates(t *testing.T) {
	m := intsMultiset(3, 1, 2)
	if _, err := Run(MustProgram("min", minReaction()), m, Options{MaxSteps: 2}); err != nil {
		// Exactly 2 steps needed; reaching MaxSteps while stable is fine.
		t.Errorf("run errored: %v", err)
	}
}

func TestEmptyProgramAndEmptyMultiset(t *testing.T) {
	m := intsMultiset(1, 2)
	stats, err := Run(&Program{Name: "empty"}, m, Options{})
	if err != nil || stats.Steps != 0 || m.Len() != 2 {
		t.Errorf("empty program: %v %+v", err, stats)
	}
	m2 := multiset.New()
	stats2, err := Run(example1Program(), m2, Options{})
	if err != nil || stats2.Steps != 0 {
		t.Errorf("empty multiset: %v %+v", err, stats2)
	}
	stats3, err := Run(example1Program(), multiset.New(), Options{Workers: 4})
	if err != nil || stats3.Steps != 0 {
		t.Errorf("parallel empty multiset: %v %+v", err, stats3)
	}
}

func TestEnabled(t *testing.T) {
	p := example1Program()
	m := example1Input()
	on, err := Enabled(p, m)
	if err != nil || !on {
		t.Errorf("Enabled = %v, %v; want true", on, err)
	}
	if _, err := Run(p, m, Options{}); err != nil {
		t.Fatal(err)
	}
	on, err = Enabled(p, m)
	if err != nil || on {
		t.Errorf("Enabled after fixpoint = %v, %v; want false", on, err)
	}
}

func TestMultiplicityMatching(t *testing.T) {
	// x < y with two equal elements must not fire; with duplicates of
	// different values it consumes correctly.
	m := intsMultiset(5, 5)
	stats, err := Run(MustProgram("min", minReaction()), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 0 || m.Len() != 2 {
		t.Errorf("equal elements should not react: %s", m)
	}
	// Duplicate minimum survives as duplicate.
	m2 := intsMultiset(1, 1, 9)
	if _, err := Run(MustProgram("min", minReaction()), m2, Options{}); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 2 || m2.Count(multiset.New1(value.Int(1))) != 2 {
		t.Errorf("result = %s, want {1, 1}", m2)
	}
}

func TestPairConsumingReaction(t *testing.T) {
	// Sum all elements pairwise into one: replace x,y by x+y.
	r := &Reaction{
		Name:     "sum",
		Patterns: []Pattern{{FVar("x")}, {FVar("y")}},
		Branches: []Branch{{Products: []Template{{expr.MustParse("x + y")}}}},
	}
	m := intsMultiset(1, 2, 3, 4, 5)
	if _, err := Run(MustProgram("p", r), m, Options{}); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || !m.Contains(multiset.New1(value.Int(15))) {
		t.Fatalf("result = %s, want {15}", m)
	}
	// Parallel agreement.
	m2 := intsMultiset()
	for i := int64(1); i <= 200; i++ {
		m2.Add(multiset.New1(value.Int(i)))
	}
	if _, err := Run(MustProgram("p", r), m2, Options{Workers: 8, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 1 || !m2.Contains(multiset.New1(value.Int(20100))) {
		t.Fatalf("parallel sum result = %s, want {20100}", m2)
	}
}

func TestFindMatchIndexedPath(t *testing.T) {
	// Bound-tag narrowing: second pattern's tag var is pinned by the first.
	m := multiset.New()
	for tag := int64(0); tag < 50; tag++ {
		m.Add(multiset.IntElem(tag, "L", tag))
		m.Add(multiset.IntElem(tag*10, "R", tag))
	}
	r := &Reaction{
		Name:     "join",
		Patterns: []Pattern{{FVar("a"), FLabel("L"), FVar("v")}, {FVar("b"), FLabel("R"), FVar("v")}},
		Branches: []Branch{{Products: []Template{{expr.MustParse("a + b"), expr.Lit{Val: value.Str("O")}, expr.MustParse("v")}}}},
	}
	match, err := FindMatch(r, m, nil)
	if err != nil || match == nil {
		t.Fatalf("FindMatch: %v, %v", match, err)
	}
	ta, _ := match.Chosen[0].Tag()
	tb, _ := match.Chosen[1].Tag()
	if ta != tb {
		t.Errorf("tags differ: %d vs %d", ta, tb)
	}
	// Literal tag in pattern.
	r2 := &Reaction{
		Name:     "pin",
		Patterns: []Pattern{{FVar("a"), FLabel("L"), FLit(value.Int(7))}},
		Branches: []Branch{{Products: nil}},
	}
	match2, err := FindMatch(r2, m, nil)
	if err != nil || match2 == nil {
		t.Fatalf("FindMatch literal tag: %v, %v", match2, err)
	}
	if tg, _ := match2.Chosen[0].Tag(); tg != 7 {
		t.Errorf("chose tag %d, want 7", tg)
	}
}

func TestFindMatchRandomizedStillValid(t *testing.T) {
	m := intsMultiset(3, 1, 4, 1, 5)
	rng := rand.New(rand.NewSource(42))
	r := minReaction()
	for i := 0; i < 20; i++ {
		match, err := FindMatch(r, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if match == nil {
			t.Fatal("expected a match")
		}
		x := bound(t, r, match, "x").AsInt()
		y := bound(t, r, match, "y").AsInt()
		if x >= y {
			t.Fatalf("invalid match x=%d y=%d", x, y)
		}
	}
}

func TestPlanSequentialStages(t *testing.T) {
	// Stage 1: double every element (guarded to run once per element via
	// label change); Stage 2: sum pairs.
	double := &Reaction{
		Name:     "double",
		Patterns: []Pattern{{FVar("x"), FLabel("in")}},
		Branches: []Branch{{Products: []Template{{expr.MustParse("x * 2"), expr.Lit{Val: value.Str("mid")}}}}},
	}
	sum := &Reaction{
		Name:     "sum",
		Patterns: []Pattern{{FVar("x"), FLabel("mid")}, {FVar("y"), FLabel("mid")}},
		Branches: []Branch{{Products: []Template{{expr.MustParse("x + y"), expr.Lit{Val: value.Str("mid")}}}}},
	}
	m := multiset.New(
		multiset.Pair(value.Int(1), "in"),
		multiset.Pair(value.Int(2), "in"),
		multiset.Pair(value.Int(3), "in"),
	)
	plan := Sequence(MustProgram("s1", double), MustProgram("s2", sum))
	stats, err := plan.Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || !m.Contains(multiset.Pair(value.Int(12), "mid")) {
		t.Fatalf("plan result = %s, want {[12,'mid']}", m)
	}
	if stats.Steps != 5 {
		t.Errorf("steps = %d, want 5", stats.Steps)
	}
	// Options{} echoes one worker, as Run does on a single program.
	if stats.Workers != 1 {
		t.Errorf("workers = %d, want 1", stats.Workers)
	}
	// A failing stage surfaces with stage name.
	badStage := MustProgram("boom", &Reaction{
		Name:     "div",
		Patterns: []Pattern{{FVar("x"), FLabel("mid")}},
		Branches: []Branch{{Products: []Template{{expr.MustParse("x / 0"), expr.MustParse("'z'")}}}},
	})
	_, err = Sequence(badStage).Run(m, Options{})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("plan error = %v, want stage name", err)
	}
}

func TestParallelLargeStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// Max-finding over 500 elements with 8 workers, repeated; checks both
	// termination detection and commit atomicity under contention.
	maxR := &Reaction{
		Name:     "max",
		Patterns: []Pattern{{FVar("x")}, {FVar("y")}},
		Branches: []Branch{{Cond: expr.MustParse("x >= y"), Products: []Template{{expr.MustParse("x")}}}},
	}
	for trial := 0; trial < 3; trial++ {
		m := multiset.New()
		for i := int64(0); i < 500; i++ {
			m.Add(multiset.New1(value.Int(i % 97)))
		}
		stats, err := Run(MustProgram("max", maxR), m, Options{Workers: 8, Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != 1 || !m.Contains(multiset.New1(value.Int(96))) {
			t.Fatalf("trial %d: result = %s, want {96}", trial, m)
		}
		if stats.Steps != 499 {
			t.Errorf("trial %d: steps = %d", trial, stats.Steps)
		}
	}
}

func TestStatsConflictsCounted(t *testing.T) {
	// Under heavy contention some optimistic commits should fail; we only
	// assert the counter is consistent (>= 0 and stats well-formed), since
	// conflicts are timing-dependent.
	m := intsMultiset()
	for i := int64(0); i < 300; i++ {
		m.Add(multiset.New1(value.Int(i)))
	}
	stats, err := Run(MustProgram("min", minReaction()), m, Options{Workers: 8, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Conflicts < 0 || stats.Workers != 8 {
		t.Errorf("stats = %+v", stats)
	}
	total := int64(0)
	for _, n := range stats.Fired {
		total += n
	}
	if total != stats.Steps {
		t.Errorf("fired sum %d != steps %d", total, stats.Steps)
	}
}

func TestSeededSequentialIsRandomizedButCorrect(t *testing.T) {
	m := intsMultiset(9, 4, 7, 1, 8, 3)
	if _, err := Run(MustProgram("min", minReaction()), m, Options{Seed: 123}); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || !m.Contains(multiset.New1(value.Int(1))) {
		t.Fatalf("result = %s", m)
	}
}

func TestFieldHelpers(t *testing.T) {
	if FVar("x").String() != "x" || FLit(value.Int(3)).String() != "3" || FLabel("A1").String() != "'A1'" {
		t.Error("field rendering wrong")
	}
	p := Pattern{FVar("id1"), FLabel("A1"), FVar("v")}
	if p.String() != "[id1, 'A1', v]" {
		t.Errorf("pattern rendering = %q", p.String())
	}
	tpl := Template{expr.MustParse("id1 + id2"), expr.MustParse("'B2'")}
	if tpl.String() != "[id1 + id2, 'B2']" {
		t.Errorf("template rendering = %q", tpl.String())
	}
}

func TestArityAndProduceErrors(t *testing.T) {
	r := minReaction()
	if r.Arity() != 2 {
		t.Errorf("arity = %d", r.Arity())
	}
	bad := &Reaction{
		Name:     "bad",
		Patterns: []Pattern{{FVar("x")}},
		Branches: []Branch{{Products: []Template{{expr.MustParse("x + 'q'")}}}},
	}
	if _, err := bad.produce(0, bindings{"x": value.Int(1)}); err == nil {
		t.Error("produce should surface eval error")
	}
}

func TestManyReactionsManyLabels(t *testing.T) {
	// A chain A0→A1→…→A20 driven by 20 single-input reactions; exercises
	// round-robin fairness and the label index.
	var reactions []*Reaction
	for i := 0; i < 20; i++ {
		reactions = append(reactions, &Reaction{
			Name:     fmt.Sprintf("step%d", i),
			Patterns: []Pattern{{FVar("x"), FLabel(fmt.Sprintf("A%d", i))}},
			Branches: []Branch{{Products: []Template{{
				expr.MustParse("x + 1"), expr.Lit{Val: value.Str(fmt.Sprintf("A%d", i+1))},
			}}}},
		})
	}
	m := multiset.New(multiset.Pair(value.Int(0), "A0"))
	p := MustProgram("chain", reactions...)
	stats, err := Run(p, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Contains(multiset.Pair(value.Int(20), "A20")) || stats.Steps != 20 {
		t.Fatalf("chain result = %s steps=%d", m, stats.Steps)
	}
	// Parallel too.
	m2 := multiset.New(multiset.Pair(value.Int(0), "A0"))
	if _, err := Run(p, m2, Options{Workers: 4, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if !m2.Contains(multiset.Pair(value.Int(20), "A20")) {
		t.Fatalf("parallel chain result = %s", m2)
	}
}

func TestPatternMatchEdgeCases(t *testing.T) {
	env := make(bindings)
	// Arity mismatch.
	p := Pattern{FVar("x"), FLabel("L")}
	if _, ok := p.match(multiset.IntElem(1, "L", 0), env); ok {
		t.Error("arity mismatch should fail")
	}
	// Literal mismatch unbinds partial bindings.
	p2 := Pattern{FVar("x"), FLabel("L")}
	if _, ok := p2.match(multiset.Pair(value.Int(1), "Z"), env); ok {
		t.Error("label mismatch should fail")
	}
	if len(env) != 0 {
		t.Errorf("env leaked bindings: %v", env)
	}
	// Repeated var conflict.
	p3 := Pattern{FVar("x"), FVar("x")}
	if _, ok := p3.match(multiset.Tuple{value.Int(1), value.Int(2)}, env); ok {
		t.Error("conflicting repeat should fail")
	}
	if len(env) != 0 {
		t.Errorf("env leaked bindings: %v", env)
	}
	// Repeated var agreement.
	if bound, ok := p3.match(multiset.Tuple{value.Int(2), value.Int(2)}, env); !ok || len(bound) != 1 {
		t.Errorf("repeat agreement: ok=%v bound=%v", ok, bound)
	}
}
