package gamma

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/value"
)

// oracleMatch is findMatchOracle's Match: the bindings by name.
type oracleMatch struct {
	Chosen []multiset.Tuple
	Env    bindings
	Branch int
}

// findMatchOracle is the interpreted matcher the kernel replaced: a
// backtracking search using Pattern.match over name-keyed bindings and the
// interpreted selectBranch. Candidate order mirrors the kernel's deterministic
// enumeration: patterns with a literal label walk ascending key order (label
// and tag filtering only skip candidates that would fail Pattern.match
// anyway, so the key-ordered walk finds the same first match as the indexed
// walk), while generic patterns walk the whole multiset in the same
// state-derived rotated order as IterAllRot.
func findMatchOracle(r *Reaction, m *multiset.Multiset) (*oracleMatch, error) {
	var cands, rotCands []multiset.Counted
	m.IterAllRot(0, func(t multiset.Tuple, n int, key string) bool {
		cands = append(cands, multiset.Counted{Tuple: t, N: n, Key: key})
		return true
	})
	sort.Slice(cands, func(i, j int) bool { return cands[i].Key < cands[j].Key })
	m.IterAllRot(detRotation(m.Len()), func(t multiset.Tuple, n int, key string) bool {
		rotCands = append(rotCands, multiset.Counted{Tuple: t, N: n, Key: key})
		return true
	})
	s := &oracleSearcher{r: r, cands: cands, rotCands: rotCands,
		env:    make(bindings),
		used:   make(map[string]int),
		chosen: make([]multiset.Tuple, len(r.Patterns)),
	}
	ok := s.search(0)
	if s.err != nil {
		return nil, s.err
	}
	if !ok {
		return nil, nil
	}
	return &oracleMatch{Chosen: s.chosen, Env: s.env, Branch: s.branch}, nil
}

type oracleSearcher struct {
	r        *Reaction
	cands    []multiset.Counted // ascending key order, for labeled patterns
	rotCands []multiset.Counted // IterAllRot order, for generic patterns
	env      bindings
	used     map[string]int
	chosen   []multiset.Tuple
	branch   int
	err      error
}

func (s *oracleSearcher) search(i int) bool {
	if i == len(s.r.Patterns) {
		idx, err := s.r.selectBranch(s.env)
		if err != nil {
			s.err = err
			return false
		}
		if idx < 0 {
			return false
		}
		s.branch = idx
		return true
	}
	cands := s.cands
	if labels := patternLabels(s.r, s.r.Patterns[i]); labels == nil {
		cands = s.rotCands
	} else if len(labels) > 1 {
		// A narrowed label variable: the labels' elements one label after
		// another, ascending key order within each.
		cands = nil
		for _, label := range labels {
			for _, c := range s.cands {
				if l, ok := c.Tuple.Label(); ok && l == label {
					cands = append(cands, c)
				}
			}
		}
	}
	for _, c := range cands {
		if s.used[c.Key] >= c.N {
			continue
		}
		bound, ok := s.r.Patterns[i].match(c.Tuple, s.env)
		if !ok {
			continue
		}
		s.used[c.Key]++
		s.chosen[i] = c.Tuple
		if s.search(i + 1) {
			return true
		}
		s.used[c.Key]--
		unbind(s.env, bound)
		if s.err != nil {
			return false
		}
	}
	return false
}

// randReaction builds a random reaction over labels A/B and a small variable
// pool: mixed literal/variable fields, shared tag variables (the repeated-
// variable equality constraint), guarded and else branches.
func randReaction(rng *rand.Rand) *Reaction {
	vars := []string{"x", "y", "z"}
	npat := 1 + rng.Intn(2)
	r := &Reaction{Name: fmt.Sprintf("rr%d", rng.Int63n(1000))}
	for pi := 0; pi < npat; pi++ {
		p := Pattern{FVar(vars[pi])}
		if rng.Intn(4) > 0 {
			p = append(p, FLabel([]string{"A", "B"}[rng.Intn(2)]))
		} else {
			p = append(p, FVar(fmt.Sprintf("l%d", pi)))
		}
		switch rng.Intn(3) {
		case 0:
			p = append(p, FVar("v")) // shared tag across patterns
		case 1:
			p = append(p, FLit(value.Int(int64(rng.Intn(2)))))
		}
		r.Patterns = append(r.Patterns, p)
	}
	guard := expr.Binary{Op: "<", L: expr.Var{Name: "x"}, R: expr.Lit{Val: value.Int(int64(rng.Intn(5)))}}
	prod := Template{
		expr.Binary{Op: "+", L: expr.Var{Name: "x"}, R: expr.Lit{Val: value.Int(0)}},
		expr.Lit{Val: value.Str("B")},
	}
	switch rng.Intn(3) {
	case 0:
		r.Branches = []Branch{{Cond: guard, Products: []Template{prod}}}
	case 1:
		r.Branches = []Branch{{Cond: guard, Products: nil}, {Products: []Template{prod}}}
	default:
		r.Branches = []Branch{{Products: []Template{prod}}}
	}
	return r
}

func randMultisetForKernel(rng *rand.Rand) *multiset.Multiset {
	m := multiset.New()
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		t := multiset.Tuple{value.Int(int64(rng.Intn(6)))}
		if rng.Intn(5) > 0 {
			t = append(t, value.Str([]string{"A", "B"}[rng.Intn(2)]))
		}
		if rng.Intn(2) == 0 {
			t = append(t, value.Int(int64(rng.Intn(2))))
		}
		m.AddN(t, 1+rng.Intn(2))
	}
	return m
}

// TestKernelMatchesInterpreter is the matcher differential: on random
// reactions and random multisets, the compiled kernel search must find
// exactly what the interpreted backtracking search finds — same enablement,
// same chosen elements, same bindings, same branch — and the kernel's
// compiled produce must agree with the tree-walking Template.instantiate.
func TestKernelMatchesInterpreter(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		r := randReaction(rng)
		matchesInterpreter(t, fmt.Sprintf("seed %d", seed), r, randMultisetForKernel(rng))
	}
}

// matchesInterpreter holds one kernel search of r on m to the interpreted
// oracle — same enablement, chosen elements, bindings, branch and products —
// and returns the match (nil when r is not enabled).
func matchesInterpreter(t *testing.T, what string, r *Reaction, m *multiset.Multiset) *Match {
	t.Helper()
	want, wantErr := findMatchOracle(r, m)
	got, gotErr := FindMatch(r, m, nil)
	if (wantErr == nil) != (gotErr == nil) ||
		(wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: %s\n oracle err=%v kernel err=%v", what, r, wantErr, gotErr)
	}
	if wantErr != nil {
		return nil
	}
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: %s\n on %s\n oracle match=%v kernel match=%v", what, r, m, want, got)
	}
	if want == nil {
		return nil
	}
	if want.Branch != got.Branch || len(want.Chosen) != len(got.Chosen) {
		t.Fatalf("%s: branch/chosen mismatch: oracle (%d,%v) kernel (%d,%v)",
			what, want.Branch, want.Chosen, got.Branch, got.Chosen)
	}
	for i := range want.Chosen {
		if !want.Chosen[i].Equal(got.Chosen[i]) {
			t.Fatalf("%s: chosen[%d]: oracle %s kernel %s", what, i, want.Chosen[i], got.Chosen[i])
		}
	}
	nbound := 0
	for _, v := range got.Env {
		if v.IsValid() {
			nbound++
		}
	}
	if len(want.Env) != nbound {
		t.Fatalf("%s: bound variables: oracle %v kernel %v", what, want.Env, got.Env)
	}
	for name, v := range want.Env {
		if gv, err := r.Compile(expr.Var{Name: name})(got.Env); err != nil || gv != v {
			t.Fatalf("%s: env[%s]: oracle %s kernel %s (%v)", what, name, v, gv, err)
		}
	}

	// Products: compiled produce vs interpreted produce on the same env.
	wantP, wErr := r.produce(want.Branch, want.Env)
	s := newSearcher(r, new(multiset.View))
	if !s.probe(m, nil) {
		t.Fatalf("%s: probe after FindMatch found nothing (err %v)", what, s.err)
	}
	_, gotP, gErr := r.kernel().produceInto(r.Name, s.branch, s.env, nil, nil)
	if (wErr == nil) != (gErr == nil) || (wErr != nil && wErr.Error() != gErr.Error()) {
		t.Fatalf("%s: produce err: oracle %v kernel %v", what, wErr, gErr)
	}
	if wErr == nil {
		if len(wantP) != len(gotP) {
			t.Fatalf("%s: product count: oracle %v kernel %v", what, wantP, gotP)
		}
		for i := range wantP {
			if !wantP[i].Equal(gotP[i]) {
				t.Fatalf("%s: product[%d]: oracle %s kernel %s", what, i, wantP[i], gotP[i])
			}
		}
	}
	return got
}

// TestKernelMatchesInterpreterFloatTags is the regression for matching that
// depended on pattern order: the (label, tag) index held integer tags only,
// so a search that had bound v = 2 from [1, 'A', 2] never saw [5, 'B', 2.0] —
// which value.Equal, and so the interpreter, accepts — while the other
// pattern order, binding v = 2.0 first, fell back to the label index and did.
// Gamma then returned a state with an enabled reaction left in it.
func TestKernelMatchesInterpreterFloatTags(t *testing.T) {
	pat := func(v, label string, tag Field) Pattern { return Pattern{FVar(v), FLabel(label), tag} }
	sum := []Branch{{Products: []Template{{expr.MustParse("a + b"), expr.Lit{Val: value.Str("C")}, expr.MustParse("v0")}}}}
	cases := []struct {
		name  string
		pats  []Pattern
		init  string
		steps int64
	}{
		{"A then B", []Pattern{pat("a", "A", FVar("v0")), pat("b", "B", FVar("v0"))}, "{[1,'A',2], [5,'B',2.0]}", 1},
		{"B then A", []Pattern{pat("b", "B", FVar("v0")), pat("a", "A", FVar("v0"))}, "{[1,'A',2], [5,'B',2.0]}", 1},
		{"literal tag", []Pattern{pat("a", "A", FLit(value.Int(2))), pat("b", "B", FLit(value.Int(2)))}, "{[1,'A',2], [5,'B',2.0]}", 1},
		{"literal float tag", []Pattern{pat("a", "A", FLit(value.Float(2))), pat("b", "B", FLit(value.Float(2)))}, "{[1,'A',2], [5,'B',2.0]}", 1},
		{"non-integral float", []Pattern{pat("a", "A", FVar("v0")), pat("b", "B", FVar("v0"))}, "{[1,'A',2.5], [5,'B',2.5], [7,'B',2]}", 1},
		{"float beside int", []Pattern{pat("a", "A", FVar("v0")), pat("b", "B", FVar("v0"))}, "{[1,'A',2], [5,'B',2.5]}", 0},
		{"beyond 2^53", []Pattern{pat("a", "A", FVar("v0")), pat("b", "B", FVar("v0"))}, "{[1,'A',9007199254740993], [5,'B',9007199254740992.0]}", 1},
	}
	for _, c := range cases {
		r := &Reaction{Name: "sum", Patterns: c.pats, Branches: sum}
		if c.name == "literal tag" || c.name == "literal float tag" {
			r.Branches = []Branch{{Products: []Template{{expr.MustParse("a + b"), expr.Lit{Val: value.Str("C")}}}}}
		}
		m, err := multiset.Parse(c.init)
		if err != nil {
			t.Fatal(err)
		}
		if got := matchesInterpreter(t, c.name, r, m); (got != nil) != (c.steps > 0) {
			t.Errorf("%s: match = %v on %s, want enabled = %v", c.name, got, m, c.steps > 0)
		}
		st, err := Run(MustProgram("sum", r), m, Options{})
		if err != nil || st.Steps != c.steps {
			t.Errorf("%s: %d steps (err %v) -> %s, want %d", c.name, st.Steps, err, m, c.steps)
		}
		if on, _ := Enabled(MustProgram("sum", r), m); on {
			t.Errorf("%s: Run returned %s with the reaction still enabled", c.name, m)
		}
	}
}

// TestKernelBacktrackClearsSlots forces a mid-search retreat: the first
// candidate for pattern 0 admits no partner for pattern 1, so the searcher
// must unbind pattern 0's slots and succeed with the second candidate.
func TestKernelBacktrackClearsSlots(t *testing.T) {
	r := &Reaction{
		Name: "pairup",
		Patterns: []Pattern{
			{FVar("x"), FLabel("A"), FVar("v")},
			{FVar("y"), FLabel("B"), FVar("v")}, // shared tag forces the retreat
		},
		Branches: []Branch{{Products: nil}},
	}
	m := multiset.New(
		multiset.IntElem(1, "A", 7), // no B partner with tag 7
		multiset.IntElem(2, "A", 9),
		multiset.IntElem(3, "B", 9),
	)
	match, err := FindMatch(r, m, nil)
	if err != nil || match == nil {
		t.Fatalf("match: (%v, %v)", match, err)
	}
	if got := bound(t, r, match, "v").AsInt(); got != 9 {
		t.Fatalf("tag = %d, want 9 (stale binding from backtracked candidate?)", got)
	}
	if bound(t, r, match, "x").AsInt() != 2 || bound(t, r, match, "y").AsInt() != 3 {
		t.Fatalf("bindings = %v", match.Env)
	}
}

// bound reads variable name out of a FindMatch result for r, through the
// kernel's slot layout (Reaction.Compile).
func bound(t *testing.T, r *Reaction, match *Match, name string) value.Value {
	t.Helper()
	v, err := r.Compile(expr.Var{Name: name})(match.Env)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFindFiringNoMatchAllocationFree pins the owned-scratch property: a
// failed probe on a stable multiset — the dominant operation near the Eq. 1
// fixpoint — allocates nothing.
func TestFindFiringNoMatchAllocationFree(t *testing.T) {
	r := &Reaction{
		Name:     "drain",
		Patterns: []Pattern{{FVar("x"), FLabel("A"), FVar("v")}},
		Branches: []Branch{{Cond: expr.MustParse("x < 0"), Products: nil}},
	}
	m := multiset.New(
		multiset.IntElem(1, "A", 0),
		multiset.IntElem(2, "A", 1),
		multiset.IntElem(3, "B", 0),
	)
	s := newSearcher(r, new(multiset.View))
	allocs := testing.AllocsPerRun(200, func() {
		if s.probe(m, nil) || s.err != nil {
			t.Fatalf("probe matched or failed: %v", s.err)
		}
	})
	if allocs != 0 {
		t.Errorf("failed probe allocates %v per run, want 0", allocs)
	}
}
