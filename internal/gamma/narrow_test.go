package gamma

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/symtab"
	"repro/internal/value"
)

// narrowInit holds what a narrowed pattern must skip and a generic one must
// still see: other labels, an unlabeled element, integers in the label field.
const narrowInit = "{[1,'a',0], [2,'a',1], [3,'b',0], [4,'c',0], [5], [6,7,0], [7,3,0]}"

// narrowReaction is `replace [id1, x1, v] by <nothing> if conds[0] by
// <nothing> if conds[1] ...`; an empty cond is the else branch.
func narrowReaction(conds ...string) *Reaction {
	r := &Reaction{Name: "n", Patterns: []Pattern{{FVar("id1"), FVar("x1"), FVar("v")}}}
	for _, c := range conds {
		b := Branch{}
		if c != "" {
			b.Cond = expr.MustParse(c)
		}
		r.Branches = append(r.Branches, b)
	}
	return r
}

// drain runs r to its stable state on a fresh narrowInit, holding every probe
// along the way to the interpreted matcher, and returns the steps taken.
func drain(t *testing.T, what string, r *Reaction) int64 {
	t.Helper()
	CheckCommits(t)
	m, err := multiset.Parse(narrowInit)
	if err != nil {
		t.Fatal(err)
	}
	for ref := m.Clone(); matchesInterpreter(t, what, r, ref) != nil; {
		match, _ := findMatchOracle(r, ref)
		ref.TryRemoveAll(match.Chosen)
	}
	st, err := Run(MustProgram("n", r), m, Options{})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return st.Steps
}

// TestNarrowLabelSet: a label variable that every branch condition confines
// to literals by a pure or-chain enumerates and subscribes to exactly those
// labels — Algorithm 1's inctag shape — and still matches what the
// interpreter matches, in label order.
func TestNarrowLabelSet(t *testing.T) {
	for _, c := range []struct {
		conds  []string
		labels []string
		steps  int64
	}{
		{[]string{"x1 == 'a' or x1 == 'c'"}, []string{"a", "c"}, 3},
		{[]string{"x1 == 'c' or x1 == 'a' or x1 == 'zz'"}, []string{"c", "a", "zz"}, 3},
		{[]string{"x1 == 'b'", "x1 == 'a' or x1 == 'b'"}, []string{"b", "a"}, 3},
		{[]string{"x1 == 'a'"}, []string{"a"}, 2},
	} {
		r := narrowReaction(c.conds...)
		what := fmt.Sprint(c.conds)
		var want []symtab.Sym
		for _, l := range c.labels {
			want = append(want, symtab.Intern(l))
		}
		k, sub := r.kernel(), buildSubscriptions([]*Reaction{r})
		if k.generic || fmt.Sprint(k.pats[0].labels) != fmt.Sprint(want) || len(sub.wildcard) != 0 {
			t.Errorf("%s: generic=%v labels=%v wildcard=%v, want narrowed to %v %v", what, k.generic, k.pats[0].labels, sub.wildcard, c.labels, want)
		}
		for _, l := range c.labels {
			if sym := symtab.Intern(l); len(sub.bySym[sym]) != 1 {
				t.Errorf("%s: label %q wakes %v, want the reaction", what, l, sub.bySym[sym])
			}
		}
		if steps := drain(t, what, r); steps != c.steps {
			t.Errorf("%s: %d steps, want %d", what, steps, c.steps)
		}
	}
}

// TestNarrowNegativeCasesStayGeneric: anything short of that shape can match
// an element outside the literals, so the pattern keeps the whole-multiset
// walk and the wildcard subscription, and finds those elements.
func TestNarrowNegativeCasesStayGeneric(t *testing.T) {
	for _, c := range []struct {
		name  string
		conds []string
		steps int64
	}{
		{"else branch", []string{"x1 == 'a'", ""}, 6},
		{"or with another test", []string{"x1 == 'a' or id1 > 3"}, 5},
		{"and with another test", []string{"(x1 == 'a' or x1 == 'b') and id1 > 1"}, 2},
		{"inequality", []string{"x1 != 'a'"}, 4},
		{"non-string literal", []string{"x1 == 3 or x1 == 'a'"}, 3},
		{"literal on the left", []string{"'a' == x1"}, 2},
		{"one branch unconstrained", []string{"x1 == 'a'", "id1 > 5"}, 4},
		{"another variable", []string{"x1 == 'a' or id1 == 'b'"}, 2},
	} {
		r := narrowReaction(c.conds...)
		k, sub := r.kernel(), buildSubscriptions([]*Reaction{r})
		if patternLabels(r, r.Patterns[0]) != nil || !k.generic || len(k.pats[0].labels) != 0 || len(sub.wildcard) != 1 || len(sub.bySym) != 0 {
			t.Errorf("%s: generic=%v labels=%v wildcard=%v bySym=%v, want generic", c.name, k.generic, k.pats[0].labels, sub.wildcard, sub.bySym)
		}
		if steps := drain(t, c.name, r); steps != c.steps {
			t.Errorf("%s: %d steps, want %d", c.name, steps, c.steps)
		}
	}
}

// TestNarrowSecondPattern: narrowing is per pattern — a literal-labeled
// pattern beside a narrowed one keeps its tag bucket, and a generic one beside
// it keeps the reaction in the wildcard bucket.
func TestNarrowSecondPattern(t *testing.T) {
	r := &Reaction{Name: "pair",
		Patterns: []Pattern{{FVar("a"), FLabel("L"), FVar("v")}, {FVar("b"), FVar("x"), FVar("v")}},
		Branches: []Branch{{Cond: expr.MustParse("x == 'p' or x == 'q'"),
			Products: []Template{{expr.MustParse("a + b"), expr.Lit{Val: value.Str("out")}, expr.MustParse("v")}}}}}
	k := r.kernel()
	if k.generic || len(k.pats[0].labels) != 1 || len(k.pats[1].labels) != 2 || k.pats[1].tagMode != tagSlot || len(buildSubscriptions([]*Reaction{r}).wildcard) != 0 {
		t.Fatalf("generic=%v labels=%v %v tagMode=%d", k.generic, k.pats[0].labels, k.pats[1].labels, k.pats[1].tagMode)
	}
	m, _ := multiset.Parse("{[1,'L',0], [2,'L',1], [10,'q',1], [20,'p',0], [30,'r',0], [40,'L',0]}")
	CheckCommits(t)
	matchesInterpreter(t, "pair", r, m)
	if st, err := Run(MustProgram("pair", r), m, Options{}); err != nil || st.Steps != 2 {
		t.Fatalf("%d steps, err %v", st.Steps, err)
	}
	if want := "{[12, 'out', 1], [21, 'out', 0], [30, 'r', 0], [40, 'L', 0]}"; m.String() != want {
		t.Errorf("stable state %s, want %s", m, want)
	}
	mixed := &Reaction{Name: "mixed", Patterns: []Pattern{r.Patterns[1], {FVar("y")}}, Branches: r.Branches[:1]}
	if k := mixed.kernel(); !k.generic || len(k.pats[0].labels) != 2 || len(buildSubscriptions([]*Reaction{mixed}).wildcard) != 1 {
		t.Errorf("mixed: generic=%v labels=%v, want a narrowed pattern in a generic reaction", k.generic, k.pats[0].labels)
	}
}
