package gamma

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/value"
)

// mapMemo is a minimal in-package Memo for testing the runtime's memo paths
// (the production table lives in internal/reuse).
type mapMemo map[string][]multiset.Tuple

func (m mapMemo) LookupReaction(key string) ([]multiset.Tuple, bool) {
	p, ok := m[key]
	return p, ok
}
func (m mapMemo) StoreReaction(key string, products []multiset.Tuple) { m[key] = products }

// applyMatch probes r on m and applies the action through the kernel path,
// mirroring the step loop's probe + applyAction sequence.
func applyMatch(t *testing.T, r *Reaction, m *multiset.Multiset, opt Options, stats *Stats) ([]multiset.Tuple, error) {
	t.Helper()
	s := newSearcher(r)
	if !s.probe(m, nil) {
		t.Fatalf("no match (err %v)", s.err)
	}
	w := &worker{opt: opt, stats: stats}
	return w.applyAction(r, s)
}

func TestMemoPlanShapes(t *testing.T) {
	// Triplet patterns sharing a tag var, no tag in conditions: maskable.
	maskable := &Reaction{
		Name: "m",
		Patterns: []Pattern{
			{FVar("a"), FLabel("L"), FVar("v")},
			{FVar("b"), FLabel("R"), FVar("v")},
		},
		Branches: []Branch{{
			Cond: expr.MustParse("a > 0"),
			Products: []Template{{
				expr.MustParse("a + b"), expr.Lit{Val: value.Str("O")}, expr.MustParse("v + 1"),
			}},
		}},
	}
	plan := maskable.memoPlan()
	if plan.tagVar != "v" {
		t.Fatalf("tagVar = %q, want v", plan.tagVar)
	}
	if !plan.mask[0][2] || !plan.mask[1][2] || plan.mask[0][0] {
		t.Errorf("mask = %v", plan.mask)
	}
	if !plan.reeval[0][0][2] || plan.reeval[0][0][0] {
		t.Errorf("reeval = %v", plan.reeval)
	}
	// The plan is computed once.
	if maskable.memoPlan() != plan {
		t.Error("plan not cached")
	}

	// Tag read by a condition: exact-key mode.
	condTag := &Reaction{
		Name:     "c",
		Patterns: []Pattern{{FVar("a"), FLabel("L"), FVar("v")}},
		Branches: []Branch{{Cond: expr.MustParse("v < 3"), Products: nil}},
	}
	if condTag.memoPlan().tagVar != "" {
		t.Error("tag in condition must disable masking")
	}

	// Pair patterns: no tag position, exact-key mode.
	pair := &Reaction{
		Name:     "p",
		Patterns: []Pattern{{FVar("a"), FLabel("L")}},
		Branches: []Branch{{Products: nil}},
	}
	if pair.memoPlan().tagVar != "" {
		t.Error("pair patterns must disable masking")
	}

	// Two different tag variables: exact-key mode.
	twoTags := &Reaction{
		Name: "t",
		Patterns: []Pattern{
			{FVar("a"), FLabel("L"), FVar("v")},
			{FVar("b"), FLabel("R"), FVar("w")},
		},
		Branches: []Branch{{Products: nil}},
	}
	if twoTags.memoPlan().tagVar != "" {
		t.Error("distinct tag vars must disable masking")
	}
}

func TestApplyActionMemoMaskedHit(t *testing.T) {
	r := &Reaction{
		Name:     "inc",
		Patterns: []Pattern{{FVar("x"), FLabel("a"), FVar("v")}},
		Branches: []Branch{{Products: []Template{{
			expr.MustParse("x * 10"), expr.Lit{Val: value.Str("b")}, expr.MustParse("v + 1"),
		}}}},
	}
	memo := mapMemo{}
	stats := newStats(1)
	m1 := multiset.New(multiset.IntElem(7, "a", 0))
	p1, err := applyMatch(t, r, m1, Options{Memo: memo}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != 1 || !p1[0].Equal(multiset.IntElem(70, "b", 1)) {
		t.Fatalf("first products = %v", p1)
	}
	if stats.MemoHits != 0 {
		t.Error("first application cannot hit")
	}
	// Same value, different tag: masked key must hit and refresh the tag.
	m2 := multiset.New(multiset.IntElem(7, "a", 5))
	p2, err := applyMatch(t, r, m2, Options{Memo: memo}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MemoHits != 1 {
		t.Errorf("hits = %d, want 1", stats.MemoHits)
	}
	if len(p2) != 1 || !p2[0].Equal(multiset.IntElem(70, "b", 6)) {
		t.Errorf("refreshed products = %v, want [70,'b',6]", p2)
	}
	// Different value: miss.
	m3 := multiset.New(multiset.IntElem(9, "a", 5))
	p3, err := applyMatch(t, r, m3, Options{Memo: memo}, stats)
	if err != nil || !p3[0].Equal(multiset.IntElem(90, "b", 6)) {
		t.Errorf("different value products = %v (%v)", p3, err)
	}
	if stats.MemoHits != 1 {
		t.Errorf("hits = %d after distinct value, want still 1", stats.MemoHits)
	}
}

func TestApplyActionExactModeReusesVerbatim(t *testing.T) {
	// Pair elements: exact-key mode returns stored products untouched.
	r := &Reaction{
		Name:     "pairs",
		Patterns: []Pattern{{FVar("x"), FLabel("a")}},
		Branches: []Branch{{Products: []Template{{
			expr.MustParse("x + 1"), expr.Lit{Val: value.Str("b")},
		}}}},
	}
	memo := mapMemo{}
	stats := newStats(1)
	m := multiset.New(multiset.Pair(value.Int(3), "a"))
	if _, err := applyMatch(t, r, m, Options{Memo: memo}, stats); err != nil {
		t.Fatal(err)
	}
	m2 := multiset.New(multiset.Pair(value.Int(3), "a"))
	p, err := applyMatch(t, r, m2, Options{Memo: memo}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MemoHits != 1 || len(p) != 1 || !p[0].Equal(multiset.Pair(value.Int(4), "b")) {
		t.Errorf("exact-mode hit: %v, hits=%d", p, stats.MemoHits)
	}
}

func TestApplyActionMemoBranchSelection(t *testing.T) {
	// Memo must replay the branch that fired, not re-decide: two values
	// selecting different branches get different keys and products.
	r := &Reaction{
		Name:     "gate",
		Patterns: []Pattern{{FVar("x"), FLabel("a"), FVar("v")}},
		Branches: []Branch{
			{Cond: expr.MustParse("x > 0"), Products: []Template{{
				expr.MustParse("x"), expr.Lit{Val: value.Str("pos")}, expr.MustParse("v"),
			}}},
			{Products: []Template{{
				expr.MustParse("x"), expr.Lit{Val: value.Str("neg")}, expr.MustParse("v"),
			}}},
		},
	}
	memo := mapMemo{}
	stats := newStats(1)
	apply := func(x, tag int64) multiset.Tuple {
		m := multiset.New(multiset.IntElem(x, "a", tag))
		p, err := applyMatch(t, r, m, Options{Memo: memo}, stats)
		if err != nil {
			t.Fatal(err)
		}
		return p[0]
	}
	if got := apply(5, 0); !got.Equal(multiset.IntElem(5, "pos", 0)) {
		t.Errorf("pos = %v", got)
	}
	if got := apply(-5, 0); !got.Equal(multiset.IntElem(-5, "neg", 0)) {
		t.Errorf("neg = %v", got)
	}
	// Hits replay the right branches at a new tag.
	if got := apply(5, 9); !got.Equal(multiset.IntElem(5, "pos", 9)) {
		t.Errorf("pos replay = %v", got)
	}
	if got := apply(-5, 9); !got.Equal(multiset.IntElem(-5, "neg", 9)) {
		t.Errorf("neg replay = %v", got)
	}
	if stats.MemoHits != 2 {
		t.Errorf("hits = %d, want 2", stats.MemoHits)
	}
}

func TestSpinZeroAndNegative(t *testing.T) {
	spin(0)
	spin(-5)
	spin(3) // just exercise the loop
}

func TestPatternMatchEdgeCases(t *testing.T) {
	env := make(expr.MapEnv)
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
