package gamma

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/symtab"
	"repro/internal/value"
)

// firings fires r on m until it is disabled, one search and one commit at a
// time on the kernel matcher — the claim tracker deciding, within each search,
// which occurrences the earlier patterns hold — and returns the consumed
// tuples of every firing.
func firings(t *testing.T, r *Reaction, m *multiset.Multiset, rng *rand.Rand) [][]multiset.Tuple {
	t.Helper()
	k := r.kernel()
	s := newSearcher(r, new(multiset.View))
	var out [][]multiset.Tuple
	for {
		ok := s.probe(m, rng)
		if s.err != nil {
			t.Fatal(s.err)
		}
		if !ok {
			return out
		}
		_, prods, err := k.produceInto(r.Name, s.branch, s.env, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		chosen := append([]multiset.Tuple(nil), s.chosen...)
		m.LockWrite(s.view)
		_, ok, _ = s.view.Commit(&multiset.Delta{Consume: chosen, Refs: s.refs(), Produce: prods}, false, nil)
		if s.view.Unlock(); !ok {
			t.Fatalf("%s on %s: the firing's own handles failed their claim", r.Name, m)
		}
		out = append(out, chosen)
	}
}

// firingsOracle is firings on the interpreted matcher with the claim tracker
// the kernel replaced: a map[string]int of the occurrences a search holds. rng
// must be seeded like the kernel's so each search walks the multiset from the
// same rotation.
func firingsOracle(t *testing.T, r *Reaction, m *multiset.Multiset, rng *rand.Rand) [][]multiset.Tuple {
	t.Helper()
	var out [][]multiset.Tuple
	for {
		var cands []multiset.Counted
		m.IterAllRot(rng.Uint64(), func(tp multiset.Tuple, n int, key string) bool {
			cands = append(cands, multiset.Counted{Tuple: tp, N: n, Key: key})
			return true
		})
		s := &oracleSearcher{r: r, rotCands: cands, env: make(bindings), used: make(map[string]int),
			chosen: make([]multiset.Tuple, len(r.Patterns))}
		if !s.search(0) {
			if s.err != nil {
				t.Fatal(s.err)
			}
			return out
		}
		prods, err := r.produce(s.branch, s.env)
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := m.ApplyDelta(s.chosen, nil, prods, nil); !ok {
			t.Fatalf("%s on %s: the reference's firing failed its claim", r.Name, m)
		}
		out = append(out, s.chosen)
	}
}

// TestClaimTrackerMatchesMapReference is the claim tracker's differential:
// on reactions whose matches are decided by multiplicity — the same variable
// in two patterns over elements present once, twice or three times; three
// patterns over two distinct keys; Eq. 2 over duplicates — every firing to
// the stable state must choose exactly what the map-tracked reference chooses,
// and the two must end on the same multiset.
func TestClaimTrackerMatchesMapReference(t *testing.T) {
	one := func(name string) Pattern { return Pattern{FVar(name)} }
	reactions := []*Reaction{
		{Name: "same", Patterns: []Pattern{one("x"), one("x")},
			Branches: []Branch{{Products: []Template{{expr.MustParse("x + 100")}}}}},
		{Name: "triple", Patterns: []Pattern{one("x"), one("y"), one("z")},
			Branches: []Branch{{Cond: expr.MustParse("x <= y and y <= z"), Products: []Template{{expr.MustParse("x")}}}}},
		minReaction(),
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := reactions[seed%int64(len(reactions))]
		distinct := 2
		if r.Name != "triple" {
			distinct += rng.Intn(5)
		}
		init := multiset.New()
		for i := 0; i < distinct; i++ {
			init.AddN(multiset.New1(value.Int(int64(rng.Intn(50)))), 1+rng.Intn(3))
		}
		gm, wm := init.Clone(), init.Clone()
		got := firings(t, r, gm, rand.New(rand.NewSource(seed)))
		want := firingsOracle(t, r, wm, rand.New(rand.NewSource(seed)))
		if len(got) != len(want) {
			t.Fatalf("seed %d: %s on %s: %d firings, reference %d", seed, r.Name, init, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if !got[i][j].Equal(want[i][j]) {
					t.Fatalf("seed %d: %s on %s: firing %d chose %v, reference %v",
						seed, r.Name, init, i, got[i], want[i])
				}
			}
		}
		if !gm.Equal(wm) || gm.CheckInvariants() != nil {
			t.Fatalf("seed %d: %s on %s: ended on %s, reference %s", seed, r.Name, init, gm, wm)
		}
	}
}

// TestHandleSameEntryThroughTwoWalks: one search can reach one entry twice, by
// its label's list and by its (label, tag) bucket, and the two handles carry
// different slots. The claim tracker must hold them for one occurrence: on
// six elements under six tags, `[x, 'B', t], [y, 'B', t]` has no match.
func TestHandleSameEntryThroughTwoWalks(t *testing.T) {
	CheckCommits(t)
	m := multiset.New()
	for i := int64(1); i <= 6; i++ {
		m.Add(multiset.IntElem(i, "B", i)) // past the bucket threshold
	}
	sym := symtab.Intern("B")
	var byList, byTag []multiset.Ref
	var v multiset.View
	m.LockRead(&v)
	v.EachSym(sym, 0, func(r multiset.Ref) bool { byList = append(byList, r); return true })
	v.EachSymTag(sym, 2, 0, func(r multiset.Ref) bool { byTag = append(byTag, r); return true })
	v.Unlock()
	if len(byTag) != 1 || byTag[0] == byList[1] || !byTag[0].Same(byList[1]) {
		t.Fatalf("fixture: [2, 'B', 2] should be one element met at two slots: list %v, bucket %v", byList, byTag)
	}
	pat := func(v string) Pattern { return Pattern{FVar(v), FLabel("B"), FVar("t")} }
	r := &Reaction{Name: "pair", Patterns: []Pattern{pat("x"), pat("y")},
		Branches: []Branch{{Products: []Template{{expr.MustParse("x + y"), expr.MustParse("'C'"), expr.MustParse("t")}}}}}
	if match, err := FindMatch(r, m, nil); match != nil || err != nil {
		t.Fatalf("one occurrence matched twice: %v (%v)", match, err)
	}
	if st, err := Run(MustProgram("pair", r), m, Options{}); err != nil || st.Steps != 0 || m.Len() != 6 {
		t.Fatalf("run: %v, %v, %s", st, err, m)
	}
}

// TestConditionPanicReleasesReadSession: no lock outlives a probe. A
// condition that panics mid-search is recovered into *rt.PanicError by both
// engines; the probe's read lock must be gone by then, or the next
// writer blocks forever.
func TestConditionPanicReleasesReadSession(t *testing.T) {
	for _, workers := range []int{1, 2} {
		r := minReaction()
		cond := r.kernel().branches[0].cond
		var evals atomic.Int32
		r.kernel().branches[0].cond = func(env []value.Value) (bool, error) {
			if evals.Add(1) == 3 {
				panic("condition blew up")
			}
			return cond(env)
		}
		m := intsMultiset(9, 4, 7, 1, 8, 3)
		_, err := Run(MustProgram("min", r), m, Options{Workers: workers, Seed: 1})
		var pe *rt.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v (%T), want *rt.PanicError", workers, err, err)
		}
		done := make(chan struct{})
		go func() {
			m.Add(multiset.New1(value.Int(0)))
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("workers=%d: Add after the recovered panic blocked: a probe's read lock leaked", workers)
		}
	}
}
