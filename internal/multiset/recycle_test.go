package multiset

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/symtab"
	"repro/internal/value"
)

// TestRecycledEntryLayout pins the entry at 80 bytes: the seal mark and the
// key carve's capacity live in what was padding after hasTag.
func TestRecycledEntryLayout(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 80 {
		t.Fatalf("unsafe.Sizeof(entry{}) = %d, want 80", n)
	}
}

// seen is a tuple and key as a caller got them, with copies taken then.
type seen struct {
	t, want Tuple
	key     string
	wantKey string
}

func see(t Tuple, key string) seen {
	return seen{t, t.Clone(), key, strings.Clone(key)}
}

// churnFixture holds eight elements [100+i, 'L', i] and [9] bare, whose
// carves, if nothing sealed them, the commits of churn reuse.
func churnFixture() (*Multiset, []Tuple) {
	var ts []Tuple
	for i := int64(0); i < 8; i++ {
		ts = append(ts, IntElem(100+i, "L", i))
	}
	return New(append(ts, New1(value.Int(9)))...), ts
}

// churn commits n firings on m, each consuming the oldest element of label L
// it holds (live, in commit order) and producing one of the same shape and
// key length, so each product fits the carves the last commit freed.
func churn(t *testing.T, m *Multiset, live []Tuple, n int) []Tuple {
	t.Helper()
	for k := 0; k < n; k++ {
		p := IntElem(int64(100+(k*7)%900), "L", int64(k%8))
		if ok, _ := m.ApplyDelta(live[:1], nil, []Tuple{p}, nil); !ok {
			t.Fatalf("commit %d: %v not held", k, live[0])
		}
		live = append(live[1:], p)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("commit %d: %v", k, err)
		}
	}
	return live
}

// TestRecycledSealedSurfaces is the seal contract: every surface that hands
// tuples or keys out — Clone, ForEach, Snapshot, ByLabel, IterSym, IterSymTag
// and IterAllRot — seals what it hands, and so do String and Equal, which
// hand out nothing but read through ForEach: a tuple and key got before 1 000
// churn commits, each consuming an element and producing one that fits its
// carves, read byte-identical after them. A surface that did not seal lets the
// first commits' products overwrite them.
func TestRecycledSealedSurfaces(t *testing.T) {
	L := symtab.Intern("L")
	// through a read View, which does not seal: what String and Equal must
	viewed := func(m *Multiset) (out []seen) {
		var v View
		m.LockRead(&v)
		defer v.Unlock()
		v.EachAll(0, func(r Ref) bool { out = append(out, see(r.Tuple(), r.e.key)); return true })
		return out
	}
	for name, get := range map[string]func(m *Multiset) []seen{
		"ForEach": func(m *Multiset) (out []seen) {
			m.ForEach(func(t Tuple, _ int) bool { out = append(out, see(t, "")); return true })
			return out
		},
		"Snapshot": func(m *Multiset) (out []seen) {
			for _, c := range m.Snapshot() {
				out = append(out, see(c.Tuple, c.Key))
			}
			return out
		},
		"ByLabel": func(m *Multiset) (out []seen) {
			for _, c := range m.ByLabel("L") {
				out = append(out, see(c.Tuple, c.Key))
			}
			return out
		},
		"IterSym": func(m *Multiset) (out []seen) {
			m.IterSym(L, func(t Tuple, _ int, key string) bool { out = append(out, see(t, key)); return true })
			return out
		},
		"IterSymTag": func(m *Multiset) (out []seen) {
			for tag := int64(0); tag < 8; tag++ {
				m.IterSymTag(L, tag, func(t Tuple, _ int, key string) bool { out = append(out, see(t, key)); return true })
			}
			return out
		},
		"IterAllRot": func(m *Multiset) (out []seen) {
			m.IterAllRot(3, func(t Tuple, _ int, key string) bool { out = append(out, see(t, key)); return true })
			return out
		},
		"String": func(m *Multiset) []seen {
			out := viewed(m)
			_ = m.String()
			return out
		},
		"Equal": func(m *Multiset) []seen {
			out := viewed(m)
			if o, _ := churnFixture(); !m.Equal(o) {
				t.Fatal("the fixture differs from itself")
			}
			return out
		},
	} {
		m, live := churnFixture()
		got := get(m)
		if len(got) < 8 {
			t.Fatalf("%s: handed out %d elements", name, len(got))
		}
		churn(t, m, live, 1000)
		for _, s := range got {
			if !s.t.Equal(s.want) || s.key != s.wantKey {
				t.Errorf("%s: a handed-out element reads %v %q after the churn, was %v %q", name, s.t, s.key, s.want, s.wantKey)
			}
		}
	}
}

// TestRecycledCloneShares holds Clone to the contract from both sides: the
// source's churn never reuses the carves the copy shares, and the copy's churn
// never reuses them either, since they are not its own.
func TestRecycledCloneShares(t *testing.T) {
	m, live := churnFixture()
	c := m.Clone()
	want := c.String()
	churn(t, m, live, 1000)
	if got := c.String(); got != want {
		t.Fatalf("the source's churn changed its clone:\n got %s\nwant %s", got, want)
	}
	m, live = churnFixture()
	c = m.Clone()
	want = m.String()
	churn(t, c, live, 1000)
	if got := m.String(); got != want {
		t.Fatalf("the clone's churn changed its source:\n got %s\nwant %s", got, want)
	}
}

// TestRecycledCommitKeepsConsumed is the engine's use of a commit: the
// consumed tuples a View handed the matcher are read after View.Commit
// returns (a schedule recorder gets them), so a commit's products must not
// reuse the carves it frees — only the next commit's may. Each of 1 000
// commits consumes the two elements under L and produces two of the same
// shape; the consumed tuples must read as they did when chosen, and from the
// second commit on the arena must not grow: the carves do come back.
func TestRecycledCommitKeepsConsumed(t *testing.T) {
	m := New(IntElem(10, "L", 0), IntElem(11, "L", 0))
	L := symtab.Intern("L")
	var arena int64
	for k := 0; k < 1000; k++ {
		var v View
		m.LockWrite(&v)
		var refs []Ref
		var chosen []seen
		v.EachSym(L, 0, func(r Ref) bool {
			refs, chosen = append(refs, r), append(chosen, see(r.Tuple(), ""))
			return true
		})
		tag := int64(k%9 + 1) // keys of one length: each fits the carves freed
		dl := Delta{Refs: refs, Produce: []Tuple{IntElem(20+int64(k%70), "L", tag), IntElem(90+tag, "L", tag)}}
		if _, ok, _ := v.Commit(&dl, true, nil); !ok || len(chosen) != 2 {
			t.Fatalf("commit %d: ok %v, %d chosen", k, ok, len(chosen))
		}
		for _, s := range chosen {
			if !s.t.Equal(s.want) {
				t.Fatalf("commit %d: a consumed tuple reads %v after its commit, was %v", k, s.t, s.want)
			}
		}
		if err := v.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		v.Unlock()
		if k == 1 {
			arena = m.ArenaBytes()
		}
	}
	if m.ArenaBytes() != arena {
		t.Errorf("the arena grew from %d to %d B over 1 000 renames of two elements", arena, m.ArenaBytes())
	}
}

// TestRecycledChurnDifferential drives random commits — key-addressed and by
// handle, annihilating and growing, with Adds and the occasional sealing read
// — against a sorted-slice model, with CheckInvariants after every commit.
// Every tuple and key a sealing surface handed out is held to its copy until
// the end.
func TestRecycledChurnDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var universe []Tuple
	for v := int64(0); v < 6; v++ {
		for _, label := range []string{"a", "bb", "ccc"} {
			for tag := int64(0); tag < 3; tag++ {
				universe = append(universe, IntElem(v*int64(1+9*rng.Intn(3)), label, tag))
			}
		}
		universe = append(universe, New1(value.Int(v)), Pair(value.Int(v), "a"))
	}
	var model []string // keys, ascending
	insert := func(t Tuple) {
		k := t.Key()
		i, _ := slices.BinarySearch(model, k)
		model = slices.Insert(model, i, k)
	}
	m := New()
	var handed []seen
	for step := 0; step < 4000; step++ {
		pick := func() Tuple { return universe[rng.Intn(len(universe))] }
		switch op := rng.Intn(10); {
		case op == 0:
			t0 := pick()
			m.Add(t0)
			insert(t0)
		case op == 1 && len(handed) < 400:
			m.IterAllRot(rng.Uint64(), func(t Tuple, _ int, key string) bool { handed = append(handed, see(t, key)); return true })
		default:
			var consume, produce []Tuple
			held := slices.Clone(model)
			for n := rng.Intn(3); n > 0 && len(held) > 0; n-- {
				i := rng.Intn(len(held))
				consume = append(consume, elemOf(t, m, held[i]))
				held = slices.Delete(held, i, i+1)
			}
			for n := rng.Intn(3); n > 0; n-- {
				produce = append(produce, pick())
			}
			var ok bool
			if op%2 == 0 {
				ok, _ = m.ApplyDelta(consume, nil, produce, nil)
			} else {
				ok = consumeByRef(m, refsOf(m, consume), produce...)
			}
			if !ok {
				t.Fatalf("step %d: commit of %v refused", step, consume)
			}
			model = held
			for _, p := range produce {
				insert(p)
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if m.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, m.Len(), len(model))
		}
		for _, u := range universe {
			k := u.Key()
			i, _ := slices.BinarySearch(model, k)
			j := i
			for j < len(model) && model[j] == k {
				j++
			}
			if m.Count(u) != j-i {
				t.Fatalf("step %d: Count(%v) = %d, model %d", step, u, m.Count(u), j-i)
			}
		}
	}
	for _, s := range handed {
		if !s.t.Equal(s.want) || s.key != s.wantKey {
			t.Fatalf("a handed-out element reads %v %q, was %v %q", s.t, s.key, s.want, s.wantKey)
		}
	}
}

// elemOf returns the tuple m holds under key, read through a non-sealing
// View and copied, so the commit that consumes it sees the caller's tuple.
func elemOf(t *testing.T, m *Multiset, key string) Tuple {
	t.Helper()
	var v View
	m.LockRead(&v)
	defer v.Unlock()
	var out Tuple
	v.EachAll(0, func(r Ref) bool {
		if r.e.key == key {
			out = r.Tuple().Clone()
		}
		return out == nil
	})
	if out == nil {
		t.Fatalf("model key %q not held", key)
	}
	return out
}
