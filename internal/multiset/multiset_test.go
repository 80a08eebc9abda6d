package multiset

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestTupleAccessors(t *testing.T) {
	e := IntElem(7, "A1", 2)
	if e.Value() != value.Int(7) {
		t.Errorf("Value = %s", e.Value())
	}
	if l, ok := e.Label(); !ok || l != "A1" {
		t.Errorf("Label = %q, %v", l, ok)
	}
	if tag, ok := e.Tag(); !ok || tag != 2 {
		t.Errorf("Tag = %d, %v", tag, ok)
	}
	p := Pair(value.Int(1), "B2")
	if _, ok := p.Tag(); ok {
		t.Error("pair should have no tag")
	}
	one := New1(value.Int(9))
	if _, ok := one.Label(); ok {
		t.Error("1-tuple should have no label")
	}
	if (Tuple{}).Value().IsValid() {
		t.Error("empty tuple Value should be invalid")
	}
	// Non-string second field is not a label; non-int third field is not a tag.
	odd := Tuple{value.Int(1), value.Int(2), value.Str("x")}
	if _, ok := odd.Label(); ok {
		t.Error("int second field is not a label")
	}
	odd2 := Tuple{value.Int(1), value.Str("L"), value.Str("x")}
	if _, ok := odd2.Tag(); ok {
		t.Error("string third field is not a tag")
	}
}

func TestTupleEqualCloneKey(t *testing.T) {
	a := IntElem(1, "A1", 0)
	b := IntElem(1, "A1", 0)
	c := IntElem(1, "A1", 1)
	if !a.Equal(b) || a.Equal(c) || a.Equal(a[:2]) {
		t.Error("Equal misbehaves")
	}
	if a.Key() != b.Key() || a.Key() == c.Key() {
		t.Error("Key misbehaves")
	}
	// Int(2) vs Float(2) must produce distinct keys.
	ti := Tuple{value.Int(2)}
	tf := Tuple{value.Float(2)}
	if ti.Key() == tf.Key() {
		t.Error("Int(2) and Float(2) keys collide")
	}
	cl := a.Clone()
	cl[0] = value.Int(99)
	if a[0] != value.Int(1) {
		t.Error("Clone is not independent")
	}
}

// TestFloatElementIdentity: two tuples are the same element exactly when their
// keys agree, and Tuple.Equal says so too — -0 and +0 are two elements, ±Inf
// two more, and every NaN one, whatever its bits.
func TestFloatElementIdentity(t *testing.T) {
	zero := 0.0
	negZero, posZero := Elem(value.Float(math.Copysign(0, -1)), "F", 0), Elem(value.Float(0), "F", 0)
	inf, ninf := Elem(value.Float(math.Inf(1)), "F", 0), Elem(value.Float(math.Inf(-1)), "F", 0)
	nan1, nan2 := Elem(value.Float(math.NaN()), "F", 0), Elem(value.Float(zero/zero), "F", 0)
	for _, c := range []struct {
		name string
		a, b Tuple
		same bool
	}{
		{"-0 vs +0", negZero, posZero, false},
		{"+Inf vs -Inf", inf, ninf, false},
		{"+Inf vs +Inf", inf, Elem(value.Float(math.Inf(1)), "F", 0), true},
		{"NaN vs 0/0", nan1, nan2, true},
	} {
		if got := c.a.Equal(c.b); got != c.same {
			t.Errorf("%s: Tuple.Equal = %v, want %v", c.name, got, c.same)
		}
		if got := c.a[0] == c.b[0]; got != c.same {
			t.Errorf("%s: == = %v, want %v", c.name, got, c.same)
		}
		if got := c.a.Key() == c.b.Key(); got != c.same {
			t.Errorf("%s: keys %q, %q agree = %v, want %v", c.name, c.a.Key(), c.b.Key(), got, c.same)
		}
	}
	m := New(negZero, posZero, inf, ninf, nan1, nan2)
	if m.Count(nan1) != 2 || m.Count(nan2) != 2 || m.Count(negZero) != 1 || m.Count(posZero) != 1 {
		t.Errorf("counts NaN %d/%d, -0 %d, +0 %d; want 2/2, 1, 1",
			m.Count(nan1), m.Count(nan2), m.Count(negZero), m.Count(posZero))
	}
	if m.Distinct() != 5 {
		t.Errorf("%s holds %d distinct elements, want 5", m, m.Distinct())
	}
}

func TestTupleString(t *testing.T) {
	e := IntElem(1, "A1", 0)
	if got := e.String(); got != "[1, 'A1', 0]" {
		t.Errorf("String = %q", got)
	}
}

func TestTupleCompare(t *testing.T) {
	a := IntElem(1, "A1", 0)
	b := IntElem(1, "A2", 0)
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Error("Compare ordering wrong")
	}
	short := Tuple{value.Int(1)}
	if short.Compare(a) >= 0 || a.Compare(short) <= 0 {
		t.Error("shorter tuple should order first")
	}
	// Kind ordering: Int < Float in Kind enumeration.
	ti, tf := Tuple{value.Int(2)}, Tuple{value.Float(2)}
	if ti.Compare(tf) >= 0 {
		t.Error("int should order before float")
	}
}

// TestParseTuple: the literal scanner reads one element's fields in place.
func TestParseTuple(t *testing.T) {
	parse := func(src string) (Tuple, error) {
		ts, err := parseElems("{"+src+"}", new(arena))
		if err != nil || len(ts) != 1 {
			return nil, fmt.Errorf("%d elements, %v", len(ts), err)
		}
		return ts[0], nil
	}
	got, err := parse("[1, 'A1', 0]")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(IntElem(1, "A1", 0)) || cap(got) != 3 {
		t.Errorf("parsed %s, cap %d", got, cap(got))
	}
	// String containing a comma must not split.
	got2, err := parse("['a,b', 2]")
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(Tuple{value.Str("a,b"), value.Int(2)}) {
		t.Errorf("comma-in-string parsed as %s", got2)
	}
	for _, bad := range []string{"", "[]", "1, 2", "[1, @]", "[1"} {
		if _, err := parse(bad); err == nil {
			t.Errorf("element %q should error", bad)
		}
	}
}

func TestAddRemoveCount(t *testing.T) {
	m := New()
	e := IntElem(1, "A1", 0)
	if m.Contains(e) || m.Len() != 0 {
		t.Error("new multiset should be empty")
	}
	m.Add(e)
	m.AddN(e, 2)
	if m.Count(e) != 3 || m.Len() != 3 || m.Distinct() != 1 {
		t.Errorf("after adds: count=%d len=%d distinct=%d", m.Count(e), m.Len(), m.Distinct())
	}
	if !m.Remove(e) || m.Count(e) != 2 {
		t.Error("Remove failed")
	}
	m.Remove(e)
	m.Remove(e)
	if m.Remove(e) {
		t.Error("Remove on absent element should fail")
	}
	if m.Len() != 0 || m.Distinct() != 0 {
		t.Errorf("should be empty: len=%d distinct=%d", m.Len(), m.Distinct())
	}
}

func TestAddNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddN(t, 0) should panic")
		}
	}()
	New().AddN(IntElem(1, "A", 0), 0)
}

func TestNewWithInitialAndAddAll(t *testing.T) {
	m := New(IntElem(1, "A1", 0), IntElem(5, "B1", 0))
	m.AddAll([]Tuple{IntElem(3, "C1", 0), IntElem(2, "D1", 0)})
	if m.Len() != 4 {
		t.Errorf("len = %d", m.Len())
	}
	if m.String() != "{[1, 'A1', 0], [2, 'D1', 0], [3, 'C1', 0], [5, 'B1', 0]}" {
		t.Errorf("String = %s", m)
	}
}

func TestByLabelAndByLabelTag(t *testing.T) {
	m := New(
		IntElem(1, "A1", 0), IntElem(2, "A1", 1), IntElem(3, "B1", 0),
	)
	m.Add(IntElem(1, "A1", 0)) // multiplicity 2

	a1 := m.ByLabel("A1")
	total := 0
	for _, c := range a1 {
		total += c.N
	}
	if len(a1) != 2 || total != 3 {
		t.Errorf("ByLabel(A1): distinct=%d total=%d", len(a1), total)
	}
	tagged := m.ByLabelTag("A1", 0)
	if len(tagged) != 1 || tagged[0].N != 2 || !tagged[0].Tuple.Equal(IntElem(1, "A1", 0)) {
		t.Errorf("ByLabelTag(A1,0) = %v", tagged)
	}
	if got := m.ByLabelTag("A1", 5); len(got) != 0 {
		t.Errorf("ByLabelTag(A1,5) = %v", got)
	}
	if got := m.ByLabel("ZZ"); len(got) != 0 {
		t.Errorf("ByLabel(ZZ) = %v", got)
	}
	// Index maintenance after removal.
	m.Remove(IntElem(1, "A1", 0))
	m.Remove(IntElem(1, "A1", 0))
	if got := m.ByLabelTag("A1", 0); len(got) != 0 {
		t.Errorf("index not cleaned after removal: %v", got)
	}
}

func TestTryRemoveAll(t *testing.T) {
	m := New(IntElem(1, "A1", 0), IntElem(5, "B1", 0))
	ok := m.TryRemoveAll([]Tuple{IntElem(1, "A1", 0), IntElem(5, "B1", 0)})
	if !ok || m.Len() != 0 {
		t.Errorf("TryRemoveAll failed: ok=%v len=%d", ok, m.Len())
	}
	// All-or-nothing on partial availability.
	m = New(IntElem(1, "A1", 0))
	ok = m.TryRemoveAll([]Tuple{IntElem(1, "A1", 0), IntElem(5, "B1", 0)})
	if ok || m.Len() != 1 {
		t.Errorf("partial TryRemoveAll should fail atomically: ok=%v len=%d", ok, m.Len())
	}
	// Duplicates need sufficient multiplicity.
	m = New(IntElem(1, "A1", 0))
	dup := []Tuple{IntElem(1, "A1", 0), IntElem(1, "A1", 0)}
	if m.TryRemoveAll(dup) {
		t.Error("should fail: needs multiplicity 2")
	}
	m.Add(IntElem(1, "A1", 0))
	if !m.TryRemoveAll(dup) || m.Len() != 0 {
		t.Error("should succeed with multiplicity 2")
	}
	if !m.TryRemoveAll(nil) {
		t.Error("empty TryRemoveAll should succeed")
	}
}

func TestSnapshotExpandCloneEqual(t *testing.T) {
	m := New(IntElem(1, "A1", 0), IntElem(5, "B1", 0))
	m.Add(IntElem(1, "A1", 0))
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].N != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	if snap[0].N+snap[1].N != 3 || m.Len() != 3 {
		t.Errorf("snapshot counts %v, Len %d, want 3 elements", snap, m.Len())
	}
	c := m.Clone()
	if !c.Equal(m) {
		t.Error("clone should equal original")
	}
	c.Add(IntElem(9, "Z", 0))
	if c.Equal(m) || m.Equal(c) {
		t.Error("clone should now differ")
	}
	d := m.Clone()
	d.Remove(IntElem(1, "A1", 0))
	d.Add(IntElem(5, "B1", 0))
	if m.Equal(d) {
		t.Error("same Len different content should differ")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		m.Add(IntElem(int64(i), fmt.Sprintf("L%d", i), 0))
	}
	seen := 0
	m.ForEach(func(Tuple, int) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Errorf("early stop saw %d", seen)
	}
}

func TestParseMultiset(t *testing.T) {
	m, err := Parse("{[1, 'A1', 0], [5, 'B1', 0], [1, 'A1', 0]}")
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 || m.Count(IntElem(1, "A1", 0)) != 2 {
		t.Errorf("parsed %s", m)
	}
	empty, err := Parse("{}")
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty parse: %v %v", empty, err)
	}
	for _, bad := range []string{"", "[1]", "{[1],}", "{[}", "{[1, @]}"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should error", bad)
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	m := New(IntElem(1, "A1", 0), IntElem(5, "B1", 0), Pair(value.Str("s"), "C"))
	m.Add(IntElem(1, "A1", 0))
	got, err := Parse(m.String())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Errorf("round trip: %s vs %s", got, m)
	}
}

// TestParseQuotedBrackets: String prints label text bare between quotes, so
// the element splitter must treat brackets and commas inside a quoted field as
// text. Before the fix "{[1, 'a]b']}" failed as unbracketed and 'e[f' swallowed
// the next element.
func TestParseQuotedBrackets(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []Tuple
	}{
		{"{[1, 'a]b']}", []Tuple{Pair(value.Int(1), "a]b")}},
		{"{[1, 'e[f'], [2, 'g']}", []Tuple{Pair(value.Int(1), "e[f"), Pair(value.Int(2), "g")}},
		{"{[1, 'a,b'], [2, '],[']}", []Tuple{Pair(value.Int(1), "a,b"), Pair(value.Int(2), "],[")}},
		{`{[1, 'say "hi"', 0], [2, "it's", 0]}`, []Tuple{IntElem(1, `say "hi"`, 0), IntElem(2, "it's", 0)}},
		{`{[']'], ["["], [',']}`, []Tuple{New1(value.Str("]")), New1(value.Str("[")), New1(value.Str(","))}},
	} {
		got, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%s): %v", c.src, err)
			continue
		}
		if want := New(c.want...); !got.Equal(want) {
			t.Errorf("Parse(%s) = %s, want %s", c.src, got, want)
		}
	}
	// Every label String can print round-trips: one holding a single quote
	// prints double-quoted (only a label holding both quote characters has no
	// literal form).
	for _, label := range []string{"]", "[", ",", "a]b", "e[f", "[,]", "],[", `"`, `x"]"y`, "} {", " pad ", "a'b", "'", "it's, [so]"} {
		m := New(Pair(value.Int(1), label), IntElem(2, label, 7), Pair(value.Int(3), "plain"))
		m.Add(Pair(value.Int(1), label))
		got, err := Parse(m.String())
		if err != nil {
			t.Errorf("label %q: Parse(%s): %v", label, m, err)
		} else if !got.Equal(m) {
			t.Errorf("label %q: round trip %s vs %s", label, got, m)
		}
	}
	// Non-finite floats print by strconv's names, which Parse reads back; the
	// multiset keys elements by rendering, so NaN is one element like any other.
	nonFinite := New(Elem(value.Float(math.NaN()), "L", 0), Elem(value.Float(math.Inf(1)), "L", 0),
		Elem(value.Float(math.Inf(-1)), "L", 0), Elem(value.Float(math.NaN()), "L", 0))
	if got, err := Parse(nonFinite.String()); err != nil || !got.Equal(nonFinite) || got.Len() != 4 {
		t.Errorf("non-finite round trip: Parse(%s) = %v, %v", nonFinite, got, err)
	}
	for _, bad := range []string{"{[1, 'a]}", "{[1, 'a'], [2, 'b}", "{[1], 'x'}", "{[NaN.0, 'L', 0]}", "{['a'b', 'L', 0]}"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should error", bad)
		}
	}
}

// FuzzParse feeds the multiset literal parser — gammad's init field, so a
// hostile-input path — arbitrary text: it must never panic, whatever it
// accepts must be what one Add per element builds (checkParseMatchesAdds),
// and survive String → Parse unchanged — except a string holding both quote
// characters (the lenient reader lets `'a'"b'` through as one), which has no
// escape-free literal form.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"{}", "{[1, 'A1', 0], [5, 'B1', 0], [1, 'A1', 0]}", "{[1.5], [true], ['s']}",
		"{[1, 'a]b']}", "{[1, 'e[f'], [2, 'g']}", "{[1, 'a,b'], [2, '],[']}",
		`{[1, "it's"], [2, 'say "hi"']}`, "{[1, 'a]}", "{[[1]]}", "{[1],}", "{]", "{[1, 'x'] [2]}",
		"{[NaN, 'L', 0]}", "{[+Inf, 'L', 0], [-Inf, 'L', 0]}", `{["a'b", 'L', 0]}`,
		"{[NaN.0, 'L', 0]}", "{[+Inf.0, 'L', 0]}", "{['a'b', 'L', 0]}", // what String printed before it agreed with Parse
		keyCollision,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if !checkParseMatchesAdds(t, src) {
			return
		}
		m, _ := Parse(src)
		// One entry per Tuple.Equal class of the elements: Key neither merges
		// distinct tuples nor splits equal ones.
		elems, _ := parseElems(src, new(arena))
		classes := 0
		for i, tp := range elems {
			if !slices.ContainsFunc(elems[:i], tp.Equal) {
				classes++
			}
		}
		if m.Distinct() != classes || m.Len() != len(elems) {
			t.Fatalf("Parse(%q): %d entries, %d elements; want %d, one per distinct tuple of %d", src, m.Distinct(), m.Len(), classes, len(elems))
		}
		printable := true
		m.ForEach(func(tp Tuple, _ int) bool {
			for _, v := range tp {
				if v.Kind() == value.KindString && strings.Contains(v.AsString(), "'") && strings.Contains(v.AsString(), `"`) {
					printable = false
				}
			}
			return printable
		})
		if !printable {
			return
		}
		got, err := Parse(m.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %s, which does not parse back: %v", src, m, err)
		}
		if !got.Equal(m) {
			t.Fatalf("Parse(%q) = %s, round trip gives %s", src, m, got)
		}
	})
}

func TestConcurrentAddRemove(t *testing.T) {
	m := New()
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				e := IntElem(int64(i%13), fmt.Sprintf("L%d", i%7), int64(w))
				m.Add(e)
				if i%2 == 0 {
					m.Remove(e)
				}
			}
		}(w)
	}
	wg.Wait()
	want := workers * perWorker / 2
	if m.Len() != want {
		t.Errorf("len = %d, want %d", m.Len(), want)
	}
}

func TestConcurrentTryRemoveAllClaimsDisjoint(t *testing.T) {
	// N workers race to claim the same pair; exactly one must win.
	for trial := 0; trial < 20; trial++ {
		m := New(IntElem(1, "A1", 0), IntElem(5, "B1", 0))
		var wg sync.WaitGroup
		wins := make(chan bool, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if m.TryRemoveAll([]Tuple{IntElem(1, "A1", 0), IntElem(5, "B1", 0)}) {
					wins <- true
				}
			}()
		}
		wg.Wait()
		close(wins)
		n := 0
		for range wins {
			n++
		}
		if n != 1 {
			t.Fatalf("trial %d: %d winners, want 1", trial, n)
		}
		if m.Len() != 0 {
			t.Fatalf("trial %d: len = %d", trial, m.Len())
		}
	}
}

// Property: Add then Remove leaves the multiset unchanged.
func TestQuickAddRemoveIdentity(t *testing.T) {
	f := func(v int64, label string, tag int64, n uint8) bool {
		m := New()
		count := int(n%5) + 1
		e := IntElem(v, label, tag)
		m.AddN(e, count)
		for i := 0; i < count; i++ {
			if !m.Remove(e) {
				return false
			}
		}
		return m.Len() == 0 && m.Distinct() == 0 && !m.Contains(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String/Parse round-trips arbitrary integer-element multisets.
func TestQuickStringParseRoundTrip(t *testing.T) {
	f := func(vals []int8) bool {
		m := New()
		for i, v := range vals {
			m.Add(IntElem(int64(v), fmt.Sprintf("L%d", i%4), int64(i%3)))
		}
		got, err := Parse(m.String())
		return err == nil && got.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
