package multiset

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/value"
)

// randomMixed builds a multiset of every filing kind: bare elements, labeled
// pairs, tagged triples (labels on both sides of bucketAt, integer, float and
// negative tags), some with multiplicity above one.
func randomMixed(rng *rand.Rand, n int) *Multiset {
	m := New()
	for i := 0; i < n; i++ {
		var t Tuple
		switch label := fmt.Sprintf("P%d", rng.Intn(6)); rng.Intn(4) {
		case 0:
			t = New1(value.Int(int64(rng.Intn(3 * n))))
		case 1:
			t = Pair(value.Int(int64(rng.Intn(3*n))), label)
		case 2:
			t = IntElem(int64(rng.Intn(50)), label, int64(rng.Intn(9)-2))
		default:
			t = Tuple{value.Int(int64(rng.Intn(50))), value.Str(label), value.Float(float64(rng.Intn(4)))}
		}
		m.AddN(t, 1+rng.Intn(3)/2)
	}
	return m
}

// TestPartitionAbsorbIdentity: Absorb(Partition(k)) gives back the multiset it
// split, and every stage in between is structurally sound — m emptied, the
// parts holding exactly its elements between them, all elements of one index
// tag in one part, and nothing left in the parts afterwards.
func TestPartitionAbsorbIdentity(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomMixed(rng, 1+rng.Intn(400))
		want, arena := m.Clone(), m.ArenaBytes()
		for _, k := range []int{1, 2, 3, 8} {
			var v View
			m.LockWrite(&v)
			parts := v.Partition(k)
			if err := v.CheckInvariants(); err != nil || m.Len() != 0 || len(parts) != k {
				t.Fatalf("seed %d k=%d: split m holds %d elements in %d parts: %v", seed, k, m.Len(), len(parts), err)
			}
			total, partOfTag := 0, map[int64]int{}
			for i, p := range parts {
				if err := p.CheckInvariants(); err != nil {
					t.Fatalf("seed %d k=%d: part %d: %v", seed, k, i, err)
				}
				total += p.Len()
				p.ForEach(func(tp Tuple, _ int) bool {
					if _, labeled := tp.Label(); labeled && len(tp) >= 3 {
						if tag, ok := IndexTag(tp[2]); ok {
							if at, seen := partOfTag[tag]; seen && at != i {
								t.Errorf("seed %d k=%d: tag %d in parts %d and %d", seed, k, tag, at, i)
							}
							partOfTag[tag] = i
						}
					}
					return true
				})
			}
			if total != want.Len() {
				t.Fatalf("seed %d k=%d: parts hold %d elements of %d", seed, k, total, want.Len())
			}
			v.Absorb(parts)
			err := v.CheckInvariants()
			v.Unlock()
			if err != nil || !m.Equal(want) || m.ArenaBytes() != arena {
				t.Fatalf("seed %d k=%d: absorbed %v, arena %d of %d:\n got %s\nwant %s", seed, k, err, m.ArenaBytes(), arena, m, want)
			}
			for i, p := range parts {
				if err := p.CheckInvariants(); err != nil || p.Len() != 0 || p.Distinct() != 0 {
					t.Fatalf("seed %d k=%d: part %d after Absorb: %d elements, %v", seed, k, i, p.Len(), err)
				}
			}
		}
	}
}

// TestPartitionAbsorbMergesEvolvedParts: the parts are multisets like any
// other between Partition and Absorb, and what they became is what comes back
// — a tuple every part produced adds up under one entry, what a part consumed
// is gone, and the arena bytes the parts carved join m's account.
func TestPartitionAbsorbMergesEvolvedParts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMixed(rng, 300)
	want, arena := m.Clone(), m.ArenaBytes()
	var v View
	m.LockWrite(&v)
	parts := v.Partition(3)
	same, carved := IntElem(-1, "P0", 1), int64(0)
	for i, p := range parts {
		var gone []Tuple
		p.ForEach(func(tp Tuple, _ int) bool { gone = append(gone, tp); return len(gone) < 5 })
		own := Pair(value.Int(int64(-10-i)), "fresh")
		if ok, _ := p.ApplyDelta(gone, nil, []Tuple{same, own}, nil); !ok {
			t.Fatalf("part %d refused a commit on its own elements", i)
		}
		want.TryRemoveAll(gone)
		want.AddAll([]Tuple{same, own})
		carved += p.ArenaBytes()
	}
	v.Absorb(parts)
	err := v.CheckInvariants()
	v.Unlock()
	if err != nil || !m.Equal(want) || m.Count(same) != 3 {
		t.Fatalf("absorbed %v, %d of the shared product:\n got %s\nwant %s", err, m.Count(same), m, want)
	}
	if carved == 0 || m.ArenaBytes() != arena+carved {
		t.Errorf("arena account %d, want the %d before plus the parts' %d", m.ArenaBytes(), arena, carved)
	}
}

// TestPartitionStalesHandles: a handle does not survive its element's move. One
// issued by m before Partition fails its claim in the part that now holds the
// element and, after Absorb, in m again; one issued by a part fails in m and in
// the part. The elements are untouched throughout.
func TestPartitionStalesHandles(t *testing.T) {
	a, b := IntElem(1, "A", 0), Pair(value.Int(2), "B")
	m := New(a, b)
	before := refsOf(m, []Tuple{a, b})
	var v View
	m.LockWrite(&v)
	parts := v.Partition(2)
	var inPart [][]Ref
	for _, p := range parts {
		for _, r := range before {
			if consumeByRef(p, []Ref{r}) {
				t.Fatalf("a handle m issued before Partition committed in a part holding %s", p)
			}
		}
		inPart = append(inPart, refsOf(p, []Tuple{a, b}))
	}
	v.Absorb(parts)
	v.Unlock()
	for i, p := range parts {
		for _, r := range inPart[i] {
			if consumeByRef(p, []Ref{r}) || consumeByRef(m, []Ref{r}) {
				t.Fatalf("a handle part %d issued before Absorb committed afterwards", i)
			}
		}
	}
	for _, r := range before {
		if consumeByRef(m, []Ref{r}) {
			t.Fatal("a handle issued before Partition committed after Absorb")
		}
	}
	if m.String() != "{[1, 'A', 0], [2, 'B']}" || m.CheckInvariants() != nil {
		t.Fatalf("m = %s (%v)", m, m.CheckInvariants())
	}
	if !consumeByRef(m, refsOf(m, []Tuple{a, b})) || m.Len() != 0 {
		t.Fatalf("fresh handles did not commit: %s", m)
	}
}
