// Compiled reaction kernels: the slot-indexed execution form of a Reaction.
//
// The seed matcher interpreted a reaction on every probe — binding pattern
// variables into a freshly allocated map environment, tree-walking the branch
// conditions and product templates, and rebuilding each candidate's Key()
// fingerprint to track claimed occurrences. Those per-probe costs dominate
// the step loop once the incremental scheduler has removed the wasted probes
// (TestWakePolicyScaling counts those).
//
// A kernel lowers all of it once, at first use, keeping the semantics of the
// interpreted path bit-for-bit:
//
//   - every pattern variable is assigned an integer slot; matching writes
//     env[slot] instead of hashing names into a MapEnv, and whether a field
//     binds or equality-checks is decided statically from the fixed search
//     order (patterns in order, fields left to right);
//   - branch conditions and product fields are compiled to expr closure
//     chains over the slot environment (expr.Compile, which also constant-
//     folds the literal chains §III-A3 reaction fusion leaves behind);
//   - the labels a pattern can match (patternLabels) and the literal labels
//     of the products are interned to symtab symbols once, so enumeration hits
//     the multiset's integer-keyed indexes and a firing interns nothing;
//   - a candidate is a multiset.Ref from enumeration to commit: the search
//     claims occurrences by comparing handles and the firing's Delta carries
//     them, so the commit finds the entries without a key or a lookup;
//   - searcher scratch (slot env, claim stack, chosen tuples) belongs to the
//     worker, one per reaction (worker.searchers): a probe allocates nothing.
//
// The kernel is the one matcher in production: the engines fire it, and replay
// re-runs it (Reaction.ReplayFiring). The interpreted Pattern.match /
// Reaction.produce path lives in interp_test.go as the reference oracle;
// TestKernelMatchesInterpreter holds the two together.
package gamma

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/symtab"
	"repro/internal/value"
)

// kfield is one lowered pattern field. slot < 0 means a literal field
// compared against lit; otherwise the field touches env[slot] — binding it
// when bind is set (the variable's first occurrence in the fixed search
// order), equality-checking against it otherwise (a repeated variable, the
// paper's shared-tag constraint).
type kfield struct {
	slot int
	bind bool
	lit  value.Value
}

// Tag-field modes for candidate enumeration (kpat.tagMode).
const (
	tagNone = iota // no concrete tag at enumeration time: iterate the label index
	tagLit         // literal int tag: iterate the (label, tag) index
	tagSlot        // tag variable bound by an earlier pattern: read env[tagSlot]
)

// kpat is one lowered pattern: its fields, the slots it binds (cleared as a
// block on backtracking — only this pattern ever binds them, because a slot
// belongs to its variable's first occurrence), and the enumeration plan
// resolved from the shapes Algorithm 1 emits: the label symbols the pattern
// can match (patternLabels; none for a generic pattern) and the tag mode.
type kpat struct {
	n       int
	fields  []kfield
	binds   []int
	labels  []symtab.Sym
	tagMode int
	tagLit  int64
	tagSlot int
}

// match attempts to match tuple t, writing bindings into the slot env. On
// failure every slot this pattern binds is cleared; on success the caller
// clears them via clear when backtracking past the pattern.
func (kp *kpat) match(t multiset.Tuple, env []value.Value) bool {
	if len(t) != kp.n {
		return false
	}
	for i := range kp.fields {
		f := &kp.fields[i]
		switch {
		case f.slot < 0:
			if !value.Equal(f.lit, t[i]) {
				kp.clear(env)
				return false
			}
		case f.bind:
			env[f.slot] = t[i]
		default:
			if !value.Equal(env[f.slot], t[i]) {
				kp.clear(env)
				return false
			}
		}
	}
	return true
}

// clear unbinds every slot the pattern binds. Clearing a slot the current
// attempt never reached is harmless: it was already invalid.
func (kp *kpat) clear(env []value.Value) {
	for _, s := range kp.binds {
		env[s] = value.Value{}
	}
}

// kbranch is one lowered branch: compiled condition (nil for else), compiled
// product templates, and per product the symbol of its literal label
// (symtab.None where the label is computed) — the Delta's PSyms.
type kbranch struct {
	cond  expr.CompiledBool
	prods [][]expr.Compiled
	psyms []symtab.Sym
}

// kernel is the compiled form of one Reaction, built once (see
// Reaction.kernel) and shared read-only by every worker.
type kernel struct {
	nslots   int
	varOf    []string // slot → variable name, for materializing Match.Env
	pats     []kpat
	branches []kbranch

	// generic: some pattern names no label and enumerates the whole multiset.
	generic bool
}

// compileKernel lowers r. Slot assignment follows the fixed search order —
// patterns in declaration order, fields left to right — so first occurrence
// (bind) versus repetition (check) is static, as is whether a tag variable in
// field 2 is already bound when its pattern starts enumerating (tagSlot).
func compileKernel(r *Reaction) *kernel {
	k := &kernel{}
	slots := make(map[string]int)
	slotOf := func(name string) (int, bool) {
		if s, ok := slots[name]; ok {
			return s, false
		}
		s := len(slots)
		slots[name] = s
		k.varOf = append(k.varOf, name)
		return s, true
	}
	for _, p := range r.Patterns {
		kp := kpat{n: len(p), fields: make([]kfield, len(p))}
		// The enumeration plan reads the bindings established by *earlier*
		// patterns, so resolve it before this pattern's fields assign slots.
		for _, label := range patternLabels(r, p) {
			sym := symtab.Intern(label)
			kp.labels = addUnique(kp.labels, sym)
		}
		if len(kp.labels) == 0 {
			k.generic = true
		} else if len(p) >= 3 {
			if f := p[2]; f.Var == "" {
				if tag, ok := multiset.IndexTag(f.Lit); ok {
					kp.tagMode, kp.tagLit = tagLit, tag
				}
			} else if s, ok := slots[f.Var]; ok {
				kp.tagMode, kp.tagSlot = tagSlot, s
			}
		}
		for i, f := range p {
			if f.Var == "" {
				kp.fields[i] = kfield{slot: -1, lit: f.Lit}
				continue
			}
			s, fresh := slotOf(f.Var)
			kp.fields[i] = kfield{slot: s, bind: fresh}
			if fresh {
				kp.binds = append(kp.binds, s)
			}
		}
		k.pats = append(k.pats, kp)
	}
	k.nslots = len(slots)
	k.branches = make([]kbranch, len(r.Branches))
	for bi, b := range r.Branches {
		kb := &k.branches[bi]
		if b.Cond != nil {
			kb.cond = expr.CompileBool(b.Cond, slots)
		}
		kb.prods = make([][]expr.Compiled, len(b.Products))
		kb.psyms = make([]symtab.Sym, len(b.Products))
		for pi, tpl := range b.Products {
			kb.prods[pi] = make([]expr.Compiled, len(tpl))
			for fi, e := range tpl {
				kb.prods[pi][fi] = expr.Compile(e, slots)
			}
			if len(tpl) >= 2 {
				if l, ok := tpl[1].(expr.Lit); ok && l.Val.Kind() == value.KindString {
					kb.psyms[pi] = symtab.Intern(l.Val.AsString())
				}
			}
		}
	}
	return k
}

// addUnique appends x to xs unless it is already there.
func addUnique[T comparable](xs []T, x T) []T {
	if slices.Contains(xs, x) {
		return xs
	}
	return append(xs, x)
}

// kernel returns r's compiled form, building it on first use. Reactions are
// immutable once running (the same contract the subscription index relies
// on), so a reaction is frozen at its first run: its kernel and its
// well-formedness both.
func (r *Reaction) kernel() *kernel {
	r.kernOnce.Do(func() { r.kern = compileKernel(r) })
	return r.kern
}

// checked builds r's kernel and returns its Validate verdict, both taken
// once. It stays out of line so that runContext keeps the frame the Validate
// call gave it (see runContext on why that frame matters).
//
//go:noinline
func (r *Reaction) checked() error {
	r.kernel()
	return r.Validate()
}

// selectBranch returns the first enabled branch under the slot env, or -1.
// The compiled counterpart of the interpreted oracle's Reaction.selectBranch
// (interp_test.go), with the same error wrapping.
func (k *kernel) selectBranch(name string, env []value.Value) (int, error) {
	for i := range k.branches {
		b := &k.branches[i]
		if b.cond == nil {
			return i, nil
		}
		ok, err := b.cond(env)
		if err != nil {
			return -1, fmt.Errorf("gamma: reaction %s condition: %w", name, err)
		}
		if ok {
			return i, nil
		}
	}
	return -1, nil
}

// produceInto instantiates branch idx's products under the slot env — the
// compiled counterpart of the oracle's Reaction.produce, with the same error
// wrapping — onto caller-owned arenas: product value cells append to vals,
// tuple headers (capacity-clamped subslices of vals) append to out, and both
// grown slices return to the caller. A mid-batch realloc of vals is harmless —
// earlier headers keep reading the old backing, whose cells are immutable and
// already correct. A caller that reuses its arenas must not retain the headers
// past the commit that clones them.
func (k *kernel) produceInto(name string, idx int, env []value.Value, vals []value.Value, out []multiset.Tuple) ([]value.Value, []multiset.Tuple, error) {
	prods := k.branches[idx].prods
	for _, tpl := range prods {
		start := len(vals)
		for _, ce := range tpl {
			v, err := ce(env)
			if err != nil {
				return vals, out, fmt.Errorf("gamma: reaction %s action: %w", name, err)
			}
			vals = append(vals, v)
		}
		out = append(out, multiset.Tuple(vals[start:len(vals):len(vals)]))
	}
	return vals, out, nil
}

// newSearcher returns searcher scratch for r, enumerating through view and
// sized once: the claim stack's capacity is the most a search can hold.
func newSearcher(r *Reaction, view *multiset.View) *searcher {
	k := r.kernel()
	return &searcher{
		r:      r,
		k:      k,
		view:   view,
		env:    make([]value.Value, k.nslots),
		claims: make([]multiset.Ref, 0, len(k.pats)),
		chosen: make([]multiset.Tuple, len(k.pats)),
	}
}

// begin readies the scratch for a fresh probe of m's current state under rng:
// nothing claimed, nothing bound, nothing visited.
func (s *searcher) begin(m *multiset.Multiset, rng *rand.Rand) {
	s.rng, s.err, s.visited, s.claims = rng, nil, 0, s.claims[:0]
	switch {
	case rng != nil:
		s.rot = rng.Uint64()
	case s.k.generic:
		// Deterministic search with a generic pattern: derive the whole-set
		// enumeration rotation from the multiset state, not a counter, so the
		// probe order is a pure function of the state — identical across
		// engines and across repeated runs (the equivalence harness compares
		// stable states reached from the same state sequence).
		s.rot = detRotation(m.Len())
	default:
		s.rot = 0
	}
	for i := range s.env {
		s.env[i] = value.Value{}
	}
}
