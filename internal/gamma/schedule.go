// Delta-driven reaction scheduling: the static subscription index behind the
// incremental matching engine.
//
// The Γ fixpoint of Eq. 1 rewrites the multiset until no reaction is enabled.
// The seed engine re-probed every reaction after every commit — O(reactions ×
// candidates) per step even when the commit touched a single label. The
// incremental engine exploits two facts:
//
//  1. Matching is monotone: removing elements can never enable a reaction,
//     because patterns only require the presence of elements (the model has
//     no negative conditions). Only additions create new match opportunities.
//  2. A pattern that names its labels — a literal label field, or a label
//     variable its reaction's conditions confine to a set of literals (both
//     shapes are Algorithm 1's; patternLabels decides) — can only consume
//     elements carrying one of them; adding an element with any other label
//     cannot enable it.
//
// So at program setup we compute label → reactions once, and after each
// commit only the reactions subscribed to a label that was actually added —
// plus the wildcard bucket of reactions with at least one generic pattern —
// need re-probing. A reaction that failed to match stays provably disabled
// until one of its subscriptions fires: the RETE-style delta strategy of
// production rule engines, applied to Gamma without touching the
// nondeterministic semantics of §II-B.
package gamma

import "repro/internal/symtab"

// subscriptions is the immutable label → reactions index of one Program,
// computed once per program (reactions are immutable after Validate).
type subscriptions struct {
	// bySym lists, per pattern label (as its interned symbol — a commit
	// reports produce deltas as symbols, so wakeups never materialize label
	// strings), the indexes of reactions with at least one pattern
	// subscribing to that label, ascending.
	bySym map[symtab.Sym][]int
	// wildcard lists reactions with at least one generic pattern (no label
	// set): any added element may feed such a pattern, so these wake on
	// every commit.
	wildcard []int
}

// buildSubscriptions derives the index from the reactions' patterns.
func buildSubscriptions(reactions []*Reaction) *subscriptions {
	sub := &subscriptions{bySym: make(map[symtab.Sym][]int)}
	for i, r := range reactions {
		var syms []symtab.Sym
		for _, p := range r.Patterns {
			labels := patternLabels(r, p)
			if labels == nil {
				syms = nil
				break
			}
			for _, label := range labels {
				syms = addUnique(syms, symtab.Intern(label))
			}
		}
		if syms == nil {
			sub.wildcard = append(sub.wildcard, i)
		}
		for _, sym := range syms {
			sub.bySym[sym] = append(sub.bySym[sym], i)
		}
	}
	return sub
}

// forEachSym invokes fn for every reaction that may have become newly enabled
// by a commit that added elements with the given label symbols — the delta
// form ApplyDelta reports. multiset.NoLabelSym marks unlabeled elements: those
// can only feed generic patterns, hence wake only the wildcard bucket (no
// literal label pattern interned it into bySym). fn may be invoked more than
// once for the same reaction; callers dedupe through their dirty/queued
// flags.
func (sub *subscriptions) forEachSym(syms []symtab.Sym, fn func(idx int)) {
	for _, i := range sub.wildcard {
		fn(i)
	}
	for _, sym := range syms {
		for _, i := range sub.bySym[sym] {
			fn(i)
		}
	}
}

// subs returns the program's subscription index, building it on first use.
func (p *Program) subs() *subscriptions {
	p.subsOnce.Do(func() { p.subsIdx = buildSubscriptions(p.Reactions) })
	return p.subsIdx
}
