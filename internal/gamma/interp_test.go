package gamma

// The interpreted matcher: a reaction read straight off its syntax — pattern
// variables bound by name into an env, conditions and products evaluated
// under it. The engines and replay fire the compiled kernel (kernel.go); this
// is the reference it is held to (TestKernelMatchesInterpreter, and the claims
// tests' product oracle). An expression evaluates through expr.Compile
// against slots the env assigns by name, never through the kernel's slot
// layout; expr's own differential suite holds expr.Compile to the tree walker.

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/value"
)

// bindings is the oracle's environment: a variable is bound when its name is a
// key.
type bindings map[string]value.Value

// eval evaluates e under b: each bound name gets a slot of its own.
func (b bindings) eval(e expr.Expr) (value.Value, error) {
	slots := make(map[string]int, len(b))
	vals := make([]value.Value, 0, len(b))
	for name, v := range b {
		slots[name] = len(vals)
		vals = append(vals, v)
	}
	return expr.Compile(e, slots)(vals)
}

// match attempts to match tuple t against p, extending env. It reports
// success and the list of names newly bound (for backtracking).
func (p Pattern) match(t multiset.Tuple, env bindings) (bound []string, ok bool) {
	if len(t) != len(p) {
		return nil, false
	}
	for i, f := range p {
		if f.Var == "" {
			if !value.Equal(f.Lit, t[i]) {
				unbind(env, bound)
				return nil, false
			}
			continue
		}
		if prev, exists := env[f.Var]; exists {
			// Repeated variable: equality constraint, the mechanism the
			// paper uses to force same-iteration operands (shared tag v).
			if !value.Equal(prev, t[i]) {
				unbind(env, bound)
				return nil, false
			}
			continue
		}
		env[f.Var] = t[i]
		bound = append(bound, f.Var)
	}
	return bound, true
}

func unbind(env bindings, names []string) {
	for _, n := range names {
		delete(env, n)
	}
}

// instantiate evaluates the template under env into a concrete tuple.
func (tpl Template) instantiate(env bindings) (multiset.Tuple, error) {
	out := make(multiset.Tuple, len(tpl))
	for i, e := range tpl {
		v, err := env.eval(e)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// selectBranch returns the index of the first enabled branch under env, or -1
// when no branch is enabled (the binding does not fire).
func (r *Reaction) selectBranch(env bindings) (int, error) {
	for i, b := range r.Branches {
		if b.Cond == nil {
			return i, nil
		}
		v, err := env.eval(b.Cond)
		ok := false
		if err == nil {
			ok, err = v.Truthy()
		}
		if err != nil {
			return -1, fmt.Errorf("gamma: reaction %s condition: %w", r.Name, err)
		}
		if ok {
			return i, nil
		}
	}
	return -1, nil
}

// produce instantiates the products of branch idx under env.
func (r *Reaction) produce(idx int, env bindings) ([]multiset.Tuple, error) {
	b := r.Branches[idx]
	out := make([]multiset.Tuple, 0, len(b.Products))
	for _, tpl := range b.Products {
		t, err := tpl.instantiate(env)
		if err != nil {
			return nil, fmt.Errorf("gamma: reaction %s action: %w", r.Name, err)
		}
		out = append(out, t)
	}
	return out, nil
}
