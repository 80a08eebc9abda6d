package gamma

// The interpreted matcher: a reaction read straight off its syntax — pattern
// variables bound by name into a MapEnv, conditions and products tree-walked
// by expr.Eval. The engines and replay fire the compiled kernel (kernel.go);
// this is the reference it is held to (TestKernelMatchesInterpreter, and the
// claims tests' product oracle).

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/value"
)

// match attempts to match tuple t against p, extending env. It reports
// success and the list of names newly bound (for backtracking).
func (p Pattern) match(t multiset.Tuple, env expr.MapEnv) (bound []string, ok bool) {
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

func unbind(env expr.MapEnv, names []string) {
	for _, n := range names {
		delete(env, n)
	}
}

// instantiate evaluates the template under env into a concrete tuple.
func (tpl Template) instantiate(env expr.Env) (multiset.Tuple, error) {
	out := make(multiset.Tuple, len(tpl))
	for i, e := range tpl {
		v, err := expr.Eval(e, env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// selectBranch returns the index of the first enabled branch under env, or -1
// when no branch is enabled (the binding does not fire).
func (r *Reaction) selectBranch(env expr.Env) (int, error) {
	for i, b := range r.Branches {
		if b.Cond == nil {
			return i, nil
		}
		ok, err := expr.EvalBool(b.Cond, env)
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
func (r *Reaction) produce(idx int, env expr.Env) ([]multiset.Tuple, error) {
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
