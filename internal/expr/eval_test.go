package expr

// The tree-walking evaluator: an expression read straight off its syntax under
// a name-keyed environment. Production compiles every expression (compile.go);
// this is the reference TestCompiledDifferential* holds the compiled closures
// to, value, error and message alike.

import (
	"fmt"

	"repro/internal/value"
)

// Env resolves variable references during evaluation.
type Env interface {
	// Lookup returns the value bound to name, and whether it is bound.
	Lookup(name string) (value.Value, bool)
}

// MapEnv is the simplest Env: a map from name to value.
type MapEnv map[string]value.Value

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (value.Value, bool) {
	v, ok := m[name]
	return v, ok
}

// EmptyEnv is an Env with no bindings, for evaluating closed expressions.
var EmptyEnv Env = MapEnv(nil)

// Eval evaluates e under env.
func Eval(e Expr, env Env) (value.Value, error) {
	switch n := e.(type) {
	case Lit:
		return n.Val, nil
	case Var:
		v, ok := env.Lookup(n.Name)
		if !ok {
			return value.Value{}, &UnboundVarError{Name: n.Name}
		}
		return v, nil
	case Unary:
		x, err := Eval(n.X, env)
		if err != nil {
			return value.Value{}, err
		}
		return value.Unary(n.Op, x)
	case Binary:
		// Short-circuit the logical operators so e.g. guards like
		// (id2 != 0) and (id1/id2 > 1) evaluate safely.
		switch n.Op {
		case "and", "&&":
			l, err := Eval(n.L, env)
			if err != nil {
				return value.Value{}, err
			}
			t, err := l.Truthy()
			if err != nil {
				return value.Value{}, err
			}
			if !t {
				return value.Bool(false), nil
			}
			r, err := Eval(n.R, env)
			if err != nil {
				return value.Value{}, err
			}
			rt, err := r.Truthy()
			if err != nil {
				return value.Value{}, err
			}
			return value.Bool(rt), nil
		case "or", "||":
			l, err := Eval(n.L, env)
			if err != nil {
				return value.Value{}, err
			}
			t, err := l.Truthy()
			if err != nil {
				return value.Value{}, err
			}
			if t {
				return value.Bool(true), nil
			}
			r, err := Eval(n.R, env)
			if err != nil {
				return value.Value{}, err
			}
			rt, err := r.Truthy()
			if err != nil {
				return value.Value{}, err
			}
			return value.Bool(rt), nil
		}
		l, err := Eval(n.L, env)
		if err != nil {
			return value.Value{}, err
		}
		r, err := Eval(n.R, env)
		if err != nil {
			return value.Value{}, err
		}
		return value.Binary(n.Op, l, r)
	case Call:
		args := make([]value.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := Eval(a, env)
			if err != nil {
				return value.Value{}, err
			}
			args[i] = v
		}
		return callBuiltin(n.Name, args)
	}
	return value.Value{}, fmt.Errorf("expr: unknown node %T", e)
}

// EvalBool evaluates e and interprets the result as a condition via Truthy.
func EvalBool(e Expr, env Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	return v.Truthy()
}
