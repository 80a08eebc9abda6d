package expr

import (
	"fmt"

	"repro/internal/value"
)

// Compiled is an expression lowered to a closure chain over a slot-indexed
// environment: variables are resolved to integer slots at compile time, so
// evaluation reads env[slot] and never looks a name up. A slot holding the
// zero (invalid) Value is unbound. It is the one evaluator of the expression
// language: Gamma conditions and products, and Algorithm 2's mapping.
//
// Compiled closures are immutable after Compile and safe for concurrent use;
// the parallel Gamma runtime shares one compiled kernel across all workers.
//
// Semantics are bit-for-bit those of the tree-walking Eval (eval_test.go) on
// the same expression: identical values, identical error classes and
// messages, identical evaluation order and short-circuiting. The differential
// property test in compile_test.go holds the two implementations to that
// contract with Eval as the reference oracle.
type Compiled func(env []value.Value) (value.Value, error)

// CompiledBool is a compiled condition: Compiled followed by Truthy.
type CompiledBool func(env []value.Value) (bool, error)

// Compile lowers e into a Compiled closure chain. Fold runs first, so
// constant subtrees (the literal chains produced by §III-A3 reaction fusion)
// are collapsed to single literal loads at compile time and pay nothing per
// evaluation. slots maps variable names to environment indexes; variables
// absent from slots evaluate to *UnboundVarError.
func Compile(e Expr, slots map[string]int) Compiled {
	return lower(Fold(e), slots)
}

// CompileBool is Compile for boolean positions (reaction conditions).
func CompileBool(e Expr, slots map[string]int) CompiledBool {
	c := Compile(e, slots)
	return func(env []value.Value) (bool, error) {
		v, err := c(env)
		if err != nil {
			return false, err
		}
		return v.Truthy()
	}
}

// constErr returns a Compiled that always fails with err — the lowering of a
// node whose failure is decided at compile time but, to match the oracle's
// evaluation order, must still surface at evaluation time.
func constErr(err error) Compiled {
	return func([]value.Value) (value.Value, error) { return value.Value{}, err }
}

// lower compiles one (already folded) node.
func lower(e Expr, slots map[string]int) Compiled {
	switch n := e.(type) {
	case Lit:
		v := n.Val
		return func([]value.Value) (value.Value, error) { return v, nil }
	case Var:
		ue := &UnboundVarError{Name: n.Name}
		idx, ok := slots[n.Name]
		if !ok {
			return constErr(ue)
		}
		return func(env []value.Value) (value.Value, error) {
			if idx < len(env) {
				if v := env[idx]; v.IsValid() {
					return v, nil
				}
			}
			return value.Value{}, ue
		}
	case Unary:
		cx := lower(n.X, slots)
		fn, ok := value.UnaryFn(n.Op)
		if !ok {
			// value.Unary reports the unknown operator only after the operand
			// evaluated; mirror that order.
			err := fmt.Errorf("value: unknown unary operator %q", n.Op)
			return func(env []value.Value) (value.Value, error) {
				if _, xerr := cx(env); xerr != nil {
					return value.Value{}, xerr
				}
				return value.Value{}, err
			}
		}
		return func(env []value.Value) (value.Value, error) {
			x, err := cx(env)
			if err != nil {
				return value.Value{}, err
			}
			return fn(x)
		}
	case Binary:
		return lowerBinary(n, slots)
	case Call:
		cargs := make([]Compiled, len(n.Args))
		for i, a := range n.Args {
			cargs[i] = lower(a, slots)
		}
		name := n.Name
		return func(env []value.Value) (value.Value, error) {
			// Evaluate every argument before dispatching, exactly as Eval
			// does — argument errors outrank arity and unknown-function
			// errors. The fixed buffer keeps the common small arities off
			// the heap.
			var buf [4]value.Value
			var args []value.Value
			if len(cargs) <= len(buf) {
				args = buf[:len(cargs)]
			} else {
				args = make([]value.Value, len(cargs))
			}
			for i, ca := range cargs {
				v, err := ca(env)
				if err != nil {
					return value.Value{}, err
				}
				args[i] = v
			}
			return callBuiltin(name, args)
		}
	}
	return constErr(fmt.Errorf("expr: unknown node %T", e))
}

// lowerBinary compiles a binary node: short-circuit logic for and/or, a
// pre-resolved operator function otherwise, with integer identity fast paths
// for the +0/-0/*1 shapes reaction fusion leaves behind.
func lowerBinary(n Binary, slots map[string]int) Compiled {
	switch n.Op {
	case "and", "&&":
		cl, cr := lower(n.L, slots), lower(n.R, slots)
		return func(env []value.Value) (value.Value, error) {
			l, err := cl(env)
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
			r, err := cr(env)
			if err != nil {
				return value.Value{}, err
			}
			rt, err := r.Truthy()
			if err != nil {
				return value.Value{}, err
			}
			return value.Bool(rt), nil
		}
	case "or", "||":
		cl, cr := lower(n.L, slots), lower(n.R, slots)
		return func(env []value.Value) (value.Value, error) {
			l, err := cl(env)
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
			r, err := cr(env)
			if err != nil {
				return value.Value{}, err
			}
			rt, err := r.Truthy()
			if err != nil {
				return value.Value{}, err
			}
			return value.Bool(rt), nil
		}
	}
	fn, ok := value.BinaryFn(n.Op)
	if !ok {
		cl, cr := lower(n.L, slots), lower(n.R, slots)
		err := fmt.Errorf("value: unknown binary operator %q", n.Op)
		return func(env []value.Value) (value.Value, error) {
			if _, lerr := cl(env); lerr != nil {
				return value.Value{}, lerr
			}
			if _, rerr := cr(env); rerr != nil {
				return value.Value{}, rerr
			}
			return value.Value{}, err
		}
	}
	// Integer identity fast paths: x+0, x-0, x*1, x/1, 0+x, 1*x skip the
	// operator entirely when the live operand is an int (the iteration-tag
	// arithmetic that fused reactions re-evaluate per firing). Non-int
	// operands fall through to fn, so type errors and float rounding
	// (-0.0+0 normalizes to +0.0) behave exactly as in the oracle.
	if lit, ok := n.R.(Lit); ok && lit.Val.Kind() == value.KindInt {
		if i := lit.Val.AsInt(); (i == 0 && (n.Op == "+" || n.Op == "-")) ||
			(i == 1 && (n.Op == "*" || n.Op == "/")) {
			cl, rv := lower(n.L, slots), lit.Val
			return func(env []value.Value) (value.Value, error) {
				x, err := cl(env)
				if err != nil {
					return value.Value{}, err
				}
				if x.Kind() == value.KindInt {
					return x, nil
				}
				return fn(x, rv)
			}
		}
	}
	if lit, ok := n.L.(Lit); ok && lit.Val.Kind() == value.KindInt {
		if i := lit.Val.AsInt(); (i == 0 && n.Op == "+") || (i == 1 && n.Op == "*") {
			cr, lv := lower(n.R, slots), lit.Val
			return func(env []value.Value) (value.Value, error) {
				x, err := cr(env)
				if err != nil {
					return value.Value{}, err
				}
				if x.Kind() == value.KindInt {
					return x, nil
				}
				return fn(lv, x)
			}
		}
	}
	cl, cr := lower(n.L, slots), lower(n.R, slots)
	return func(env []value.Value) (value.Value, error) {
		l, err := cl(env)
		if err != nil {
			return value.Value{}, err
		}
		r, err := cr(env)
		if err != nil {
			return value.Value{}, err
		}
		return fn(l, r)
	}
}

// UnboundVarError reports a variable reference with no binding: a name
// without a slot, or a slot holding the invalid Value.
type UnboundVarError struct{ Name string }

func (e *UnboundVarError) Error() string { return "expr: unbound variable " + e.Name }

// callBuiltin dispatches the builtin function set.
func callBuiltin(name string, args []value.Value) (value.Value, error) {
	switch name {
	case "min", "max":
		if len(args) < 1 {
			return value.Value{}, fmt.Errorf("expr: %s needs at least 1 argument", name)
		}
		best := args[0]
		for _, a := range args[1:] {
			c, err := value.Compare(a, best)
			if err != nil {
				return value.Value{}, err
			}
			if (name == "min" && c < 0) || (name == "max" && c > 0) {
				best = a
			}
		}
		return best, nil
	case "abs":
		if len(args) != 1 {
			return value.Value{}, fmt.Errorf("expr: abs needs exactly 1 argument")
		}
		a := args[0]
		switch a.Kind() {
		case value.KindInt:
			if a.AsInt() < 0 {
				return value.Int(-a.AsInt()), nil
			}
			return a, nil
		case value.KindFloat:
			if a.AsFloat() < 0 {
				return value.Float(-a.AsFloat()), nil
			}
			return a, nil
		}
		return value.Value{}, fmt.Errorf("expr: abs on non-numeric %s", a)
	}
	return value.Value{}, fmt.Errorf("expr: unknown function %q", name)
}
