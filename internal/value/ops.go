package value

import "fmt"

// TypeError reports an operation applied to operands of unsupported kinds.
type TypeError struct {
	Op    string
	Left  Value
	Right Value
}

func (e *TypeError) Error() string {
	if e.Right.IsValid() || e.Right.kind != KindInvalid {
		return fmt.Sprintf("value: invalid operation %s %s %s (kinds %s, %s)",
			e.Left, e.Op, e.Right, e.Left.kind, e.Right.kind)
	}
	return fmt.Sprintf("value: invalid operation %s%s (kind %s)", e.Op, e.Left, e.Left.kind)
}

// DivisionByZero reports an integer division or modulo by zero.
type DivisionByZero struct{ Op string }

func (e *DivisionByZero) Error() string { return "value: " + e.Op + " by zero" }

func numericPair(a, b Value) bool { return a.IsNumeric() && b.IsNumeric() }

// bothInt reports whether both operands are integers (no promotion needed).
func bothInt(a, b Value) bool { return a.kind == KindInt && b.kind == KindInt }

// Add returns a+b. Numeric operands promote int→float as needed; string
// operands concatenate (a convenience used by a few examples, not the paper).
func Add(a, b Value) (Value, error) {
	switch {
	case bothInt(a, b):
		return Int(a.i() + b.i()), nil
	case numericPair(a, b):
		return Float(a.AsFloat() + b.AsFloat()), nil
	case a.kind == KindString && b.kind == KindString:
		return Str(a.s + b.s), nil
	}
	return Value{}, &TypeError{Op: "+", Left: a, Right: b}
}

// Sub returns a-b under the numeric promotion rules of Add.
func Sub(a, b Value) (Value, error) {
	switch {
	case bothInt(a, b):
		return Int(a.i() - b.i()), nil
	case numericPair(a, b):
		return Float(a.AsFloat() - b.AsFloat()), nil
	}
	return Value{}, &TypeError{Op: "-", Left: a, Right: b}
}

// Mul returns a*b under the numeric promotion rules of Add.
func Mul(a, b Value) (Value, error) {
	switch {
	case bothInt(a, b):
		return Int(a.i() * b.i()), nil
	case numericPair(a, b):
		return Float(a.AsFloat() * b.AsFloat()), nil
	}
	return Value{}, &TypeError{Op: "*", Left: a, Right: b}
}

// Div returns a/b. Integer division truncates toward zero like Go's /.
func Div(a, b Value) (Value, error) {
	switch {
	case bothInt(a, b):
		if b.i() == 0 {
			return Value{}, &DivisionByZero{Op: "division"}
		}
		return Int(a.i() / b.i()), nil
	case numericPair(a, b):
		if b.AsFloat() == 0 {
			return Value{}, &DivisionByZero{Op: "division"}
		}
		return Float(a.AsFloat() / b.AsFloat()), nil
	}
	return Value{}, &TypeError{Op: "/", Left: a, Right: b}
}

// Mod returns a%b for integer operands.
func Mod(a, b Value) (Value, error) {
	if !bothInt(a, b) {
		return Value{}, &TypeError{Op: "%", Left: a, Right: b}
	}
	if b.i() == 0 {
		return Value{}, &DivisionByZero{Op: "modulo"}
	}
	return Int(a.i() % b.i()), nil
}

// Neg returns -a for numeric a.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindInt:
		return Int(-a.i()), nil
	case KindFloat:
		return Float(-a.f()), nil
	}
	return Value{}, &TypeError{Op: "-", Left: a}
}

// Not returns logical negation of a boolean (or truthy numeric) operand.
func Not(a Value) (Value, error) {
	t, err := a.Truthy()
	if err != nil {
		return Value{}, &TypeError{Op: "!", Left: a}
	}
	return Bool(!t), nil
}

// And returns a && b using Truthy semantics.
func And(a, b Value) (Value, error) {
	ta, err := a.Truthy()
	if err != nil {
		return Value{}, &TypeError{Op: "and", Left: a, Right: b}
	}
	tb, err := b.Truthy()
	if err != nil {
		return Value{}, &TypeError{Op: "and", Left: a, Right: b}
	}
	return Bool(ta && tb), nil
}

// Or returns a || b using Truthy semantics.
func Or(a, b Value) (Value, error) {
	ta, err := a.Truthy()
	if err != nil {
		return Value{}, &TypeError{Op: "or", Left: a, Right: b}
	}
	tb, err := b.Truthy()
	if err != nil {
		return Value{}, &TypeError{Op: "or", Left: a, Right: b}
	}
	return Bool(ta || tb), nil
}

// Equal reports deep equality. Numeric values compare across kinds
// (Int(2) == Float(2.0)); other kinds must match exactly.
func Equal(a, b Value) bool {
	if numericPair(a, b) {
		if bothInt(a, b) {
			return a.i() == b.i()
		}
		return a.AsFloat() == b.AsFloat()
	}
	return a == b
}

// Compare orders two values: -1 if a<b, 0 if equal, +1 if a>b. Numeric values
// order numerically with promotion; strings order lexicographically; booleans
// order false<true. Mismatched non-numeric kinds are an error.
func Compare(a, b Value) (int, error) {
	switch {
	case bothInt(a, b):
		switch {
		case a.i() < b.i():
			return -1, nil
		case a.i() > b.i():
			return 1, nil
		}
		return 0, nil
	case numericPair(a, b):
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	case a.kind == KindString && b.kind == KindString:
		switch {
		case a.s < b.s:
			return -1, nil
		case a.s > b.s:
			return 1, nil
		}
		return 0, nil
	case a.kind == KindBool && b.kind == KindBool:
		switch {
		case !a.b() && b.b():
			return -1, nil
		case a.b() && !b.b():
			return 1, nil
		}
		return 0, nil
	}
	return 0, &TypeError{Op: "compare", Left: a, Right: b}
}

// Binary applies the named binary operator. Supported operators are the
// arithmetic set {+ - * / %}, comparisons {== != < <= > >=} and logical
// {and or}. Comparison results are booleans, matching the 0/1 control
// elements the paper's steer reactions consume via Truthy. == and != hold
// across kinds: operands of different non-numeric kinds are unequal.
func Binary(op string, a, b Value) (Value, error) {
	switch op {
	case "<", "<=", ">", ">=":
		return order(op, a, b)
	}
	if fn, ok := BinaryFn(op); ok {
		return fn(a, b)
	}
	return Value{}, fmt.Errorf("value: unknown binary operator %q", op)
}

// order applies the comparison operator op to Compare's verdict on a and b.
func order(op string, a, b Value) (Value, error) {
	c, err := Compare(a, b)
	if err != nil {
		return Value{}, err
	}
	switch op {
	case "<":
		return Bool(c < 0), nil
	case "<=":
		return Bool(c <= 0), nil
	case ">":
		return Bool(c > 0), nil
	default:
		return Bool(c >= 0), nil
	}
}

// BinaryFn resolves the named binary operator to its implementation once, so
// compiled expression kernels pay the op-string dispatch at compile time
// instead of on every evaluation. The returned function behaves exactly like
// Binary(op, a, b). ok is false for unknown operators.
func BinaryFn(op string) (fn func(a, b Value) (Value, error), ok bool) {
	switch op {
	case "+":
		return Add, true
	case "-":
		return Sub, true
	case "*":
		return Mul, true
	case "/":
		return Div, true
	case "%":
		return Mod, true
	case "and", "&&":
		return And, true
	case "or", "||":
		return Or, true
	case "==":
		return func(a, b Value) (Value, error) { return Bool(Equal(a, b)), nil }, true
	case "!=":
		return func(a, b Value) (Value, error) { return Bool(!Equal(a, b)), nil }, true
	case "<", "<=", ">", ">=":
		return func(a, b Value) (Value, error) { return order(op, a, b) }, true
	}
	return nil, false
}

// UnaryFn is BinaryFn for the unary operators; the returned function behaves
// exactly like Unary(op, a).
func UnaryFn(op string) (fn func(a Value) (Value, error), ok bool) {
	switch op {
	case "-":
		return Neg, true
	case "!", "not":
		return Not, true
	case "+":
		return func(a Value) (Value, error) {
			if a.IsNumeric() {
				return a, nil
			}
			return Value{}, &TypeError{Op: "+", Left: a}
		}, true
	}
	return nil, false
}

// Unary applies the named unary operator (- or !).
func Unary(op string, a Value) (Value, error) {
	if fn, ok := UnaryFn(op); ok {
		return fn(a)
	}
	return Value{}, fmt.Errorf("value: unknown unary operator %q", op)
}
