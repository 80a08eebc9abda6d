// Package gamma implements the Gamma computational model (Banâtre & Le
// Métayer's General Abstract Model for Multiset mAnipulation) as defined in
// §II-B of the paper: programs are sets of (Reaction condition, Action) pairs
// applied to a multiset until a stable state is reached (Eq. 1), with both a
// sequential interpreter and a nondeterministic parallel runtime.
package gamma

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/expr"
	"repro/internal/multiset"
	"repro/internal/value"
)

// Field is one position of a replace-list pattern: either a binding variable
// (Var non-empty) or a literal that must match exactly (Lit valid). In the
// paper's notation, [id1, 'A1', v] is three fields: variable id1, literal
// 'A1', variable v.
type Field struct {
	Var string
	Lit value.Value
}

// FVar returns a variable field.
func FVar(name string) Field { return Field{Var: name} }

// FLit returns a literal field.
func FLit(v value.Value) Field { return Field{Lit: v} }

// FLabel returns a literal string field, the edge-label convention.
func FLabel(label string) Field { return Field{Lit: value.Str(label)} }

func (f Field) String() string {
	if f.Var != "" {
		return f.Var
	}
	return f.Lit.String()
}

// Pattern matches one multiset element of exactly len(Pattern) fields.
type Pattern []Field

func (p Pattern) String() string {
	parts := make([]string, len(p))
	for i, f := range p {
		parts[i] = f.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Template is one product element: a tuple of expressions evaluated under the
// match bindings. In R1 of the paper, [id1 + id2, 'B2'] is a two-field
// template.
type Template []expr.Expr

func (tpl Template) String() string {
	parts := make([]string, len(tpl))
	for i, e := range tpl {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Branch is one "by ... [if cond]" clause. A nil Cond is the else branch
// (always enabled). Empty Products is the paper's "by 0": the matched
// elements are consumed and nothing is produced (how steer reactions discard
// the false path in R15–R17).
type Branch struct {
	Cond     expr.Expr
	Products []Template
}

// Reaction is one (condition, action) pair of the Γ operator. A reaction is
// enabled on a multiset when some combination of elements matches Patterns
// with consistent bindings and at least one Branch condition holds; firing
// replaces the matched elements with the enabled branch's products.
//
// Branches are tried in order and the first enabled one fires, mirroring the
// paper's "by P1 if C / by P2 else" notation. When no branch is enabled for a
// binding, that binding does not fire — so a sole "by P if C" acts as a
// reaction condition in the sense of Eq. 2's "where" clause.
type Reaction struct {
	Name     string
	Patterns []Pattern
	Branches []Branch

	kernOnce  sync.Once
	kern      *kernel
	validOnce sync.Once
	invalid   error // Validate's verdict, taken once
}

// Arity returns the number of elements the reaction consumes.
func (r *Reaction) Arity() int { return len(r.Patterns) }

// Validate checks structural well-formedness: at least one pattern and one
// branch, every expression variable bound by some pattern, and at most one
// else branch, in final position. The verdict is taken once and kept: a
// reaction is frozen at its first Validate — the parser's, NewProgram's or its
// first run's, whichever comes first — as it is at its first run.
func (r *Reaction) Validate() error {
	r.validOnce.Do(func() { r.invalid = r.validate() })
	return r.invalid
}

// validated, when set, sees every walk of validate; the tests count them.
var validated func(*Reaction)

func (r *Reaction) validate() error {
	if validated != nil {
		validated(r)
	}
	if len(r.Patterns) == 0 {
		return fmt.Errorf("gamma: reaction %s has no replace list", r.Name)
	}
	if len(r.Branches) == 0 {
		return fmt.Errorf("gamma: reaction %s has no by clause", r.Name)
	}
	boundVars := make(map[string]bool)
	for _, p := range r.Patterns {
		if len(p) == 0 {
			return fmt.Errorf("gamma: reaction %s has an empty pattern", r.Name)
		}
		for _, f := range p {
			if f.Var != "" {
				boundVars[f.Var] = true
			} else if !f.Lit.IsValid() {
				return fmt.Errorf("gamma: reaction %s has a field with neither var nor literal", r.Name)
			}
		}
	}
	checkExpr := func(e expr.Expr, where string) error {
		for _, v := range expr.FreeVars(e) {
			if !boundVars[v] {
				return fmt.Errorf("gamma: reaction %s: variable %s in %s is not bound by the replace list", r.Name, v, where)
			}
		}
		return nil
	}
	for i, b := range r.Branches {
		if b.Cond == nil && i != len(r.Branches)-1 {
			return fmt.Errorf("gamma: reaction %s: else branch must be last", r.Name)
		}
		if b.Cond != nil {
			if err := checkExpr(b.Cond, "condition"); err != nil {
				return err
			}
		}
		for _, tpl := range b.Products {
			for _, e := range tpl {
				if err := checkExpr(e, "product"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ReplayFiring re-executes one recorded firing of r through its kernel, the
// code the engines fire: chosen must hold the consumed tuples in pattern
// order (the order the schedule recorder emits); each is matched against its
// pattern with consistent bindings, the first enabled branch is selected, and
// its products are returned. A replay engine compares them against the
// recorded products to verify that the kernel still reproduces the original
// execution. Errors name the failing pattern or report that no branch is
// enabled — both are divergences, not program bugs.
func (r *Reaction) ReplayFiring(chosen []multiset.Tuple) ([]multiset.Tuple, error) {
	if len(chosen) != len(r.Patterns) {
		return nil, fmt.Errorf("gamma: reaction %s consumes %d elements, schedule step has %d", r.Name, len(r.Patterns), len(chosen))
	}
	k := r.kernel()
	env := make([]value.Value, k.nslots)
	for i := range k.pats {
		if !k.pats[i].match(chosen[i], env) {
			return nil, fmt.Errorf("gamma: reaction %s: element %s does not match pattern %s", r.Name, chosen[i], r.Patterns[i])
		}
	}
	branch, err := k.selectBranch(r.Name, env)
	if err != nil {
		return nil, err
	}
	if branch < 0 {
		return nil, fmt.Errorf("gamma: reaction %s: no branch enabled for the recorded elements", r.Name)
	}
	_, products, err := k.produceInto(r.Name, branch, env, nil, nil)
	if err != nil {
		return nil, err
	}
	return products, nil
}

// String renders the reaction in the paper's listing style.
func (r *Reaction) String() string {
	var b strings.Builder
	if r.Name != "" {
		fmt.Fprintf(&b, "%s = ", r.Name)
	}
	b.WriteString("replace ")
	for i, p := range r.Patterns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	for i, br := range r.Branches {
		b.WriteString("\n  by ")
		if len(br.Products) == 0 {
			b.WriteString("0")
		} else {
			for j, tpl := range br.Products {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(tpl.String())
			}
		}
		switch {
		case br.Cond != nil:
			b.WriteString("\n  if " + br.Cond.String())
		case i > 0:
			b.WriteString("\n  else")
		}
	}
	return b.String()
}

// Program is a set of reactions composed in parallel (R1 | R2 | ... | Rn),
// the composition used throughout the paper's examples.
//
// Reactions are treated as immutable once the program runs: the runtime
// caches the label → reactions subscription index (see schedule.go) on first
// execution.
type Program struct {
	Name      string
	Reactions []*Reaction

	subsOnce sync.Once
	subsIdx  *subscriptions
}

// NewProgram builds a program and validates every reaction.
func NewProgram(name string, reactions ...*Reaction) (*Program, error) {
	for _, r := range reactions {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return &Program{Name: name, Reactions: reactions}, nil
}

// MustProgram is NewProgram that panics on error; for tests and fixtures.
func MustProgram(name string, reactions ...*Reaction) *Program {
	p, err := NewProgram(name, reactions...)
	if err != nil {
		panic(err)
	}
	return p
}

// Reaction returns the reaction with the given name, or nil.
func (p *Program) Reaction(name string) *Reaction {
	for _, r := range p.Reactions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// String renders all reactions separated by blank lines.
func (p *Program) String() string {
	parts := make([]string, len(p.Reactions))
	for i, r := range p.Reactions {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n\n")
}
