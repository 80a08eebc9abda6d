// Package gammalang implements the Gamma source language of the paper's
// Fig. 3 free-context grammar: reactions written as
//
//	Name = replace <pattern>, ... by <products> [if <cond>] [by <products> else]
//
// plus two conveniences the paper uses in prose: the parenthesized form of
// Eq. 2 ("replace (x, y) by x where x < y", with "where" a synonym for "if"),
// and an optional composition expression over reaction names using the
// paper's ';' (sequential) and '|' (parallel) operators. A file may also
// declare its initial multiset with an "init { ... }" statement.
package gammalang

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/gamma"
	"repro/internal/multiset"
	"repro/internal/rt"
	"repro/internal/value"
)

// File is a parsed Gamma source file.
type File struct {
	// Init is the declared initial multiset, or nil if the file has none.
	Init *multiset.Multiset
	// Reactions holds every reaction in declaration order.
	Reactions []*gamma.Reaction
	// Stages is the composition: each stage is a parallel group of reaction
	// names, stages run sequentially. When the file has no composition
	// expression, Stages is a single stage containing every reaction.
	Stages [][]string
}

// Program returns the file's reactions as one parallel program, the
// composition used by all of the paper's examples. It errors when the file
// declares a multi-stage composition (use Plan then).
func (f *File) Program(name string) (*gamma.Program, error) {
	if len(f.Stages) > 1 {
		return nil, fmt.Errorf("gammalang: file composes %d sequential stages; use Plan", len(f.Stages))
	}
	return gamma.NewProgram(name, f.Reactions...)
}

// Plan returns the file's composition as an executable gamma.Plan.
func (f *File) Plan(name string) (*gamma.Plan, error) {
	byName := make(map[string]*gamma.Reaction, len(f.Reactions))
	for _, r := range f.Reactions {
		byName[r.Name] = r
	}
	var stages []*gamma.Program
	for i, stage := range f.Stages {
		var rs []*gamma.Reaction
		for _, n := range stage {
			r, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("gammalang: composition names unknown reaction %s", n)
			}
			rs = append(rs, r)
		}
		p, err := gamma.NewProgram(fmt.Sprintf("%s.%d", name, i), rs...)
		if err != nil {
			return nil, err
		}
		stages = append(stages, p)
	}
	return gamma.Sequence(stages...), nil
}

// ParseFile parses a complete Gamma source file. Every error it returns is
// classified under rt.ErrParse (messages keep their line/column detail), so
// callers can route syntax problems with errors.Is rather than string checks.
func ParseFile(src string) (*File, error) {
	p, err := expr.NewParser(expr.NewLexer(src))
	if err != nil {
		return nil, rt.Mark(rt.ErrParse, err)
	}
	fp := &fileParser{p: p}
	f, err := fp.parseFile()
	if err != nil {
		return nil, rt.Mark(rt.ErrParse, err)
	}
	return f, nil
}

// ParseProgram parses src and returns its reactions as one parallel program.
func ParseProgram(name, src string) (*gamma.Program, error) {
	f, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	return f.Program(name)
}

// ParseReaction parses a single reaction.
func ParseReaction(src string) (*gamma.Reaction, error) {
	f, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	if len(f.Reactions) != 1 {
		return nil, rt.Mark(rt.ErrParse, fmt.Errorf("gammalang: expected exactly one reaction, found %d", len(f.Reactions)))
	}
	return f.Reactions[0], nil
}

// isKeyword reports whether name is reserved by the grammar.
func isKeyword(name string) bool {
	switch name {
	case "replace", "by", "if", "else", "where", "init", "and", "or", "not", "true", "false":
		return true
	}
	return false
}

type fileParser struct {
	p *expr.Parser
}

func (fp *fileParser) errf(format string, args ...any) error {
	t := fp.p.Tok()
	return &expr.SyntaxError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (fp *fileParser) at(kind expr.TokenKind, text string) bool {
	t := fp.p.Tok()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (fp *fileParser) atKeyword(kw string) bool { return fp.at(expr.TokIdent, kw) }

func (fp *fileParser) advance() error { return fp.p.Advance() }

func (fp *fileParser) expect(kind expr.TokenKind, text string) error {
	if !fp.at(kind, text) {
		if text != "" {
			return fp.errf("expected %q, found %s", text, fp.p.Tok())
		}
		return fp.errf("expected %s, found %s", kind, fp.p.Tok())
	}
	return fp.advance()
}

func (fp *fileParser) parseFile() (*File, error) {
	f := &File{}
	var composition [][]string
	for {
		t := fp.p.Tok()
		switch {
		case t.Kind == expr.TokEOF:
			if composition != nil {
				f.Stages = composition
			} else {
				var all []string
				for _, r := range f.Reactions {
					all = append(all, r.Name)
				}
				f.Stages = [][]string{all}
			}
			return f, nil
		case fp.atKeyword("init"):
			if f.Init != nil {
				return nil, fp.errf("duplicate init declaration")
			}
			if err := fp.advance(); err != nil {
				return nil, err
			}
			m, err := fp.parseMultiset()
			if err != nil {
				return nil, err
			}
			f.Init = m
		case fp.atKeyword("replace"):
			r, err := fp.parseReaction(fmt.Sprintf("R%d", len(f.Reactions)+1))
			if err != nil {
				return nil, err
			}
			f.Reactions = append(f.Reactions, r)
		case t.Kind == expr.TokIdent:
			// Either "Name = replace ..." or a composition expression.
			name := t.Text
			if isKeyword(name) {
				return nil, fp.errf("unexpected keyword %q", name)
			}
			if err := fp.advance(); err != nil {
				return nil, err
			}
			if fp.at(expr.TokOp, "=") {
				if err := fp.advance(); err != nil {
					return nil, err
				}
				if !fp.atKeyword("replace") {
					return nil, fp.errf("expected 'replace' after %s =", name)
				}
				r, err := fp.parseReaction(name)
				if err != nil {
					return nil, err
				}
				f.Reactions = append(f.Reactions, r)
				continue
			}
			if composition != nil {
				return nil, fp.errf("only one composition expression allowed")
			}
			comp, err := fp.parseComposition(name)
			if err != nil {
				return nil, err
			}
			composition = comp
		default:
			return nil, fp.errf("expected reaction, init or composition, found %s", t)
		}
	}
}

// parseComposition parses "R1 | R2 ; R3 | R4 ; ..." after its first name.
func (fp *fileParser) parseComposition(first string) ([][]string, error) {
	stages := [][]string{{first}}
	for {
		switch {
		case fp.at(expr.TokPipe, ""):
			if err := fp.advance(); err != nil {
				return nil, err
			}
		case fp.at(expr.TokSemi, ""):
			if err := fp.advance(); err != nil {
				return nil, err
			}
			stages = append(stages, nil)
		default:
			if len(stages[len(stages)-1]) == 0 {
				return nil, fp.errf("composition stage is empty")
			}
			return stages, nil
		}
		t := fp.p.Tok()
		if t.Kind != expr.TokIdent || isKeyword(t.Text) {
			return nil, fp.errf("expected reaction name in composition, found %s", t)
		}
		stages[len(stages)-1] = append(stages[len(stages)-1], t.Text)
		if err := fp.advance(); err != nil {
			return nil, err
		}
	}
}

// parseReaction parses from the 'replace' keyword.
func (fp *fileParser) parseReaction(name string) (*gamma.Reaction, error) {
	if err := fp.expect(expr.TokIdent, "replace"); err != nil {
		return nil, err
	}
	r := &gamma.Reaction{Name: name}
	// Replace list: bracketed patterns, or the Eq. 2 parenthesized form of
	// bare variables.
	if fp.at(expr.TokLParen, "") {
		if err := fp.advance(); err != nil {
			return nil, err
		}
		for {
			fld, err := fp.parseField()
			if err != nil {
				return nil, err
			}
			r.Patterns = append(r.Patterns, gamma.Pattern{fld})
			if fp.at(expr.TokComma, "") {
				if err := fp.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := fp.expect(expr.TokRParen, ""); err != nil {
			return nil, err
		}
	} else {
		for {
			pat, err := fp.parsePattern()
			if err != nil {
				return nil, err
			}
			r.Patterns = append(r.Patterns, pat)
			if fp.at(expr.TokComma, "") {
				if err := fp.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	// By clauses.
	for fp.atKeyword("by") {
		if err := fp.advance(); err != nil {
			return nil, err
		}
		br := gamma.Branch{}
		products, err := fp.parseProducts()
		if err != nil {
			return nil, err
		}
		br.Products = products
		switch {
		case fp.atKeyword("if") || fp.atKeyword("where"):
			if err := fp.advance(); err != nil {
				return nil, err
			}
			cond, err := fp.p.ParseExpr()
			if err != nil {
				return nil, err
			}
			br.Cond = cond
		case fp.atKeyword("else"):
			if err := fp.advance(); err != nil {
				return nil, err
			}
			// Cond stays nil: always-enabled branch.
		default:
			if len(r.Branches) > 0 {
				return nil, fp.errf("a later by clause needs 'if' or 'else'")
			}
		}
		r.Branches = append(r.Branches, br)
	}
	if len(r.Branches) == 0 {
		return nil, fp.errf("reaction %s has no by clause", name)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// parsePattern parses a bracketed replace-list entry: [id1, 'A1', v].
func (fp *fileParser) parsePattern() (gamma.Pattern, error) {
	if err := fp.expect(expr.TokLBrack, ""); err != nil {
		return nil, err
	}
	var pat gamma.Pattern
	for {
		fld, err := fp.parseField()
		if err != nil {
			return nil, err
		}
		pat = append(pat, fld)
		if fp.at(expr.TokComma, "") {
			if err := fp.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := fp.expect(expr.TokRBrack, ""); err != nil {
		return nil, err
	}
	return pat, nil
}

// parseField parses one pattern position: a variable name or a literal.
func (fp *fileParser) parseField() (gamma.Field, error) {
	t := fp.p.Tok()
	switch t.Kind {
	case expr.TokIdent:
		switch t.Text {
		case "true", "false":
			if err := fp.advance(); err != nil {
				return gamma.Field{}, err
			}
			return gamma.FLit(value.Bool(t.Text == "true")), nil
		case "replace", "by", "if", "else", "where", "init":
			return gamma.Field{}, fp.errf("keyword %q cannot be a pattern variable", t.Text)
		}
		if err := fp.advance(); err != nil {
			return gamma.Field{}, err
		}
		return gamma.FVar(t.Text), nil
	case expr.TokNumber:
		v, err := value.Parse(t.Text)
		if err != nil {
			return gamma.Field{}, fp.errf("bad literal %q: %v", t.Text, err)
		}
		if err := fp.advance(); err != nil {
			return gamma.Field{}, err
		}
		return gamma.FLit(v), nil
	case expr.TokString:
		if err := fp.advance(); err != nil {
			return gamma.Field{}, err
		}
		return gamma.FLit(value.Str(t.Text)), nil
	case expr.TokOp:
		if t.Text == "-" {
			if err := fp.advance(); err != nil {
				return gamma.Field{}, err
			}
			n := fp.p.Tok()
			if n.Kind != expr.TokNumber {
				return gamma.Field{}, fp.errf("expected number after '-', found %s", n)
			}
			v, err := value.Parse("-" + n.Text)
			if err != nil {
				return gamma.Field{}, fp.errf("bad literal -%q: %v", n.Text, err)
			}
			if err := fp.advance(); err != nil {
				return gamma.Field{}, err
			}
			return gamma.FLit(v), nil
		}
	}
	return gamma.Field{}, fp.errf("expected pattern field, found %s", t)
}

// parseProducts parses a by clause's product list: the literal 0 (produce
// nothing), a list of bracketed templates, or a single bare expression (the
// Eq. 2 form "by x").
func (fp *fileParser) parseProducts() ([]gamma.Template, error) {
	t := fp.p.Tok()
	if t.Kind == expr.TokNumber && t.Text == "0" {
		if err := fp.advance(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if t.Kind != expr.TokLBrack {
		// Bare expression product: a 1-tuple.
		e, err := fp.p.ParseExpr()
		if err != nil {
			return nil, err
		}
		return []gamma.Template{{e}}, nil
	}
	var products []gamma.Template
	for {
		tpl, err := fp.parseTemplate()
		if err != nil {
			return nil, err
		}
		products = append(products, tpl)
		if fp.at(expr.TokComma, "") {
			if err := fp.advance(); err != nil {
				return nil, err
			}
			if !fp.at(expr.TokLBrack, "") {
				return nil, fp.errf("expected '[' to start next product, found %s", fp.p.Tok())
			}
			continue
		}
		break
	}
	return products, nil
}

func (fp *fileParser) parseTemplate() (gamma.Template, error) {
	if err := fp.expect(expr.TokLBrack, ""); err != nil {
		return nil, err
	}
	var tpl gamma.Template
	for {
		e, err := fp.p.ParseExpr()
		if err != nil {
			return nil, err
		}
		tpl = append(tpl, e)
		if fp.at(expr.TokComma, "") {
			if err := fp.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := fp.expect(expr.TokRBrack, ""); err != nil {
		return nil, err
	}
	return tpl, nil
}

// parseMultiset parses "{ [lit, ...], ... }" into a multiset, built from the
// whole literal at once (multiset.New) as a request's init field is.
func (fp *fileParser) parseMultiset() (*multiset.Multiset, error) {
	if err := fp.expect(expr.TokLBrace, ""); err != nil {
		return nil, err
	}
	var ts []multiset.Tuple
	if fp.at(expr.TokRBrace, "") {
		return multiset.New(), fp.advance()
	}
	for {
		if err := fp.expect(expr.TokLBrack, ""); err != nil {
			return nil, err
		}
		var tup multiset.Tuple
		for {
			fld, err := fp.parseField()
			if err != nil {
				return nil, err
			}
			if fld.Var != "" {
				return nil, fp.errf("multiset elements must be literal; found variable %s", fld.Var)
			}
			tup = append(tup, fld.Lit)
			if fp.at(expr.TokComma, "") {
				if err := fp.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := fp.expect(expr.TokRBrack, ""); err != nil {
			return nil, err
		}
		ts = append(ts, tup)
		if fp.at(expr.TokComma, "") {
			if err := fp.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := fp.expect(expr.TokRBrace, ""); err != nil {
		return nil, err
	}
	return multiset.New(ts...), nil
}
