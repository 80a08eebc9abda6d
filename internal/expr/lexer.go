package expr

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens. The lexer is shared with the Gamma DSL
// parser (package gammalang), which layers its keywords on top of TokIdent.
type TokenKind uint8

// Token kinds produced by the Lexer.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokOp     // + - * / % == != < <= > >= ! && || =
	TokLParen // (
	TokRParen // )
	TokLBrack // [
	TokRBrack // ]
	TokLBrace // {
	TokRBrace // }
	TokComma  // ,
	TokSemi   // ;
	TokPipe   // | (Gamma parallel composition)
	TokNewline
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokOp:
		return "operator"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokLBrack:
		return "'['"
	case TokRBrack:
		return "']'"
	case TokLBrace:
		return "'{'"
	case TokRBrace:
		return "'}'"
	case TokComma:
		return "','"
	case TokSemi:
		return "';'"
	case TokPipe:
		return "'|'"
	case TokNewline:
		return "newline"
	default:
		return "unknown"
	}
}

// Token is a lexical token with its source position (1-based line/column).
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Text == "" {
		return t.Kind.String()
	}
	return fmt.Sprintf("%s %q", t.Kind, t.Text)
}

// SyntaxError reports a lexical or parse error with position information.
type SyntaxError struct {
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Lexer tokenizes expression and Gamma DSL source text. Comments run from
// '#' or '//' to end of line. When KeepNewlines is set, end-of-line is
// reported as a TokNewline token (the Gamma DSL is line-sensitive); otherwise
// newlines are plain whitespace.
type Lexer struct {
	src          string
	pos          int
	line, col    int
	KeepNewlines bool
}

// NewLexer returns a Lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

// skipSpace consumes whitespace and comments, stopping before a newline when
// KeepNewlines is set.
func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			if l.KeepNewlines {
				return
			}
			l.advance(1)
		case c == ' ' || c == '\t' || c == '\r':
			l.advance(1)
		case c == '#':
			l.skipToEOL()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipToEOL()
		default:
			return
		}
	}
}

func (l *Lexer) skipToEOL() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.advance(1)
	}
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '\n':
		tok.Kind = TokNewline
		l.advance(1)
		return tok, nil
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case c == '\'' || c == '"':
		return l.lexString(c)
	case c == '(':
		tok.Kind = TokLParen
	case c == ')':
		tok.Kind = TokRParen
	case c == '[':
		tok.Kind = TokLBrack
	case c == ']':
		tok.Kind = TokRBrack
	case c == '{':
		tok.Kind = TokLBrace
	case c == '}':
		tok.Kind = TokRBrace
	case c == ',':
		tok.Kind = TokComma
	case c == ';':
		tok.Kind = TokSemi
	default:
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		if isIdentStart(r) {
			return l.lexIdent()
		}
		return l.lexOperator()
	}
	tok.Text = string(c)
	l.advance(1)
	return tok, nil
}

func (l *Lexer) lexNumber() (Token, error) {
	tok := Token{Kind: TokNumber, Line: l.line, Col: l.col}
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.advance(1)
			continue
		}
		if c == '.' && !seenDot && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			seenDot = true
			l.advance(1)
			continue
		}
		break
	}
	tok.Text = l.src[start:l.pos]
	return tok, nil
}

func (l *Lexer) lexString(quote byte) (Token, error) {
	tok := Token{Kind: TokString, Line: l.line, Col: l.col}
	l.advance(1) // opening quote
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != quote && l.src[l.pos] != '\n' {
		l.advance(1)
	}
	if l.pos >= len(l.src) || l.src[l.pos] != quote {
		return tok, l.errf("unterminated string literal")
	}
	tok.Text = l.src[start:l.pos]
	l.advance(1) // closing quote
	return tok, nil
}

func (l *Lexer) lexIdent() (Token, error) {
	tok := Token{Kind: TokIdent, Line: l.line, Col: l.col}
	start := l.pos
	for l.pos < len(l.src) {
		r, sz := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.advance(sz)
	}
	tok.Text = l.src[start:l.pos]
	return tok, nil
}

// twoByteOps are the operators spelled with two characters, checked before
// single-character operators so "==" does not lex as "=", "=".
var twoByteOps = []string{"==", "!=", "<=", ">=", "&&", "||"}

func (l *Lexer) lexOperator() (Token, error) {
	tok := Token{Kind: TokOp, Line: l.line, Col: l.col}
	rest := l.src[l.pos:]
	for _, op := range twoByteOps {
		if strings.HasPrefix(rest, op) {
			tok.Text = op
			l.advance(2)
			return tok, nil
		}
	}
	switch rest[0] {
	case '+', '-', '*', '/', '%', '<', '>', '!', '=':
		tok.Text = string(rest[0])
		l.advance(1)
		return tok, nil
	case '|':
		tok.Kind = TokPipe
		tok.Text = "|"
		l.advance(1)
		return tok, nil
	}
	return tok, l.errf("unexpected character %q", rest[0])
}
