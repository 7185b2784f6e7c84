// Package predicate compiles boolean filter expressions over property
// views into graph.Predicate functions — the user-defined constraints θ
// of Section V-C in a form that can travel over the query service's
// wire protocol (closures cannot).
//
// Grammar (whitespace-insensitive):
//
//	expr       := or
//	or         := and ( "||" and )*
//	and        := unary ( "&&" unary )*
//	unary      := "!" unary | "(" expr ")" | atom
//	atom       := "has" "(" ident ")" | ident cmp literal
//	cmp        := "==" | "!=" | "<" | "<=" | ">" | ">="
//	literal    := integer | float | string | "true" | "false"
//	ident      := [A-Za-z_][A-Za-z0-9_.-]*
//	string     := '"' ... '"' (Go escaping)
//
// Semantics: a comparison on a missing property is false (use has()
// to test presence); numeric comparisons treat int and float values
// interchangeably; strings support the full ordering; booleans
// support == and !=; blobs only has().
//
// Examples:
//
//	age >= 30 && gender == true
//	has(photo) || name != "unknown"
//	!(kind == "bot") && followers > 1000
package predicate

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"subtrav/internal/graph"
)

// Compile parses src and returns the corresponding predicate. An empty
// or all-whitespace source compiles to nil (match everything), which
// is what traverse.Query expects for "no constraint".
func Compile(src string) (graph.Predicate, error) {
	if strings.TrimSpace(src) == "" {
		return nil, nil
	}
	p := &parser{lex: newLexer(src)}
	node, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.lex.peek().kind != tokEOF {
		return nil, fmt.Errorf("predicate: unexpected %q at offset %d", p.lex.peek().text, p.lex.peek().pos)
	}
	return node.eval, nil
}

// MustCompile is Compile, panicking on error; for literals in tests
// and examples.
func MustCompile(src string) graph.Predicate {
	pred, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return pred
}

// --- AST ---

type node interface {
	eval(p graph.Props) bool
}

type andNode struct{ left, right node }

func (n andNode) eval(p graph.Props) bool { return n.left.eval(p) && n.right.eval(p) }

type orNode struct{ left, right node }

func (n orNode) eval(p graph.Props) bool { return n.left.eval(p) || n.right.eval(p) }

type notNode struct{ inner node }

func (n notNode) eval(p graph.Props) bool { return !n.inner.eval(p) }

type hasNode struct{ name string }

func (n hasNode) eval(p graph.Props) bool {
	_, ok := p.Get(n.name)
	return ok
}

type cmpOp uint8

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

type cmpNode struct {
	name string
	op   cmpOp
	lit  literal
}

type literal struct {
	kind litKind
	num  float64
	str  string
	b    bool
}

type litKind uint8

const (
	litNum litKind = iota
	litStr
	litBool
)

func (n cmpNode) eval(p graph.Props) bool {
	v, ok := p.Get(n.name)
	if !ok {
		return false
	}
	switch n.lit.kind {
	case litNum:
		if v.Kind() != graph.KindInt && v.Kind() != graph.KindFloat {
			return false
		}
		return compare(v.Float64(), n.lit.num, n.op)
	case litStr:
		if v.Kind() != graph.KindString {
			return false
		}
		return compare(v.Str(), n.lit.str, n.op)
	case litBool:
		if v.Kind() != graph.KindBool {
			return false
		}
		switch n.op {
		case opEq:
			return v.IsTrue() == n.lit.b
		case opNe:
			return v.IsTrue() != n.lit.b
		default:
			return false // ordering on booleans is undefined
		}
	}
	return false
}

// compare applies op with Go's own operators, so a NaN equals nothing
// and orders against nothing.
func compare[T float64 | string](a, b T, op cmpOp) bool {
	switch op {
	case opEq:
		return a == b
	case opNe:
		return a != b
	case opLt:
		return a < b
	case opLe:
		return a <= b
	case opGt:
		return a > b
	case opGe:
		return a >= b
	}
	return false
}

// --- Lexer ---

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokAnd    // &&
	tokOr     // ||
	tokNot    // !
	tokLParen // (
	tokRParen // )
	tokCmp    // == != < <= > >=
	tokErr
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	cur  token
	read bool
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) peek() token {
	if !l.read {
		l.cur = l.scan()
		l.read = true
	}
	return l.cur
}

func (l *lexer) next() token {
	t := l.peek()
	l.read = false
	return t
}

func (l *lexer) scan() token {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}
	}
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}
	case c == '&':
		if strings.HasPrefix(l.src[l.pos:], "&&") {
			l.pos += 2
			return token{kind: tokAnd, text: "&&", pos: start}
		}
	case c == '|':
		if strings.HasPrefix(l.src[l.pos:], "||") {
			l.pos += 2
			return token{kind: tokOr, text: "||", pos: start}
		}
	case c == '!':
		if strings.HasPrefix(l.src[l.pos:], "!=") {
			l.pos += 2
			return token{kind: tokCmp, text: "!=", pos: start}
		}
		l.pos++
		return token{kind: tokNot, text: "!", pos: start}
	case c == '=':
		if strings.HasPrefix(l.src[l.pos:], "==") {
			l.pos += 2
			return token{kind: tokCmp, text: "==", pos: start}
		}
	case c == '<' || c == '>':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokCmp, text: l.src[start : start+2], pos: start}
		}
		l.pos++
		return token{kind: tokCmp, text: string(c), pos: start}
	case c == '"':
		// Go-style quoted string.
		rest := l.src[l.pos:]
		quoted, err := scanQuoted(rest)
		if err != nil {
			return token{kind: tokErr, text: err.Error(), pos: start}
		}
		l.pos += len(quoted)
		return token{kind: tokString, text: quoted, pos: start}
	case c == '-' || c == '.' || (c >= '0' && c <= '9'):
		end := l.pos + 1
		for end < len(l.src) && (l.src[end] == '.' || l.src[end] == 'e' ||
			l.src[end] == 'E' || l.src[end] == '+' || l.src[end] == '-' ||
			(l.src[end] >= '0' && l.src[end] <= '9')) {
			end++
		}
		text := l.src[l.pos:end]
		l.pos = end
		return token{kind: tokNumber, text: text, pos: start}
	case c == '_' || unicode.IsLetter(rune(c)):
		end := l.pos + 1
		for end < len(l.src) {
			e := l.src[end]
			if e == '_' || e == '.' || e == '-' || unicode.IsLetter(rune(e)) || unicode.IsDigit(rune(e)) {
				end++
				continue
			}
			break
		}
		text := l.src[l.pos:end]
		l.pos = end
		return token{kind: tokIdent, text: text, pos: start}
	}
	return token{kind: tokErr, text: fmt.Sprintf("unexpected character %q", c), pos: start}
}

// scanQuoted returns the quoted literal (including quotes) at the
// start of s.
func scanQuoted(s string) (string, error) {
	if len(s) < 2 || s[0] != '"' {
		return "", fmt.Errorf("predicate: malformed string literal")
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip escaped character
		case '"':
			return s[:i+1], nil
		}
	}
	return "", fmt.Errorf("predicate: unterminated string literal")
}

// --- Parser ---

type parser struct {
	lex *lexer
}

func (p *parser) parseExpr() (node, error) { return p.parseOr() }

func (p *parser) parseOr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.lex.peek().kind == tokOr {
		p.lex.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = orNode{left, right}
	}
	return left, nil
}

func (p *parser) parseAnd() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.lex.peek().kind == tokAnd {
		p.lex.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = andNode{left, right}
	}
	return left, nil
}

func (p *parser) parseUnary() (node, error) {
	switch t := p.lex.peek(); t.kind {
	case tokNot:
		p.lex.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notNode{inner}, nil
	case tokLParen:
		p.lex.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if got := p.lex.next(); got.kind != tokRParen {
			return nil, fmt.Errorf("predicate: expected ')' at offset %d, got %q", got.pos, got.text)
		}
		return inner, nil
	case tokIdent:
		return p.parseAtom()
	case tokErr:
		return nil, fmt.Errorf("predicate: %s at offset %d", t.text, t.pos)
	default:
		return nil, fmt.Errorf("predicate: unexpected %q at offset %d", t.text, t.pos)
	}
}

func (p *parser) parseAtom() (node, error) {
	ident := p.lex.next()
	if ident.text == "has" && p.lex.peek().kind == tokLParen {
		p.lex.next()
		name := p.lex.next()
		if name.kind != tokIdent {
			return nil, fmt.Errorf("predicate: has() needs a property name at offset %d", name.pos)
		}
		if got := p.lex.next(); got.kind != tokRParen {
			return nil, fmt.Errorf("predicate: expected ')' after has(%s)", name.text)
		}
		return hasNode{name: name.text}, nil
	}
	cmp := p.lex.next()
	if cmp.kind != tokCmp {
		return nil, fmt.Errorf("predicate: expected comparison after %q at offset %d, got %q", ident.text, cmp.pos, cmp.text)
	}
	var op cmpOp
	switch cmp.text {
	case "==":
		op = opEq
	case "!=":
		op = opNe
	case "<":
		op = opLt
	case "<=":
		op = opLe
	case ">":
		op = opGt
	case ">=":
		op = opGe
	}
	lit, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	if lit.kind == litBool && op != opEq && op != opNe {
		return nil, fmt.Errorf("predicate: booleans only support == and !=")
	}
	return cmpNode{name: ident.text, op: op, lit: lit}, nil
}

func (p *parser) parseLiteral() (literal, error) {
	t := p.lex.next()
	switch t.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return literal{}, fmt.Errorf("predicate: bad number %q at offset %d", t.text, t.pos)
		}
		return literal{kind: litNum, num: f}, nil
	case tokString:
		s, err := strconv.Unquote(t.text)
		if err != nil {
			return literal{}, fmt.Errorf("predicate: bad string %s at offset %d", t.text, t.pos)
		}
		return literal{kind: litStr, str: s}, nil
	case tokIdent:
		switch t.text {
		case "true":
			return literal{kind: litBool, b: true}, nil
		case "false":
			return literal{kind: litBool, b: false}, nil
		}
	}
	return literal{}, fmt.Errorf("predicate: expected literal at offset %d, got %q", t.pos, t.text)
}
