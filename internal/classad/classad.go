// Package classad implements a miniature ClassAd expression language —
// the attribute/expression system HTCondor uses for matchmaking between
// job requirements and machine offers. It covers the subset FDW's
// submit files need: numeric/string/bool literals, attribute references
// (resolved against a pair of ads, MY./TARGET.-style), arithmetic,
// comparisons, boolean connectives, and three-valued logic with
// UNDEFINED propagation.
package classad

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Value is the result of evaluating an expression: one of
// Undefined, bool, float64, or string.
type Value struct {
	kind kind
	b    bool
	f    float64
	s    string
}

type kind int

const (
	kindUndefined kind = iota
	kindBool
	kindNumber
	kindString
)

// Undefined is the UNDEFINED ClassAd value.
var Undefined = Value{kind: kindUndefined}

// Bool wraps a boolean value.
func Bool(b bool) Value { return Value{kind: kindBool, b: b} }

// Number wraps a numeric value.
func Number(f float64) Value { return Value{kind: kindNumber, f: f} }

// String wraps a string value.
func String(s string) Value { return Value{kind: kindString, s: s} }

// IsUndefined reports whether v is UNDEFINED.
func (v Value) IsUndefined() bool { return v.kind == kindUndefined }

// AsBool returns the boolean interpretation and whether it is defined.
func (v Value) AsBool() (bool, bool) {
	switch v.kind {
	case kindBool:
		return v.b, true
	case kindNumber:
		return v.f != 0, true
	default:
		return false, false
	}
}

// AsNumber returns the numeric interpretation and whether it is defined.
func (v Value) AsNumber() (float64, bool) {
	switch v.kind {
	case kindNumber:
		return v.f, true
	case kindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// AsString returns the string payload and whether v is a string.
func (v Value) AsString() (string, bool) {
	if v.kind == kindString {
		return v.s, true
	}
	return "", false
}

// String renders the value in ClassAd syntax.
func (v Value) String() string {
	switch v.kind {
	case kindBool:
		if v.b {
			return "true"
		}
		return "false"
	case kindNumber:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case kindString:
		return strconv.Quote(v.s)
	default:
		return "undefined"
	}
}

// Ad is an attribute set (case-insensitive keys, as in HTCondor).
type Ad map[string]Value

// Lookup retrieves attr case-insensitively. An exact-case match wins;
// among case-variant duplicates the lexicographically smallest key is
// chosen, so the result never depends on map iteration order.
func (a Ad) Lookup(attr string) (Value, bool) {
	if v, ok := a[attr]; ok {
		return v, true
	}
	low := strings.ToLower(attr)
	best := ""
	found := false
	for k := range a {
		if strings.ToLower(k) == low && (!found || k < best) {
			best, found = k, true
		}
	}
	if found {
		return a[best], true
	}
	return Undefined, false
}

// Expr is a parsed expression tree.
type Expr interface {
	// Eval resolves the expression against my (the evaluating ad) and
	// target (the ad being matched against); either may be nil.
	Eval(my, target Ad) Value
	String() string
}

// Parse compiles src into an Expr.
func Parse(src string) (Expr, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.typ != tokEOF {
		return nil, fmt.Errorf("classad: trailing input at %q", p.tok.text)
	}
	return e, nil
}

// MustParse is Parse that panics on error; for compile-time constants.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// EvalBool parses and evaluates src, treating UNDEFINED as false —
// HTCondor's matchmaking semantics for Requirements.
func EvalBool(src string, my, target Ad) (bool, error) {
	e, err := Parse(src)
	if err != nil {
		return false, err
	}
	b, ok := e.Eval(my, target).AsBool()
	return b && ok, nil
}

// ---------- lexer ----------

type tokenType int

const (
	tokEOF tokenType = iota
	tokNumber
	tokString
	tokIdent
	tokOp
	tokLParen
	tokRParen
)

type token struct {
	typ  tokenType
	text string
	num  float64
}

type lexer struct {
	src []rune
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: []rune(src)} }

func (l *lexer) lex() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{typ: tokEOF}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{typ: tokLParen, text: "("}, nil
	case c == ')':
		l.pos++
		return token{typ: tokRParen, text: ")"}, nil
	case c == '"':
		return l.lexString()
	case unicode.IsDigit(c) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(l.src[l.pos+1])):
		return l.lexNumber()
	case unicode.IsLetter(c) || c == '_':
		return l.lexIdent()
	default:
		return l.lexOp()
	}
}

func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			// Escapes are Go's, the ones Value.String writes with
			// strconv.Quote, so a printed string parses back unchanged.
			// The longest escape (\UXXXXXXXX) spans ten runes, all ASCII.
			esc := string(l.src[l.pos:min(l.pos+10, len(l.src))])
			r, multibyte, tail, err := strconv.UnquoteChar(esc, '"')
			if err != nil {
				return token{}, fmt.Errorf("classad: bad escape in string starting at %d", start)
			}
			if r < utf8.RuneSelf || !multibyte {
				sb.WriteByte(byte(r))
			} else {
				sb.WriteRune(r)
			}
			l.pos += len(esc) - len(tail)
			continue
		}
		if c == '"' {
			l.pos++
			return token{typ: tokString, text: sb.String()}, nil
		}
		sb.WriteRune(c)
		l.pos++
	}
	return token{}, fmt.Errorf("classad: unterminated string starting at %d", start)
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && (unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '.' ||
		l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
		((l.src[l.pos] == '+' || l.src[l.pos] == '-') && l.pos > start && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
		l.pos++
	}
	text := string(l.src[start:l.pos])
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, fmt.Errorf("classad: bad number %q", text)
	}
	return token{typ: tokNumber, text: text, num: f}, nil
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_' || l.src[l.pos] == '.') {
		l.pos++
	}
	return token{typ: tokIdent, text: string(l.src[start:l.pos])}, nil
}

var twoCharOps = map[string]bool{"==": true, "!=": true, "<=": true, ">=": true, "&&": true, "||": true, "=?": true}

func (l *lexer) lexOp() (token, error) {
	if l.pos+1 < len(l.src) {
		two := string(l.src[l.pos : l.pos+2])
		if twoCharOps[two] {
			l.pos += 2
			return token{typ: tokOp, text: two}, nil
		}
	}
	one := string(l.src[l.pos])
	if strings.ContainsAny(one, "+-*/<>!") {
		l.pos++
		return token{typ: tokOp, text: one}, nil
	}
	return token{}, fmt.Errorf("classad: unexpected character %q", one)
}

// ---------- parser (precedence climbing) ----------

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) next() error {
	t, err := p.lex.lex()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.typ == tokOp && p.tok.text == "||" {
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binary{"||", left, right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseCompare()
	if err != nil {
		return nil, err
	}
	for p.tok.typ == tokOp && p.tok.text == "&&" {
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseCompare()
		if err != nil {
			return nil, err
		}
		left = &binary{"&&", left, right}
	}
	return left, nil
}

var compareOps = map[string]bool{"==": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *parser) parseCompare() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for p.tok.typ == tokOp && compareOps[p.tok.text] {
		op := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		left = &binary{op, left, right}
	}
	return left, nil
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.typ == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &binary{op, left, right}
	}
	return left, nil
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.typ == tokOp && (p.tok.text == "*" || p.tok.text == "/") {
		op := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binary{op, left, right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.tok.typ == tokOp && (p.tok.text == "!" || p.tok.text == "-") {
		op := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &unary{op, operand}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.typ {
	case tokNumber:
		v := p.tok.num
		if err := p.next(); err != nil {
			return nil, err
		}
		return literal{Number(v)}, nil
	case tokString:
		s := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		return literal{String(s)}, nil
	case tokIdent:
		name := p.tok.text
		if err := p.next(); err != nil {
			return nil, err
		}
		switch strings.ToLower(name) {
		case "true":
			return literal{Bool(true)}, nil
		case "false":
			return literal{Bool(false)}, nil
		case "undefined":
			return literal{Undefined}, nil
		}
		return &attrRef{name}, nil
	case tokLParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.typ != tokRParen {
			return nil, fmt.Errorf("classad: expected ')' at %q", p.tok.text)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("classad: unexpected token %q", p.tok.text)
	}
}

// ---------- AST ----------

type literal struct{ v Value }

func (l literal) Eval(_, _ Ad) Value { return l.v }
func (l literal) String() string     { return l.v.String() }

// attrRef resolves MY.x against my, TARGET.x against target, and a bare
// name first against my, then target (HTCondor's matching order).
type attrRef struct{ name string }

func (a *attrRef) Eval(my, target Ad) Value {
	name := a.name
	low := strings.ToLower(name)
	switch {
	case strings.HasPrefix(low, "my."):
		if my == nil {
			return Undefined
		}
		v, _ := my.Lookup(name[3:])
		return v
	case strings.HasPrefix(low, "target."):
		if target == nil {
			return Undefined
		}
		v, _ := target.Lookup(name[7:])
		return v
	}
	if my != nil {
		if v, ok := my.Lookup(name); ok {
			return v
		}
	}
	if target != nil {
		if v, ok := target.Lookup(name); ok {
			return v
		}
	}
	return Undefined
}
func (a *attrRef) String() string { return a.name }

type unary struct {
	op string
	x  Expr
}

func (u *unary) Eval(my, target Ad) Value {
	v := u.x.Eval(my, target)
	switch u.op {
	case "!":
		b, ok := v.AsBool()
		if !ok {
			return Undefined
		}
		return Bool(!b)
	case "-":
		f, ok := v.AsNumber()
		if !ok {
			return Undefined
		}
		return Number(-f)
	}
	return Undefined
}
func (u *unary) String() string { return u.op + u.x.String() }

type binary struct {
	op   string
	l, r Expr
}

func (b *binary) Eval(my, target Ad) Value {
	switch b.op {
	case "&&":
		// Three-valued logic: false && anything == false.
		lv, lok := b.l.Eval(my, target).AsBool()
		if lok && !lv {
			return Bool(false)
		}
		rv, rok := b.r.Eval(my, target).AsBool()
		if rok && !rv {
			return Bool(false)
		}
		if lok && rok {
			return Bool(true)
		}
		return Undefined
	case "||":
		lv, lok := b.l.Eval(my, target).AsBool()
		if lok && lv {
			return Bool(true)
		}
		rv, rok := b.r.Eval(my, target).AsBool()
		if rok && rv {
			return Bool(true)
		}
		if lok && rok {
			return Bool(false)
		}
		return Undefined
	}
	lv := b.l.Eval(my, target)
	rv := b.r.Eval(my, target)
	if lv.IsUndefined() || rv.IsUndefined() {
		return Undefined
	}
	// String comparison when both sides are strings.
	if ls, ok := lv.AsString(); ok {
		if rs, ok2 := rv.AsString(); ok2 {
			switch b.op {
			case "==":
				return Bool(strings.EqualFold(ls, rs))
			case "!=":
				return Bool(!strings.EqualFold(ls, rs))
			case "<":
				return Bool(ls < rs)
			case "<=":
				return Bool(ls <= rs)
			case ">":
				return Bool(ls > rs)
			case ">=":
				return Bool(ls >= rs)
			default:
				return Undefined
			}
		}
	}
	lf, lok := lv.AsNumber()
	rf, rok := rv.AsNumber()
	if !lok || !rok {
		return Undefined
	}
	switch b.op {
	case "+":
		return Number(lf + rf)
	case "-":
		return Number(lf - rf)
	case "*":
		return Number(lf * rf)
	case "/":
		if rf == 0 {
			return Undefined
		}
		return Number(lf / rf)
	case "==":
		return Bool(lf == rf)
	case "!=":
		return Bool(lf != rf)
	case "<":
		return Bool(lf < rf)
	case "<=":
		return Bool(lf <= rf)
	case ">":
		return Bool(lf > rf)
	case ">=":
		return Bool(lf >= rf)
	}
	return Undefined
}
func (b *binary) String() string {
	return "(" + b.l.String() + " " + b.op + " " + b.r.String() + ")"
}
