// Package xqparse parses the XQuery subset into internal/xqast trees. It is
// a hand-written recursive-descent parser over internal/xqlex tokens;
// keyword recognition is contextual because XQuery reserves no words. Direct
// element constructors are parsed in a raw-source XML mode that hands
// enclosed { expressions } back to the expression parser.
package xqparse

import (
	"fmt"
	"strconv"

	"soxq/internal/xpath"
	"soxq/internal/xqast"
	"soxq/internal/xqlex"
)

// Error is a syntax error (error code XPST0003) with source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("xquery:%d:%d: syntax error: %s", e.Line, e.Col, e.Msg)
}

// Parse parses a complete query (prolog + body).
func Parse(src string) (*xqast.Module, error) {
	p := &parser{lx: xqlex.New(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	m, err := p.parseModule()
	if err != nil {
		return nil, err
	}
	return m, nil
}

type parser struct {
	lx     *xqlex.Lexer
	tok    xqlex.Token
	peeked *xqlex.Token
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Line: p.tok.Line, Col: p.tok.Col, Msg: fmt.Sprintf(format, args...)}
}

// next advances to the next token.
func (p *parser) next() error {
	if p.peeked != nil {
		p.tok = *p.peeked
		p.peeked = nil
		return nil
	}
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peek looks one token ahead of the current token.
func (p *parser) peek() (xqlex.Token, error) {
	if p.peeked == nil {
		t, err := p.lx.Next()
		if err != nil {
			return xqlex.Token{}, err
		}
		p.peeked = &t
	}
	return *p.peeked, nil
}

func (p *parser) isSym(s string) bool {
	return p.tok.Kind == xqlex.Symbol && p.tok.Text == s
}

func (p *parser) isName(s string) bool {
	return p.tok.Kind == xqlex.Name && p.tok.Text == s
}

func (p *parser) expectSym(s string) error {
	if !p.isSym(s) {
		return p.errf("expected %q, found %s", s, p.tok)
	}
	return p.next()
}

func (p *parser) expectName() (string, error) {
	if p.tok.Kind != xqlex.Name {
		return "", p.errf("expected a name, found %s", p.tok)
	}
	n := p.tok.Text
	return n, p.next()
}

func (p *parser) parseModule() (*xqast.Module, error) {
	m := &xqast.Module{}
	// Optional version declaration: xquery version "1.0";
	if p.isName("xquery") {
		nx, err := p.peek()
		if err != nil {
			return nil, err
		}
		if nx.Kind == xqlex.Name && nx.Text == "version" {
			if err := p.next(); err != nil { // 'xquery'
				return nil, err
			}
			if err := p.next(); err != nil { // 'version'
				return nil, err
			}
			if p.tok.Kind != xqlex.String {
				return nil, p.errf("expected version string")
			}
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectSym(";"); err != nil {
				return nil, err
			}
		}
	}
	for p.isName("declare") {
		nx, err := p.peek()
		if err != nil {
			return nil, err
		}
		if nx.Kind != xqlex.Name {
			break
		}
		switch nx.Text {
		case "option", "namespace", "function", "variable":
		default:
			return nil, p.errf("unsupported declaration 'declare %s'", nx.Text)
		}
		if err := p.next(); err != nil { // 'declare'
			return nil, err
		}
		kind := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		switch kind {
		case "option":
			name, err := p.expectName()
			if err != nil {
				return nil, err
			}
			if p.tok.Kind != xqlex.String {
				return nil, p.errf("expected option value string")
			}
			m.Options = append(m.Options, xqast.OptionDecl{Name: name, Value: p.tok.Text})
			if err := p.next(); err != nil {
				return nil, err
			}
		case "namespace":
			prefix, err := p.expectName()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym("="); err != nil {
				return nil, err
			}
			if p.tok.Kind != xqlex.String {
				return nil, p.errf("expected namespace URI string")
			}
			m.Namespaces = append(m.Namespaces, xqast.NamespaceDecl{Prefix: prefix, URI: p.tok.Text})
			if err := p.next(); err != nil {
				return nil, err
			}
		case "function":
			fd, err := p.parseFunctionDecl()
			if err != nil {
				return nil, err
			}
			m.Functions = append(m.Functions, fd)
		case "variable":
			if err := p.expectSym("$"); err != nil {
				return nil, err
			}
			name, err := p.expectName()
			if err != nil {
				return nil, err
			}
			if p.isName("as") {
				if err := p.skipSeqType(); err != nil {
					return nil, err
				}
			}
			if err := p.expectSym(":="); err != nil {
				return nil, err
			}
			val, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			m.Variables = append(m.Variables, &xqast.VarDecl{Name: name, Value: val})
		}
		if err := p.expectSym(";"); err != nil {
			return nil, err
		}
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != xqlex.EOF {
		return nil, p.errf("unexpected %s after query body", p.tok)
	}
	m.Body = body
	return m, nil
}

func (p *parser) parseFunctionDecl() (*xqast.FunctionDecl, error) {
	name, err := p.expectName()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	fd := &xqast.FunctionDecl{Name: name}
	for !p.isSym(")") {
		if len(fd.Params) > 0 {
			if err := p.expectSym(","); err != nil {
				return nil, err
			}
		}
		if err := p.expectSym("$"); err != nil {
			return nil, err
		}
		pn, err := p.expectName()
		if err != nil {
			return nil, err
		}
		if p.isName("as") {
			if err := p.skipSeqType(); err != nil {
				return nil, err
			}
		}
		fd.Params = append(fd.Params, pn)
	}
	if err := p.next(); err != nil { // ')'
		return nil, err
	}
	if p.isName("as") {
		if err := p.skipSeqType(); err != nil {
			return nil, err
		}
	}
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

// skipSeqType consumes an "as SequenceType" annotation; the engine is
// dynamically typed so the annotation is discarded.
func (p *parser) skipSeqType() error {
	if err := p.next(); err != nil { // 'as'
		return err
	}
	if p.tok.Kind != xqlex.Name {
		return p.errf("expected a type name after 'as'")
	}
	if err := p.next(); err != nil {
		return err
	}
	// Optional parenthesised kind-test arguments: item(), node(), ...
	if p.isSym("(") {
		depth := 0
		for {
			if p.isSym("(") {
				depth++
			} else if p.isSym(")") {
				depth--
			} else if p.tok.Kind == xqlex.EOF {
				return p.errf("unterminated type annotation")
			}
			if err := p.next(); err != nil {
				return err
			}
			if depth == 0 {
				break
			}
		}
	}
	// Occurrence indicator.
	for _, occ := range []string{"?", "*", "+"} {
		if p.isSym(occ) {
			return p.next()
		}
	}
	return nil
}

// parseExpr parses a comma-separated sequence expression.
func (p *parser) parseExpr() (xqast.Expr, error) {
	e, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	for p.isSym(",") {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		e = &xqast.Binary{Op: ",", L: e, R: r}
	}
	return e, nil
}

func (p *parser) parseExprSingle() (xqast.Expr, error) {
	if p.tok.Kind == xqlex.Name {
		nx, err := p.peek()
		if err != nil {
			return nil, err
		}
		nxSym := func(s string) bool { return nx.Kind == xqlex.Symbol && nx.Text == s }
		switch {
		case (p.isName("for") || p.isName("let")) && nxSym("$"):
			return p.parseFLWOR()
		case (p.isName("some") || p.isName("every")) && nxSym("$"):
			return p.parseQuantified()
		case p.isName("if") && nxSym("("):
			return p.parseIf()
		}
	}
	return p.parseOr()
}

func (p *parser) parseFLWOR() (xqast.Expr, error) {
	fl := &xqast.FLWOR{}
	for {
		if !(p.tok.Kind == xqlex.Name && (p.tok.Text == "for" || p.tok.Text == "let")) {
			break
		}
		nx, err := p.peek()
		if err != nil {
			return nil, err
		}
		if !(nx.Kind == xqlex.Symbol && nx.Text == "$") {
			break
		}
		isFor := p.tok.Text == "for"
		if err := p.next(); err != nil {
			return nil, err
		}
		for {
			if err := p.expectSym("$"); err != nil {
				return nil, err
			}
			v, err := p.expectName()
			if err != nil {
				return nil, err
			}
			if p.isName("as") {
				if err := p.skipSeqType(); err != nil {
					return nil, err
				}
			}
			if isFor {
				pos := ""
				if p.isName("at") {
					if err := p.next(); err != nil {
						return nil, err
					}
					if err := p.expectSym("$"); err != nil {
						return nil, err
					}
					pos, err = p.expectName()
					if err != nil {
						return nil, err
					}
				}
				if !p.isName("in") {
					return nil, p.errf("expected 'in' in for clause, found %s", p.tok)
				}
				if err := p.next(); err != nil {
					return nil, err
				}
				seq, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fl.Clauses = append(fl.Clauses, &xqast.ForClause{Var: v, Pos: pos, Seq: seq})
			} else {
				if err := p.expectSym(":="); err != nil {
					return nil, err
				}
				seq, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fl.Clauses = append(fl.Clauses, &xqast.LetClause{Var: v, Seq: seq})
			}
			if p.isSym(",") {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if len(fl.Clauses) == 0 {
		return nil, p.errf("expected for/let clause")
	}
	if p.isName("where") {
		if err := p.next(); err != nil {
			return nil, err
		}
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		fl.Where = w
	}
	if p.isName("stable") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if !p.isName("order") {
			return nil, p.errf("expected 'order' after 'stable'")
		}
	}
	if p.isName("order") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if !p.isName("by") {
			return nil, p.errf("expected 'by' after 'order'")
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			spec := xqast.OrderSpec{Key: key, EmptyLeast: true}
			if p.isName("ascending") {
				if err := p.next(); err != nil {
					return nil, err
				}
			} else if p.isName("descending") {
				spec.Descending = true
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			if p.isName("empty") {
				if err := p.next(); err != nil {
					return nil, err
				}
				switch {
				case p.isName("greatest"):
					spec.EmptyLeast = false
				case p.isName("least"):
					spec.EmptyLeast = true
				default:
					return nil, p.errf("expected 'greatest' or 'least'")
				}
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			fl.OrderBy = append(fl.OrderBy, spec)
			if p.isSym(",") {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if !p.isName("return") {
		return nil, p.errf("expected 'return', found %s", p.tok)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	fl.Return = ret
	return fl, nil
}

func (p *parser) parseQuantified() (xqast.Expr, error) {
	every := p.isName("every")
	if err := p.next(); err != nil {
		return nil, err
	}
	type qbind struct {
		v   string
		seq xqast.Expr
	}
	var binds []qbind
	for {
		if err := p.expectSym("$"); err != nil {
			return nil, err
		}
		v, err := p.expectName()
		if err != nil {
			return nil, err
		}
		if p.isName("as") {
			if err := p.skipSeqType(); err != nil {
				return nil, err
			}
		}
		if !p.isName("in") {
			return nil, p.errf("expected 'in' in quantified expression")
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		seq, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		binds = append(binds, qbind{v: v, seq: seq})
		if p.isSym(",") {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if !p.isName("satisfies") {
		return nil, p.errf("expected 'satisfies', found %s", p.tok)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	cond, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	// Nest multiple bindings inner-to-outer.
	e := cond
	for i := len(binds) - 1; i >= 0; i-- {
		e = &xqast.Quantified{Every: every, Var: binds[i].v, Seq: binds[i].seq, Satisfies: e}
	}
	return e, nil
}

func (p *parser) parseIf() (xqast.Expr, error) {
	if err := p.next(); err != nil { // 'if'
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if !p.isName("then") {
		return nil, p.errf("expected 'then', found %s", p.tok)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	thenE, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if !p.isName("else") {
		return nil, p.errf("expected 'else', found %s", p.tok)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	elseE, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &xqast.IfExpr{Cond: cond, Then: thenE, Else: elseE}, nil
}

func (p *parser) parseOr() (xqast.Expr, error) {
	e, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isName("or") {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		e = &xqast.Binary{Op: "or", L: e, R: r}
	}
	return e, nil
}

func (p *parser) parseAnd() (xqast.Expr, error) {
	e, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.isName("and") {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		e = &xqast.Binary{Op: "and", L: e, R: r}
	}
	return e, nil
}

var valueComps = map[string]bool{"eq": true, "ne": true, "lt": true, "le": true, "gt": true, "ge": true}

func (p *parser) parseComparison() (xqast.Expr, error) {
	e, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	var op string
	switch {
	case p.tok.Kind == xqlex.Symbol:
		switch p.tok.Text {
		case "=", "!=", "<", "<=", ">", ">=", "<<", ">>":
			op = p.tok.Text
		}
	case p.tok.Kind == xqlex.Name:
		if valueComps[p.tok.Text] || p.tok.Text == "is" {
			op = p.tok.Text
		}
	}
	if op == "" {
		return e, nil
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	r, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	return &xqast.Binary{Op: op, L: e, R: r}, nil
}

func (p *parser) parseRange() (xqast.Expr, error) {
	e, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.isName("to") {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &xqast.Binary{Op: "to", L: e, R: r}, nil
	}
	return e, nil
}

func (p *parser) parseAdditive() (xqast.Expr, error) {
	e, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.isSym("+") || p.isSym("-") {
		op := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		e = &xqast.Binary{Op: op, L: e, R: r}
	}
	return e, nil
}

func (p *parser) parseMultiplicative() (xqast.Expr, error) {
	e, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		if p.isSym("*") {
			op = "*"
		} else if p.isName("div") || p.isName("idiv") || p.isName("mod") {
			op = p.tok.Text
		} else {
			return e, nil
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		e = &xqast.Binary{Op: op, L: e, R: r}
	}
}

func (p *parser) parseUnion() (xqast.Expr, error) {
	e, err := p.parseIntersectExcept()
	if err != nil {
		return nil, err
	}
	for p.isSym("|") || p.isName("union") {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseIntersectExcept()
		if err != nil {
			return nil, err
		}
		e = &xqast.Binary{Op: "union", L: e, R: r}
	}
	return e, nil
}

func (p *parser) parseIntersectExcept() (xqast.Expr, error) {
	e, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isName("intersect") || p.isName("except") {
		op := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		e = &xqast.Binary{Op: op, L: e, R: r}
	}
	return e, nil
}

func (p *parser) parseUnary() (xqast.Expr, error) {
	neg := false
	any := false
	for p.isSym("-") || p.isSym("+") {
		if p.isSym("-") {
			neg = !neg
		}
		any = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	e, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	if any {
		return &xqast.Unary{Neg: neg, X: e}, nil
	}
	return e, nil
}

// parsePath parses absolute and relative path expressions.
func (p *parser) parsePath() (xqast.Expr, error) {
	path := &xqast.Path{}
	switch {
	case p.isSym("/"):
		path.Absolute = true
		if err := p.next(); err != nil {
			return nil, err
		}
		if !p.startsStep() {
			// A lone "/" selects the root.
			return path, nil
		}
		if err := p.appendStep(path); err != nil {
			return nil, err
		}
	case p.isSym("//"):
		path.Absolute = true
		if err := p.next(); err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, &xqast.Step{
			Axis: xpath.AxisDescendantOrSelf, Test: xpath.Test{Kind: xpath.TestAnyNode},
		})
		if !p.startsStep() {
			return nil, p.errf("expected a step after '//'")
		}
		if err := p.appendStep(path); err != nil {
			return nil, err
		}
	default:
		// Relative path: first step may be a primary expression.
		first, firstStep, err := p.parseStepOrPrimary()
		if err != nil {
			return nil, err
		}
		if firstStep == nil {
			if !p.isSym("/") && !p.isSym("//") {
				return first, nil // plain primary expression, no path
			}
			path.Start = first
		} else {
			path.Steps = append(path.Steps, firstStep)
		}
	}
	for {
		switch {
		case p.isSym("//"):
			if err := p.next(); err != nil {
				return nil, err
			}
			path.Steps = append(path.Steps, &xqast.Step{
				Axis: xpath.AxisDescendantOrSelf, Test: xpath.Test{Kind: xpath.TestAnyNode},
			})
		case p.isSym("/"):
			if err := p.next(); err != nil {
				return nil, err
			}
		default:
			if len(path.Steps) == 0 && path.Start != nil {
				return path.Start, nil
			}
			return path, nil
		}
		st, step, err := p.parseStepOrPrimary()
		if err != nil {
			return nil, err
		}
		if step != nil {
			path.Steps = append(path.Steps, step)
			continue
		}
		// "." in step position (the Figure 2 idiom "(...)/." for doc-order
		// dedup) is self::node(); likewise ".[pred]".
		if sstep, ok := contextItemAsStep(st); ok {
			path.Steps = append(path.Steps, sstep)
			continue
		}
		return nil, p.errf("expression steps other than axis steps are not supported after '/'")
	}
}

// appendStep parses one axis step (or a "."-style step) and appends it.
func (p *parser) appendStep(path *xqast.Path) error {
	st, step, err := p.parseStepOrPrimary()
	if err != nil {
		return err
	}
	if step != nil {
		path.Steps = append(path.Steps, step)
		return nil
	}
	if sstep, ok := contextItemAsStep(st); ok {
		path.Steps = append(path.Steps, sstep)
		return nil
	}
	return p.errf("expected an axis step")
}

// contextItemAsStep converts "." (optionally with predicates) into a
// self::node() step.
func contextItemAsStep(e xqast.Expr) (*xqast.Step, bool) {
	switch v := e.(type) {
	case *xqast.ContextItem:
		return &xqast.Step{Axis: xpath.AxisSelf, Test: xpath.Test{Kind: xpath.TestAnyNode}}, true
	case *xqast.Filter:
		if _, ok := v.Base.(*xqast.ContextItem); ok {
			return &xqast.Step{Axis: xpath.AxisSelf, Test: xpath.Test{Kind: xpath.TestAnyNode},
				Predicates: v.Predicates}, true
		}
	}
	return nil, false
}

// startsStep reports whether the current token can begin an axis step.
func (p *parser) startsStep() bool {
	switch p.tok.Kind {
	case xqlex.Name:
		return true
	case xqlex.Symbol:
		switch p.tok.Text {
		case "@", "..", "*", ".":
			return true
		}
	}
	return false
}

// parseStepOrPrimary parses either an axis step (step != nil) or a
// primary/filter expression (expr != nil).
func (p *parser) parseStepOrPrimary() (xqast.Expr, *xqast.Step, error) {
	// Context item "." — a primary expression; "." followed by predicates
	// is a filter.
	if p.isSym(".") {
		if err := p.next(); err != nil {
			return nil, nil, err
		}
		e, err := p.parsePredicatesInto(&xqast.ContextItem{})
		return e, nil, err
	}
	if p.isSym("..") {
		if err := p.next(); err != nil {
			return nil, nil, err
		}
		st := &xqast.Step{Axis: xpath.AxisParent, Test: xpath.Test{Kind: xpath.TestAnyNode}}
		if err := p.parseStepPredicates(st); err != nil {
			return nil, nil, err
		}
		return nil, st, nil
	}
	if p.isSym("@") {
		if err := p.next(); err != nil {
			return nil, nil, err
		}
		test, err := p.parseAttributeNameTest()
		if err != nil {
			return nil, nil, err
		}
		st := &xqast.Step{Axis: xpath.AxisAttribute, Test: test}
		if err := p.parseStepPredicates(st); err != nil {
			return nil, nil, err
		}
		return nil, st, nil
	}
	if p.isSym("*") {
		if err := p.next(); err != nil {
			return nil, nil, err
		}
		st := &xqast.Step{Axis: xpath.AxisChild, Test: xpath.AnyElement}
		if err := p.parseStepPredicates(st); err != nil {
			return nil, nil, err
		}
		return nil, st, nil
	}
	if p.tok.Kind != xqlex.Name {
		e, err := p.parseFilterExpr()
		return e, nil, err
	}

	// A name: disambiguate axis step, kind test, function call, computed
	// constructor, or plain name test.
	name := p.tok.Text
	nx, err := p.peek()
	if err != nil {
		return nil, nil, err
	}
	nxSym := func(s string) bool { return nx.Kind == xqlex.Symbol && nx.Text == s }

	if nxSym("::") {
		axis, ok := xpath.ParseAxis(name)
		if !ok {
			return nil, nil, p.errf("unknown axis %q", name)
		}
		if err := p.next(); err != nil { // axis name
			return nil, nil, err
		}
		if err := p.next(); err != nil { // '::'
			return nil, nil, err
		}
		var test xpath.Test
		if axis == xpath.AxisAttribute {
			test, err = p.parseAttributeNameTest()
		} else {
			test, err = p.parseNodeTest()
		}
		if err != nil {
			return nil, nil, err
		}
		st := &xqast.Step{Axis: axis, Test: test}
		if err := p.parseStepPredicates(st); err != nil {
			return nil, nil, err
		}
		return nil, st, nil
	}

	if nxSym("(") {
		switch name {
		case "node", "text", "comment", "processing-instruction", "element", "attribute", "document-node":
			test, err := p.parseNodeTest()
			if err != nil {
				return nil, nil, err
			}
			axis := xpath.AxisChild
			if test.Kind == xpath.TestAttribute {
				axis = xpath.AxisAttribute
			}
			st := &xqast.Step{Axis: axis, Test: test}
			if err := p.parseStepPredicates(st); err != nil {
				return nil, nil, err
			}
			return nil, st, nil
		}
		e, err := p.parseFilterExpr()
		return e, nil, err
	}

	// Computed constructors: element/attribute/text followed by a name or '{'.
	if (name == "element" || name == "attribute") && (nx.Kind == xqlex.Name || nxSym("{")) {
		e, err := p.parseComputedConstructor(name)
		return e, nil, err
	}
	if name == "text" && nxSym("{") {
		if err := p.next(); err != nil {
			return nil, nil, err
		}
		if err := p.expectSym("{"); err != nil {
			return nil, nil, err
		}
		content, err := p.parseExpr()
		if err != nil {
			return nil, nil, err
		}
		if err := p.expectSym("}"); err != nil {
			return nil, nil, err
		}
		ct := &xqast.ComputedText{Content: content}
		e, err := p.parsePredicatesInto(ct)
		return e, nil, err
	}

	// Plain name test on the child axis.
	if err := p.next(); err != nil {
		return nil, nil, err
	}
	st := &xqast.Step{Axis: xpath.AxisChild, Test: xpath.NameTest(name)}
	if err := p.parseStepPredicates(st); err != nil {
		return nil, nil, err
	}
	return nil, st, nil
}

func (p *parser) parseComputedConstructor(kind string) (xqast.Expr, error) {
	if err := p.next(); err != nil { // 'element' / 'attribute'
		return nil, err
	}
	var name string
	var nameExpr xqast.Expr
	if p.tok.Kind == xqlex.Name {
		name = p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
	} else {
		if err := p.expectSym("{"); err != nil {
			return nil, err
		}
		ne, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("}"); err != nil {
			return nil, err
		}
		nameExpr = ne
	}
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	var content xqast.Expr = &xqast.EmptySeq{}
	if !p.isSym("}") {
		var err error
		content, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	if kind == "element" {
		return &xqast.ComputedElem{Name: name, NameExpr: nameExpr, Content: content}, nil
	}
	return &xqast.ComputedAttr{Name: name, NameExpr: nameExpr, Content: content}, nil
}

// parseNodeTest parses a node test in a non-attribute axis position.
func (p *parser) parseNodeTest() (xpath.Test, error) {
	if p.isSym("*") {
		if err := p.next(); err != nil {
			return xpath.Test{}, err
		}
		return xpath.AnyElement, nil
	}
	if p.tok.Kind != xqlex.Name {
		return xpath.Test{}, p.errf("expected a node test, found %s", p.tok)
	}
	name := p.tok.Text
	nx, err := p.peek()
	if err != nil {
		return xpath.Test{}, err
	}
	if nx.Kind == xqlex.Symbol && nx.Text == "(" {
		if err := p.next(); err != nil { // test name
			return xpath.Test{}, err
		}
		if err := p.next(); err != nil { // '('
			return xpath.Test{}, err
		}
		var arg string
		if p.tok.Kind == xqlex.Name || p.tok.Kind == xqlex.String {
			arg = p.tok.Text
			if err := p.next(); err != nil {
				return xpath.Test{}, err
			}
		} else if p.isSym("*") {
			if err := p.next(); err != nil {
				return xpath.Test{}, err
			}
		}
		if err := p.expectSym(")"); err != nil {
			return xpath.Test{}, err
		}
		switch name {
		case "node":
			return xpath.Test{Kind: xpath.TestAnyNode}, nil
		case "text":
			return xpath.Test{Kind: xpath.TestText}, nil
		case "comment":
			return xpath.Test{Kind: xpath.TestComment}, nil
		case "processing-instruction":
			return xpath.Test{Kind: xpath.TestPI, Name: arg}, nil
		case "element":
			return xpath.Test{Kind: xpath.TestElement, Name: arg}, nil
		case "attribute":
			return xpath.Test{Kind: xpath.TestAttribute, Name: arg}, nil
		case "document-node":
			return xpath.Test{Kind: xpath.TestDocument}, nil
		default:
			return xpath.Test{}, p.errf("unknown kind test %q", name)
		}
	}
	if err := p.next(); err != nil {
		return xpath.Test{}, err
	}
	return xpath.NameTest(name), nil
}

// parseAttributeNameTest parses the test after '@' or attribute::.
func (p *parser) parseAttributeNameTest() (xpath.Test, error) {
	if p.isSym("*") {
		if err := p.next(); err != nil {
			return xpath.Test{}, err
		}
		return xpath.Test{Kind: xpath.TestAttribute}, nil
	}
	if p.tok.Kind != xqlex.Name {
		return xpath.Test{}, p.errf("expected an attribute name, found %s", p.tok)
	}
	name := p.tok.Text
	if err := p.next(); err != nil {
		return xpath.Test{}, err
	}
	return xpath.Test{Kind: xpath.TestAttribute, Name: name}, nil
}

func (p *parser) parseStepPredicates(st *xqast.Step) error {
	for p.isSym("[") {
		if err := p.next(); err != nil {
			return err
		}
		pred, err := p.parseExpr()
		if err != nil {
			return err
		}
		if err := p.expectSym("]"); err != nil {
			return err
		}
		st.Predicates = append(st.Predicates, pred)
	}
	return nil
}

// parsePredicatesInto wraps base in a Filter if predicates follow.
func (p *parser) parsePredicatesInto(base xqast.Expr) (xqast.Expr, error) {
	var preds []xqast.Expr
	for p.isSym("[") {
		if err := p.next(); err != nil {
			return nil, err
		}
		pred, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("]"); err != nil {
			return nil, err
		}
		preds = append(preds, pred)
	}
	if preds == nil {
		return base, nil
	}
	return &xqast.Filter{Base: base, Predicates: preds}, nil
}

// parseFilterExpr parses a primary expression plus trailing predicates.
func (p *parser) parseFilterExpr() (xqast.Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	return p.parsePredicatesInto(e)
}

func (p *parser) parsePrimary() (xqast.Expr, error) {
	switch {
	case p.tok.Kind == xqlex.String:
		v := p.tok.Text
		return &xqast.StringLit{V: v}, p.next()
	case p.tok.Kind == xqlex.Integer:
		v, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", p.tok.Text)
		}
		return &xqast.IntLit{V: v}, p.next()
	case p.tok.Kind == xqlex.Decimal:
		v, err := strconv.ParseFloat(p.tok.Text, 64)
		if err != nil {
			return nil, p.errf("bad numeric literal %q", p.tok.Text)
		}
		return &xqast.FloatLit{V: v}, p.next()
	case p.isSym("$"):
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.expectName()
		if err != nil {
			return nil, err
		}
		return &xqast.VarRef{Name: name}, nil
	case p.isSym("("):
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.isSym(")") {
			return &xqast.EmptySeq{}, p.next()
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectSym(")")
	case p.isSym("<"):
		return p.parseDirectConstructor()
	case p.tok.Kind == xqlex.Name:
		// Function call (the only name form that reaches parsePrimary).
		name := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		call := &xqast.FuncCall{Name: name}
		for !p.isSym(")") {
			if len(call.Args) > 0 {
				if err := p.expectSym(","); err != nil {
					return nil, err
				}
			}
			arg, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
		}
		return call, p.next()
	default:
		return nil, p.errf("unexpected %s", p.tok)
	}
}
