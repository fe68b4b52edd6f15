package xqplan

import (
	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// PredClass is the shape class of a step predicate, decided once at compile
// time from the predicate expression alone. The two classified shapes filter
// a step's result where it lies — no inner iteration per result node, no
// position()/last() columns — and everything else runs through the
// evaluator as PredGeneric.
type PredClass uint8

const (
	// PredGeneric: evaluate the predicate once per result node.
	PredGeneric PredClass = iota
	// PredPosition: [k] for an integer literal k — the k-th node of each
	// context row (counted backwards on a reverse axis).
	PredPosition
	// PredAttrCompare: [@name op literal] (or the literal on the left) for a
	// general comparison against a string or numeric literal.
	PredAttrCompare
)

func (c PredClass) String() string {
	switch c {
	case PredPosition:
		return "pos"
	case PredAttrCompare:
		return "attr"
	default:
		return "generic"
	}
}

// PredPlan is one classified step predicate.
type PredPlan struct {
	Class PredClass
	// Pos is the literal of a PredPosition predicate.
	Pos int64
	// PredAttrCompare: the attribute name, the general-comparison operator
	// with the attribute as its left operand (a literal written on the left
	// flips it), and the literal — Num when Numeric, else Str.
	Attr    string
	Op      string
	Numeric bool
	Num     float64
	Str     string
}

// flipComparison maps a general comparison to the one with its operands
// swapped.
var flipComparison = map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// classifyPredicate recognises the two filtered-in-place predicate shapes.
func classifyPredicate(e xqast.Expr) PredPlan {
	if k, _, isInt, ok := signedLit(e); ok && isInt {
		return PredPlan{Class: PredPosition, Pos: k}
	}
	v, ok := e.(*xqast.Binary)
	if !ok {
		return PredPlan{}
	}
	op, flipped := v.Op, flipComparison[v.Op]
	if flipped == "" {
		return PredPlan{}
	}
	name, ok := attrOfContext(v.L)
	lit := v.R
	if !ok {
		name, ok = attrOfContext(v.R)
		lit, op = v.L, flipped
	}
	if !ok {
		return PredPlan{}
	}
	pp := PredPlan{Class: PredAttrCompare, Attr: name, Op: op}
	if s, isStr := lit.(*xqast.StringLit); isStr {
		pp.Str = s.V
	} else if _, f, _, isNum := signedLit(lit); isNum {
		pp.Numeric, pp.Num = true, f
	} else {
		return PredPlan{}
	}
	return pp
}

// signedLit reads a numeric literal under unary signs: the lexer has no
// negative literal, so -1 parses as a unary minus over 1. k is the value of
// an integer literal (isInt), f the value as a double.
func signedLit(e xqast.Expr) (k int64, f float64, isInt, ok bool) {
	switch v := e.(type) {
	case *xqast.IntLit:
		return v.V, float64(v.V), true, true
	case *xqast.FloatLit:
		return 0, v.V, false, true
	case *xqast.Unary:
		k, f, isInt, ok = signedLit(v.X)
		if v.Neg {
			k, f = -k, -f
		}
		return k, f, isInt, ok
	}
	return 0, 0, false, false
}

// attrOfContext matches the relative path @name: one predicate-free
// attribute step with a name test, from the context item.
func attrOfContext(e xqast.Expr) (string, bool) {
	p, ok := e.(*xqast.Path)
	if !ok || p.Start != nil || p.Absolute || len(p.Steps) != 1 {
		return "", false
	}
	s := p.Steps[0]
	if s.Axis != xpath.AxisAttribute || s.Test.Kind != xpath.TestAttribute || s.Test.Name == "" || len(s.Predicates) > 0 {
		return "", false
	}
	return s.Test.Name, true
}

// positionFree reports whether every predicate is position-free: it reads
// neither the context position nor the context size and is never numeric, so
// it keeps or drops a node whatever row the node sits in. The test is
// syntactic and conservative: no position() or last() call anywhere, and the
// predicate is a general, value or node comparison (PredAttrCompare among
// them), an and/or of position-free operands, a built-in not, exists, empty
// or boolean call, or a relative path of axis steps.
func (p *Plan) positionFree(preds ...xqast.Expr) bool {
	for _, e := range preds {
		shaped := false
		switch v := e.(type) {
		case *xqast.Binary:
			switch v.Op {
			case "and", "or":
				shaped = p.positionFree(v.L, v.R)
			case "=", "!=", "<", "<=", ">", ">=", "eq", "ne", "lt", "le", "gt", "ge", "is", "<<", ">>":
				shaped = true
			}
		case *xqast.FuncCall:
			switch localName(v.Name) {
			case "not", "exists", "empty", "boolean":
				shaped = len(v.Args) == 1 && !p.shadowed(v.Name, 1)
			}
		case *xqast.Path:
			shaped = v.Start == nil && !v.Absolute && len(v.Steps) > 0
		}
		if !shaped || anyExpr(e, readsFocus) {
			return false
		}
	}
	return true
}

// readsFocus matches a position() or last() call.
func readsFocus(e xqast.Expr) bool {
	c, ok := e.(*xqast.FuncCall)
	return ok && (localName(c.Name) == "position" || localName(c.Name) == "last")
}
