package xqplan

import (
	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// PredClass is the shape class of a step predicate, decided once at compile
// time from the (constant-folded) predicate expression alone. The two
// classified shapes filter a step's result where it lies — no inner
// iteration per result node, no position()/last() columns — and everything
// else runs through the evaluator as PredGeneric.
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
// It runs after the compile pass folded the predicate, so [-1] arrives as an
// integer literal.
func classifyPredicate(e xqast.Expr) PredPlan {
	switch v := e.(type) {
	case *xqast.IntLit:
		return PredPlan{Class: PredPosition, Pos: v.V}
	case *xqast.Binary:
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
		switch l := lit.(type) {
		case *xqast.StringLit:
			pp.Str = l.V
		case *xqast.IntLit:
			pp.Numeric, pp.Num = true, float64(l.V)
		case *xqast.FloatLit:
			pp.Numeric, pp.Num = true, l.V
		default:
			return PredPlan{}
		}
		return pp
	}
	return PredPlan{}
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
