package xqplan

import (
	"slices"
	"strings"

	"soxq/internal/xqast"
)

// containsStandOff reports whether e can evaluate a StandOff join: a path
// step (or step predicate, or nested expression) with a StandOff axis, or a
// call into a user-defined or so: function whose body this walk cannot see
// (treated conservatively as containing one). The pipeline shape's
// nested-cursor decision uses it.
func containsStandOff(e xqast.Expr) bool {
	return anyExpr(e, func(x xqast.Expr) bool {
		switch v := x.(type) {
		case *xqast.Path:
			return slices.ContainsFunc(v.Steps, func(st *xqast.Step) bool { return st.Axis.StandOff() })
		case *xqast.FuncCall:
			return !strings.HasPrefix(v.Name, "fn:") && strings.Contains(v.Name, ":")
		}
		return false
	})
}

// anyExpr reports whether f holds for e or for an expression nested in it.
// The walk is read-only (visitChildren), so it may run over a shared plan.
func anyExpr(e xqast.Expr, f func(xqast.Expr) bool) bool {
	if e == nil {
		return false
	}
	found := f(e)
	if !found {
		visitChildren(e, func(x xqast.Expr) { found = found || anyExpr(x, f) })
	}
	return found
}

// visitChildren calls f on every direct child expression of e without
// writing anything back. It is the compiler's one child enumeration: the
// compile pass (Plan.pass) and the analyses that run at execution time over
// the shared immutable plan all ride it, so a new AST node needs exactly one
// case here to be seen by every one of them. Nothing may store through it:
// even an identical-pointer store is a data race once plans are shared by
// concurrent executions.
func visitChildren(e xqast.Expr, f func(xqast.Expr)) {
	switch v := e.(type) {
	case *xqast.FLWOR:
		for _, cl := range v.Clauses {
			switch c := cl.(type) {
			case *xqast.ForClause:
				f(c.Seq)
			case *xqast.LetClause:
				f(c.Seq)
			}
		}
		if v.Where != nil {
			f(v.Where)
		}
		for i := range v.OrderBy {
			f(v.OrderBy[i].Key)
		}
		f(v.Return)
	case *xqast.Quantified:
		f(v.Seq)
		f(v.Satisfies)
	case *xqast.IfExpr:
		f(v.Cond)
		f(v.Then)
		f(v.Else)
	case *xqast.Binary:
		f(v.L)
		f(v.R)
	case *xqast.Unary:
		f(v.X)
	case *xqast.Path:
		if v.Start != nil {
			f(v.Start)
		}
		for _, step := range v.Steps {
			for i := range step.Predicates {
				f(step.Predicates[i])
			}
		}
	case *xqast.Filter:
		f(v.Base)
		for i := range v.Predicates {
			f(v.Predicates[i])
		}
	case *xqast.FuncCall:
		for i := range v.Args {
			f(v.Args[i])
		}
	case *xqast.DirectElem:
		for ai := range v.Attrs {
			for i := range v.Attrs[ai].Value {
				f(v.Attrs[ai].Value[i])
			}
		}
		for i := range v.Content {
			f(v.Content[i])
		}
	case *xqast.Enclosed:
		f(v.X)
	case *xqast.ComputedElem:
		if v.NameExpr != nil {
			f(v.NameExpr)
		}
		f(v.Content)
	case *xqast.ComputedAttr:
		if v.NameExpr != nil {
			f(v.NameExpr)
		}
		f(v.Content)
	case *xqast.ComputedText:
		f(v.Content)
	}
}
