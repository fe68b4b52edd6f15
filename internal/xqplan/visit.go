package xqplan

import (
	"slices"
	"strings"

	"soxq/internal/xqast"
)

// ContainsStandOff reports whether e can evaluate a StandOff join: a path
// step (or step predicate, or nested expression) with a StandOff axis, or a
// call into a user-defined or so: function whose body this walk cannot see
// (treated conservatively as containing one). The executor's nested-cursor
// gate uses it at execution time over the shared immutable plan, so the
// walk must be strictly read-only (visitChildren, not rewriteChildren —
// even an identity rewrite is a write under concurrent executions).
func ContainsStandOff(e xqast.Expr) bool {
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
// writing anything back — the read-only sibling of rewriteChildren, for
// analyses that run at execution time over the shared immutable plan.
// (Routing through rewriteChildren with an identity function would not do:
// it stores every result back into the AST, and even an identical-pointer
// store is a write — a data race once plans are shared by concurrent
// executions.) Its case list must stay in lockstep with rewriteChildren;
// TestVisitChildrenMatchesRewrite pins that.
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

// rewriteChildren applies f to every direct child expression of e, storing
// the (possibly rewritten) result back in place. It is the single canonical
// child enumeration of the compiler: constant folding and step-program
// construction both ride Plan.pass, which recurses through this function, so
// a new AST node needs exactly one case here to be seen by every compile
// analysis. (PR 1 kept two divergent traversals — walk for StandOff analysis
// and fold for rewriting — that had to be updated in lockstep and walked
// every expression twice.)
func rewriteChildren(e xqast.Expr, f func(xqast.Expr) xqast.Expr) {
	switch v := e.(type) {
	case *xqast.FLWOR:
		for _, cl := range v.Clauses {
			switch c := cl.(type) {
			case *xqast.ForClause:
				c.Seq = f(c.Seq)
			case *xqast.LetClause:
				c.Seq = f(c.Seq)
			}
		}
		if v.Where != nil {
			v.Where = f(v.Where)
		}
		for i := range v.OrderBy {
			v.OrderBy[i].Key = f(v.OrderBy[i].Key)
		}
		v.Return = f(v.Return)
	case *xqast.Quantified:
		v.Seq = f(v.Seq)
		v.Satisfies = f(v.Satisfies)
	case *xqast.IfExpr:
		v.Cond = f(v.Cond)
		v.Then = f(v.Then)
		v.Else = f(v.Else)
	case *xqast.Binary:
		v.L = f(v.L)
		v.R = f(v.R)
	case *xqast.Unary:
		v.X = f(v.X)
	case *xqast.Path:
		if v.Start != nil {
			v.Start = f(v.Start)
		}
		for _, step := range v.Steps {
			for i := range step.Predicates {
				step.Predicates[i] = f(step.Predicates[i])
			}
		}
	case *xqast.Filter:
		v.Base = f(v.Base)
		for i := range v.Predicates {
			v.Predicates[i] = f(v.Predicates[i])
		}
	case *xqast.FuncCall:
		for i := range v.Args {
			v.Args[i] = f(v.Args[i])
		}
	case *xqast.DirectElem:
		for ai := range v.Attrs {
			for i := range v.Attrs[ai].Value {
				v.Attrs[ai].Value[i] = f(v.Attrs[ai].Value[i])
			}
		}
		for i := range v.Content {
			v.Content[i] = f(v.Content[i])
		}
	case *xqast.Enclosed:
		v.X = f(v.X)
	case *xqast.ComputedElem:
		if v.NameExpr != nil {
			v.NameExpr = f(v.NameExpr)
		}
		v.Content = f(v.Content)
	case *xqast.ComputedAttr:
		if v.NameExpr != nil {
			v.NameExpr = f(v.NameExpr)
		}
		v.Content = f(v.Content)
	case *xqast.ComputedText:
		v.Content = f(v.Content)
	}
}
