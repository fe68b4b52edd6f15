package xqexec

import (
	"fmt"

	"soxq/internal/xqast"
	"soxq/internal/xqplan"
)

// Describe returns the pipeline shape Build would construct for the plan:
// the operator tree of the top-level expression with each operator's
// pipelined/materialised decision, and why. It mirrors the decisions build
// makes, without executing anything — the one decision only the run time can
// make (is the path context single-document?) is reported as the condition
// it is.
func Describe(plan *xqplan.Plan) *xqplan.StreamOp {
	return describeExpr(plan, plan.Body())
}

func describeExpr(plan *xqplan.Plan, e xqast.Expr) *xqplan.StreamOp {
	switch v := e.(type) {
	case *xqast.FLWOR:
		if !streamableFLWOR(v) {
			reason := "no for clause to stream over"
			if len(v.OrderBy) > 0 {
				reason = "order by needs every tuple before the first result"
			}
			return &xqplan.StreamOp{Op: "flwor", Detail: reason}
		}
		var first *xqast.ForClause
		var firstAt int
		for i, cl := range v.Clauses {
			if fc, ok := cl.(*xqast.ForClause); ok {
				first, firstAt = fc, i
				break
			}
		}
		op := &xqplan.StreamOp{
			Op:        "flwor",
			Pipelined: true,
			Detail:    fmt.Sprintf("for $%s tuples stream in chunks; loop body loop-lifted per chunk", first.Var),
			Children:  []*xqplan.StreamOp{describeExpr(plan, first.Seq)},
		}
		// Nested cursor-valued bindings: each immediately following for
		// clause over a streamable StandOff-free binding drives a child
		// cursor per parent tuple (under bounded chunks), compounding the
		// memory bound; the chain stops at the first clause that expands.
		for _, cl := range v.Clauses[firstAt+1:] {
			fc, ok := cl.(*xqast.ForClause)
			if !ok || !streamableBinding(fc.Seq) {
				break
			}
			op.Children = append(op.Children, &xqplan.StreamOp{
				Op:        "flwor-nested",
				Pipelined: true,
				Detail: fmt.Sprintf("inner for $%s binds a child cursor per parent tuple under bounded chunks; inner tuples stream in chunks of their own",
					fc.Var),
				Children: []*xqplan.StreamOp{describeExpr(plan, fc.Seq)},
			})
		}
		return op
	case *xqast.Path:
		return describePath(plan, v)
	case *xqast.Binary:
		switch v.Op {
		case ",":
			op := &xqplan.StreamOp{Op: "seq", Pipelined: true,
				Detail: "operands stream one after another"}
			for _, part := range flattenSeq(v) {
				op.Children = append(op.Children, describeExpr(plan, part))
			}
			return op
		case "to":
			return &xqplan.StreamOp{Op: "range", Pipelined: true,
				Detail: "integers generated on demand"}
		}
	case *xqast.Enclosed:
		return describeExpr(plan, v.X)
	}
	return &xqplan.StreamOp{Op: "materialise", Detail: exprName(e) + " evaluates in full"}
}

func describePath(plan *xqplan.Plan, p *xqast.Path) *xqplan.StreamOp {
	prog := plan.Program(p)
	if len(prog) == 0 {
		return &xqplan.StreamOp{Op: "path", Detail: "no steps"}
	}
	last := prog[len(prog)-1]
	// Consecutive Chunked StandOff steps before the final step compose into
	// chained pres-based stages.
	chain := 0
	for i := len(prog) - 2; i >= 0 && prog[i].Chunked(); i-- {
		chain++
	}
	suffix := ""
	if chain > 0 {
		suffix = fmt.Sprintf("; %d StandOff prefix step(s) stream through composed pres-based stages", chain)
	}
	var reason string
	switch {
	case last.Chunked():
		return &xqplan.StreamOp{Op: "path", Pipelined: true,
			Detail: fmt.Sprintf("final StandOff step %s streams per context chunk through an ordered dedup merge when the context is single-document%s",
				last.SO.Op, suffix)}
	case len(last.Predicates) > 0:
		reason = "predicates on the final step re-rank positions per context group"
	case last.StandOff:
		reason = fmt.Sprintf("final StandOff step %s is an anti-join over the whole context and runs in bulk", last.SO.Op)
	default:
		reason = fmt.Sprintf("final step %s::%s runs in bulk", last.Axis, last.Test)
	}
	return &xqplan.StreamOp{Op: "path", Detail: reason + suffix}
}

// exprName gives a friendly name for a non-pipelined expression form.
func exprName(e xqast.Expr) string {
	switch e.(type) {
	case *xqast.FuncCall:
		return "function call"
	case *xqast.IfExpr:
		return "conditional"
	case *xqast.Quantified:
		return "quantified expression"
	case *xqast.Filter:
		return "filter expression"
	case *xqast.DirectElem, *xqast.ComputedElem, *xqast.ComputedAttr, *xqast.ComputedText:
		return "node constructor"
	case *xqast.Binary, *xqast.Unary:
		return "operator expression"
	case *xqast.VarRef, *xqast.ContextItem:
		return "variable/context reference"
	case *xqast.StringLit, *xqast.IntLit, *xqast.FloatLit, *xqast.EmptySeq:
		return "literal"
	case *xqast.FLWOR:
		return "flwor"
	default:
		return fmt.Sprintf("%T", e)
	}
}
