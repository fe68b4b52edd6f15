package xqplan

import (
	"fmt"
	"strconv"

	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// The pipeline shape is decided here, once per compiled plan, like the
// section 3.3 candidate policy: which operator of the body streams, and how.
// The executor (internal/xqexec) builds its cursors by walking this tree and
// EXPLAIN renders a copy of it, so the two cannot disagree. The one decision
// only the run time can make — is a path's context a single tree? — is
// reported as the condition it is.

// Stream returns the pipeline shape of the plan body, shared by every run of
// the plan: callers must not change it. Its operators carry no Detail;
// Explain carries a copy with the Detail rendered.
func (p *Plan) Stream() *StreamOp { return p.stream }

// Expr returns the expression the operator runs (an Enclosed wrapper is
// already peeled off).
func (s *StreamOp) Expr() xqast.Expr { return s.expr }

// Cut returns, for a path operator, the index of the first step of the
// path's streamed suffix: the trailing run of Chunked steps and the final
// step. The steps before it run in bulk.
func (s *StreamOp) Cut() int { return s.cut }

// ByName reports, for a path operator, whether the step before the cut is a
// predicate-free by-name descendant::N step feeding a Chunked step: when
// its context is exactly one document node, the first streamed stage reads
// its context from the region index's by-name view of N, and the tree step
// does not run.
func (s *StreamOp) ByName() bool { return s.byName }

// explainStream returns a copy of the tree with each operator's Detail rendered,
// so that a caller editing an Explain cannot change what the next run builds
// and a compile that is never explained formats no text.
func (p *Plan) explainStream(s *StreamOp) *StreamOp {
	c := *s
	c.Detail = p.detail(s)
	c.Children = nil
	for _, ch := range s.Children {
		c.Children = append(c.Children, p.explainStream(ch))
	}
	return &c
}

// streamOp decides the pipeline shape of one expression.
func (p *Plan) streamOp(e xqast.Expr) *StreamOp {
	switch v := e.(type) {
	case *xqast.FLWOR:
		return p.flworOp(v)
	case *xqast.Path:
		return p.pathOp(v)
	case *xqast.Binary:
		switch v.Op {
		case ",":
			op := &StreamOp{Op: "seq", Pipelined: true, expr: v}
			for _, part := range flattenSeqExpr(v) {
				op.Children = append(op.Children, p.streamOp(part))
			}
			return op
		case "to":
			return &StreamOp{Op: "range", Pipelined: true, expr: v}
		}
	case *xqast.Enclosed:
		return p.streamOp(v.X)
	}
	return &StreamOp{Op: "materialise", expr: e}
}

// firstFor returns the index of a FLWOR's first for clause, or -1.
func firstFor(v *xqast.FLWOR) int {
	for i, cl := range v.Clauses {
		if _, ok := cl.(*xqast.ForClause); ok {
			return i
		}
	}
	return -1
}

// flworOp streams a FLWOR with a for clause and no order by (a sort needs
// every tuple before the first result): its first for clause's binding is
// the first child. Each immediately following for clause over a streamable
// binding becomes a flwor-nested child, whose own first child is that
// binding: each parent tuple drives a child cursor over it under bounded
// chunks, compounding the memory bound. The chain stops at the first clause
// that expands into the parent's chunk instead.
func (p *Plan) flworOp(v *xqast.FLWOR) *StreamOp {
	first := firstFor(v)
	if first < 0 || len(v.OrderBy) > 0 {
		return &StreamOp{Op: "flwor", expr: v}
	}
	fc := v.Clauses[first].(*xqast.ForClause)
	op := &StreamOp{Op: "flwor", Pipelined: true, expr: v,
		Children: []*StreamOp{p.streamOp(fc.Seq)}}
	for _, cl := range v.Clauses[first+1:] {
		fc, ok := cl.(*xqast.ForClause)
		if !ok || containsStandOff(fc.Seq) {
			break
		}
		// A binding the pipeline generates on demand: a range, a sequence, a
		// path or a streamed FLWOR.
		bind := p.streamOp(fc.Seq)
		if !bind.Pipelined && bind.Op != "path" {
			break
		}
		op.Children = append(op.Children, &StreamOp{Op: "flwor-nested", Pipelined: true,
			bound: fc.Var, Children: []*StreamOp{bind}})
	}
	return op
}

// pathOp decides a path's streamed suffix: the final step, preceded by the
// consecutive Chunked steps before it, which compose into chained pres-based
// stages. The path streams when its final step is Chunked.
func (p *Plan) pathOp(v *xqast.Path) *StreamOp {
	prog := p.Program(v)
	op := &StreamOp{Op: "path", expr: v}
	if len(prog) == 0 {
		return op
	}
	op.cut = len(prog) - 1
	for op.cut > 0 && prog[op.cut-1].Chunked() {
		op.cut--
	}
	op.Pipelined = prog[len(prog)-1].Chunked()
	op.byName = op.cut > 0 && prog[op.cut].Chunked() && byNameDescendant(prog[op.cut-1])
	return op
}

// byNameDescendant reports whether sp is descendant::N with a name test and
// no predicates (// fused into it or not): from a document node, exactly the
// elements named N of the document, which the region index lists by name.
func byNameDescendant(sp *StepPlan) bool {
	return sp.Axis == xpath.AxisDescendant && sp.Test.Kind == xpath.TestElement && sp.Test.Name != "" &&
		len(sp.Predicates) == 0
}

// detail says why an operator streams or materialises, for EXPLAIN.
func (p *Plan) detail(s *StreamOp) string {
	switch s.Op {
	case "seq":
		return "operands stream one after another"
	case "range":
		return "integers generated on demand"
	case "flwor-nested":
		return "inner for $" + s.bound +
			" binds a child cursor per parent tuple under bounded chunks; inner tuples stream in chunks of their own"
	case "flwor":
		v := s.expr.(*xqast.FLWOR)
		switch first := firstFor(v); {
		case first < 0:
			return "no for clause to stream over"
		case len(v.OrderBy) > 0:
			return "order by needs every tuple before the first result"
		default:
			return "for $" + v.Clauses[first].(*xqast.ForClause).Var +
				" tuples stream in chunks; loop body loop-lifted per chunk"
		}
	case "path":
		prog := p.Program(s.expr.(*xqast.Path))
		if len(prog) == 0 {
			return "no steps"
		}
		suffix := ""
		if chain := len(prog) - 1 - s.cut; chain > 0 {
			suffix = "; " + strconv.Itoa(chain) + " StandOff prefix step(s) stream through composed pres-based stages"
		}
		if s.byName {
			suffix += "; context descendant::" + prog[s.cut-1].Test.Name +
				" read from the region index by name when the path head is one document node"
		}
		switch last := prog[len(prog)-1]; {
		case last.Chunked():
			return "final StandOff step " + last.SO.Op.String() +
				" streams per context chunk through a watermark-gated pending-pre set when the context is single-document" + suffix
		case len(last.Predicates) > 0:
			return "predicates on the final step re-rank positions per context group" + suffix
		case last.StandOff:
			return "final StandOff step " + last.SO.Op.String() + " is an anti-join over the whole context and runs in bulk" + suffix
		default:
			return "final step " + last.Axis.String() + "::" + last.Test.String() + " runs in bulk" + suffix
		}
	}
	return exprName(s.expr) + " evaluates in full"
}

// exprName gives a friendly name for a materialised expression form.
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
	default:
		return fmt.Sprintf("%T", e)
	}
}
