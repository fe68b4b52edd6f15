package soxq

import (
	"fmt"
	"strings"

	"soxq/internal/xqexec"
	"soxq/internal/xqplan"
)

// PlanExplain is the structured description of a prepared query's compiled
// form and — after Analyze — of one execution's observed behaviour. It holds
// the effective stand-off options, the operator tree of the whole query
// (FLWOR, filter and conditional structure, with every path's compiled step
// program nested inside), the flat per-path step list, and the streaming
// pipeline shape. See docs/EXPLAIN.md for the full output reference.
//
// Two modes produce it:
//
//   - Prepared.Explain: EXPLAIN — what compilation knows: operator
//     structure, step programs and candidate policies.
//   - Prepared.Analyze: EXPLAIN ANALYZE — the same tree annotated with the
//     observed per-operator counters of the run Analyze performed (rows in
//     and out, candidates scanned, join algorithms, delta merges, FLWOR
//     tuples/chunks).
type PlanExplain struct {
	// Options renders the effective stand-off options the plan was
	// compiled under.
	Options string
	// Analyzed reports whether observed counters are attached (the
	// explain came from Analyze).
	Analyzed bool
	// Plan is the operator tree of the query: function declarations first,
	// then the body.
	Plan []*OpNode
	// Paths holds one step program per path expression, in compile
	// discovery order (a predicate's path precedes the path of the step it
	// filters).
	Paths []PathExplain
	// Stream is the pipeline shape a Stream (or Exec, which drains the
	// same pipeline) would execute: per top-level operator, whether it is
	// pipelined or materialised and why.
	Stream *StreamExplain
}

// OpNode is one operator of the plan tree. Label is the fully rendered line
// (standoff{...} and observed (...) annotations included); the structured
// fields expose the same data programmatically.
type OpNode struct {
	// Kind classifies the operator: "flwor", "for", "let", "where",
	// "order by", "return", "path", "step", "predicate", "filter", "if",
	// "then", "else", "quantified", "satisfies", "function",
	// "constructor", "op", "seq", "declare", "expr".
	Kind string
	// Label is the rendered plan line.
	Label string
	// Step is set for Kind "step": the compiled step description.
	Step *StepExplain
	// Obs is set when Analyzed and the operator executed: the observed
	// counters.
	Obs *ObsExplain
	// Children are the operator's structural inputs in evaluation order.
	Children []*OpNode
}

// ObsExplain carries one operator's observed counters from an Analyze run.
type ObsExplain struct {
	// Invocations is how many times the operator evaluated.
	Invocations int64
	// RowsIn and RowsOut are operator-specific row totals: context rows
	// in / result rows out for steps, tuples in / items out for FLWORs,
	// input/kept rows for filters.
	RowsIn  int64
	RowsOut int64
	// Candidates is the total candidate cardinality StandOff joins
	// scanned (steps only).
	Candidates int64
	// Chunks is how many pipeline chunks the operator evaluated: streamed
	// FLWOR chunks, or per-chunk join invocations of a chunk-streamed
	// StandOff step (zero for materialised evaluation).
	Chunks int64
	// Joins renders the join algorithms actually run, e.g. "basic:1" or
	// "looplifted:3" (steps only; empty for tree axes).
	Joins string
}

// StreamExplain describes one operator of the streaming pipeline.
type StreamExplain struct {
	// Op names the operator: "flwor", "path", "seq", "range",
	// "materialise".
	Op string
	// Pipelined reports whether the operator streams its output; a false
	// value means the operator materialises and Detail says why.
	Pipelined bool
	// Detail explains the decision.
	Detail string
	// Children are the operator's streamed inputs.
	Children []*StreamExplain
}

func streamExplain(op *xqexec.OpExplain) *StreamExplain {
	out := &StreamExplain{Op: op.Kind, Pipelined: op.Pipelined, Detail: op.Detail}
	for _, ch := range op.Children {
		out.Children = append(out.Children, streamExplain(ch))
	}
	return out
}

// PathExplain is one path expression's compiled step program.
type PathExplain struct {
	Steps []StepExplain
}

// StepExplain describes one compiled step of a path.
type StepExplain struct {
	// Axis and Test render the step as compiled — a step fused from the //
	// abbreviation shows the descendant axis it actually executes.
	Axis string
	Test string
	// Fused marks a step produced by the compile-time fusion of
	// descendant-or-self::node()/child::T.
	Fused bool
	// Predicates is the number of predicates applied after the step.
	Predicates int
	// StandOff marks one of the four StandOff axes; the remaining fields
	// are only meaningful when it is set.
	StandOff bool
	// Op is the join operator (select-narrow, ...).
	Op string
	// PushPolicy and NoPushPolicy are the section 3.3 candidate policies
	// under the two optimizer settings ("all", "all+filter",
	// "by-name", "impossible").
	PushPolicy   string
	NoPushPolicy string
}

// Explain returns the EXPLAIN description of the compiled plan: operator
// structure, compiled step programs, candidate policies and the pipeline
// shape. It shows only what compilation knows, so it reads the same before
// and after any execution; Analyze adds the observed counters.
func (p *Prepared) Explain() *PlanExplain {
	return p.explainWith(nil)
}

// explainWith builds the public explain from the plan description, with the
// observed counters of one execution attached when st is non-nil.
func (p *Prepared) explainWith(st *xqplan.ExecStats) *PlanExplain {
	ix := p.plan.ExplainWith(st)
	out := &PlanExplain{Options: ix.Options.String(), Analyzed: ix.Analyzed}
	for _, pe := range ix.Paths {
		var path PathExplain
		for _, se := range pe.Steps {
			path.Steps = append(path.Steps, publicStep(se))
		}
		out.Paths = append(out.Paths, path)
	}
	for _, ch := range ix.Root.Children {
		out.Plan = append(out.Plan, publicNode(ch))
	}
	out.Stream = streamExplain(xqexec.Describe(p.plan))
	return out
}

func publicStep(se xqplan.StepExplain) StepExplain {
	return StepExplain{
		Axis:         se.Axis,
		Test:         se.Test,
		Fused:        se.Fused,
		Predicates:   se.Predicates,
		StandOff:     se.StandOff,
		Op:           se.Op,
		PushPolicy:   xqplan.PolicyString(se.PushPolicy, se.Name),
		NoPushPolicy: xqplan.PolicyString(se.NoPushPolicy, se.Name),
	}
}

func publicNode(n *xqplan.Node) *OpNode {
	out := &OpNode{Kind: n.Kind, Label: n.Label}
	if n.Step != nil {
		s := publicStep(*n.Step)
		out.Step = &s
	}
	switch {
	case n.StepObs != nil:
		out.Obs = &ObsExplain{
			Invocations: n.StepObs.Invocations,
			RowsIn:      n.StepObs.RowsIn,
			RowsOut:     n.StepObs.RowsOut,
			Candidates:  n.StepObs.Candidates,
			Chunks:      n.StepObs.StreamChunks,
			Joins:       n.StepObs.JoinsString(),
		}
	case n.OpObs != nil:
		out.Obs = &ObsExplain{
			Invocations: n.OpObs.Invocations,
			RowsIn:      n.OpObs.RowsIn,
			RowsOut:     n.OpObs.RowsOut,
			Chunks:      n.OpObs.Chunks,
		}
	}
	for _, ch := range n.Children {
		out.Children = append(out.Children, publicNode(ch))
	}
	return out
}

// String renders the plan description: the options, the operator tree (one
// line per operator, annotated with standoff decisions and — after Analyze —
// observed counters), and the streaming pipeline shape:
//
//	options: type=xs:integer start=@start end=@end
//	plan:
//	  flwor (tuples=1 out=1 chunks=1)
//	    for $s in
//	      path doc("d.xml") (out=1)
//	        step descendant::music[@artist = "U2"] pred{attr} (fused //) (in=1 out=1)
//	        step select-narrow::shot standoff{op=select-narrow push=by-name(shot)
//	          nopush=all+filter} (in=1 out=1 cand=3 joins=looplifted:1)
//	    return string($s/@id)
//	stream:
//	  flwor [pipelined] for $s tuples stream in chunks; ...
func (x *PlanExplain) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "options: %s\n", x.Options)
	sb.WriteString("plan:\n")
	for _, n := range x.Plan {
		n.render(&sb, 1)
	}
	if x.Stream != nil {
		sb.WriteString("stream:\n")
		x.Stream.render(&sb, 1)
	}
	return sb.String()
}

func (n *OpNode) render(sb *strings.Builder, depth int) {
	fmt.Fprintf(sb, "%s%s\n", strings.Repeat("  ", depth), n.Label)
	for _, ch := range n.Children {
		ch.render(sb, depth+1)
	}
}

func (s *StreamExplain) render(sb *strings.Builder, depth int) {
	mode := "materialised"
	if s.Pipelined {
		mode = "pipelined"
	}
	fmt.Fprintf(sb, "%s%s [%s] %s\n", strings.Repeat("  ", depth), s.Op, mode, s.Detail)
	for _, ch := range s.Children {
		ch.render(sb, depth+1)
	}
}
