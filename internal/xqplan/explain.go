package xqplan

import (
	"fmt"
	"strconv"
	"strings"

	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// Explain is the structured description of a compiled plan: the effective
// options, the operator tree of the whole query — FLWOR/filter/conditional
// structure included, not just paths — the flat per-path step list, and the
// streaming pipeline shape. Built by Plan.Explain (compile-time structure
// only) or Plan.ExplainWith (plus the observed counters of one execution:
// EXPLAIN ANALYZE). See docs/EXPLAIN.md for the full output reference.
type Explain struct {
	// Options renders the effective stand-off options the plan was
	// compiled under.
	Options string
	// Analyzed reports whether observed counters are attached (an
	// ExecStats collector was supplied).
	Analyzed bool
	// Plan is the operator tree of the query: function declarations and
	// global variables first, then the body.
	Plan []*Node
	// Paths holds one step program per path expression, in compile
	// discovery order (a predicate's path precedes the path of the step it
	// filters).
	Paths []PathExplain
	// Stream is the pipeline shape a Stream (or Exec, which drains the
	// same pipeline) executes: per top-level operator, whether it is
	// pipelined or materialised and why. It is a copy of the shape the
	// executor builds from (Plan.Stream).
	Stream *StreamOp
}

// Node is one operator of the plan tree.
type Node struct {
	// Kind classifies the operator: "declare", "flwor", "for", "let",
	// "where", "order by", "key", "return", "path", "step", "predicate",
	// "filter", "if", "then", "else", "quantified", "satisfies",
	// "function", "constructor", "attribute", "name", "op", "seq", "expr".
	Kind string
	// Name is the operator's line without annotations: what a trace span
	// is named after.
	Name string
	// Label is Name followed by the standoff{...} decisions and, when
	// analyzed, the observed (...) counters: the rendered plan line.
	Label string
	// Step is set for Kind "step": the compiled step description.
	Step *StepExplain
	// Obs is set when analyzed and the operator executed: the observed
	// counters.
	Obs *Obs
	// Children are the operator's structural inputs, in evaluation order.
	Children []*Node
}

// PathExplain describes one path expression's step program (flat form).
type PathExplain struct {
	Steps []StepExplain
}

// StepExplain describes one compiled step.
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
	// PredClasses is the compile-time class of each predicate, in order:
	// "pos", "attr" or "generic" (see PredClass), "attr→cand" for one a
	// StandOff step pushes into candidate selection (StepPlan.Pushed),
	// "pos→join" for the [1] its join applies (StepPlan.FirstByJoin).
	PredClasses []string
	// CountOnly: the join hands count/exists/empty per-iteration counts
	// (StepPlan.CountOnly).
	CountOnly bool
	// StandOff marks one of the four StandOff axes; the remaining fields
	// are only meaningful when it is set.
	StandOff bool
	// Op is the join operator (select-narrow, ...).
	Op string
	// PushPolicy and NoPushPolicy are the section 3.3 candidate policies
	// under the two optimizer settings: "all", "all+filter", "impossible"
	// or "by-name(shot)", the element name attached.
	PushPolicy   string
	NoPushPolicy string
}

// StreamOp is one operator of the pipeline a plan streams through, decided
// at compile time (stream.go): whether it is pipelined or materialised, and
// why.
type StreamOp struct {
	// Op names the operator: "flwor", "flwor-nested", "path", "seq",
	// "range", "materialise".
	Op string
	// Pipelined reports whether the operator streams its output; a false
	// value means the operator materialises and Detail says why.
	Pipelined bool
	// Detail explains the decision (what streams, or why it cannot); only
	// Explain's copy carries it.
	Detail string
	// Children are the operator's streamed inputs (a flwor's binding
	// stream and its flwor-nested levels, a flwor-nested level's binding
	// stream, a seq's operands).
	Children []*StreamOp

	expr   xqast.Expr // the expression the operator runs
	cut    int        // a path's first streamed step (Cut)
	byName bool       // a path's first stage may read its context by name (ByName)
	bound  string     // a flwor-nested level's variable
}

// Explain returns the structured description of the plan's compiled form
// (EXPLAIN): only what compilation knows.
func (p *Plan) Explain() *Explain { return p.ExplainWith(nil) }

// ExplainWith builds the plan description and, when st is non-nil, attaches
// the observed per-operator counters of the execution st collected —
// EXPLAIN ANALYZE.
func (p *Plan) ExplainWith(st *ExecStats) *Explain {
	ex := &Explain{Options: p.opts.String(), Analyzed: st != nil, Stream: p.explainStream(p.stream)}
	for _, path := range p.paths {
		var pe PathExplain
		for _, sp := range p.programs[path] {
			pe.Steps = append(pe.Steps, stepExplain(sp))
		}
		ex.Paths = append(ex.Paths, pe)
	}
	b := &treeBuilder{plan: p, st: st}
	for _, fd := range p.declOrder {
		decl := newNode("declare", fmt.Sprintf("declare function %s#%d", fd.Name, len(fd.Params)))
		decl.Children = append(decl.Children, b.node(fd.Body))
		ex.Plan = append(ex.Plan, decl)
	}
	for _, vd := range p.globals {
		ex.Plan = append(ex.Plan, b.labeled("declare", "declare variable $"+vd.Name+" :=", vd.Value))
	}
	ex.Plan = append(ex.Plan, b.node(p.body))
	return ex
}

func stepExplain(sp *StepPlan) StepExplain {
	se := StepExplain{
		Axis:       sp.Axis.String(),
		Test:       sp.Test.String(),
		Fused:      sp.Fused,
		Predicates: len(sp.Predicates),
		StandOff:   sp.StandOff,
		CountOnly:  sp.CountOnly,
	}
	for i, pp := range sp.Preds {
		c := pp.Class.String()
		if i < sp.Pushed {
			c += "→cand"
		} else if i == sp.Pushed && sp.FirstByJoin {
			c += "→join"
		}
		se.PredClasses = append(se.PredClasses, c)
	}
	if sp.StandOff {
		se.Op = sp.SO.Op.String()
		se.PushPolicy = policyString(sp.SO.Push, sp.SO.Name)
		se.NoPushPolicy = policyString(sp.SO.NoPush, sp.SO.Name)
	}
	return se
}

// policyString renders a candidate policy with its element name attached
// ("by-name(shot)").
func policyString(c CandPolicy, name string) string {
	if c == CandByName {
		return "by-name(" + name + ")"
	}
	return c.String()
}

// newNode returns an operator without annotations: its Label is its Name.
func newNode(kind, name string) *Node {
	return &Node{Kind: kind, Name: name, Label: name}
}

// treeBuilder walks the compiled body and builds the operator tree.
type treeBuilder struct {
	plan *Plan
	st   *ExecStats
}

// observe attaches the observed counters of key's operator to n and returns
// them, or nil when nothing was collected for it.
func (b *treeBuilder) observe(n *Node, key any) *Obs {
	n.Obs = b.st.obs(key)
	return n.Obs
}

// node builds the tree node of one expression. Compact expressions (ones
// renderExpr can print on one line) become "expr" leaves; structural forms
// get a node per operator.
func (b *treeBuilder) node(e xqast.Expr) *Node {
	if s, ok := renderExpr(e); ok {
		return newNode("expr", s)
	}
	switch v := e.(type) {
	case *xqast.FLWOR:
		n := newNode("flwor", "flwor")
		if o := b.observe(n, v); o != nil {
			n.Label += fmt.Sprintf(" (tuples=%d out=%d", o.RowsIn, o.RowsOut)
			if o.Chunks > 0 {
				n.Label += fmt.Sprintf(" chunks=%d", o.Chunks)
			}
			n.Label += ")"
		}
		for _, cl := range v.Clauses {
			switch c := cl.(type) {
			case *xqast.ForClause:
				prefix := "for $" + c.Var
				if c.Pos != "" {
					prefix += " at $" + c.Pos
				}
				n.Children = append(n.Children, b.labeled("for", prefix+" in", c.Seq))
			case *xqast.LetClause:
				n.Children = append(n.Children, b.labeled("let", "let $"+c.Var+" :=", c.Seq))
			}
		}
		if v.Where != nil {
			n.Children = append(n.Children, b.labeled("where", "where", v.Where))
		}
		if len(v.OrderBy) > 0 {
			ob := newNode("order by", "order by")
			for _, spec := range v.OrderBy {
				suffix := ""
				if spec.Descending {
					suffix = " descending"
				}
				ob.Children = append(ob.Children, b.labeled("key", "key"+suffix+":", spec.Key))
			}
			n.Children = append(n.Children, ob)
		}
		n.Children = append(n.Children, b.labeled("return", "return", v.Return))
		return n
	case *xqast.Path:
		return b.pathNode(v)
	case *xqast.Filter:
		n := newNode("filter", "filter")
		if o := b.observe(n, v); o != nil {
			n.Label += fmt.Sprintf(" (in=%d out=%d)", o.RowsIn, o.RowsOut)
		}
		n.Children = append(n.Children, b.node(v.Base))
		for _, pred := range v.Predicates {
			n.Children = append(n.Children, b.labeled("predicate", "predicate", pred))
		}
		return n
	case *xqast.IfExpr:
		n := b.labeled("if", "if", v.Cond)
		n.Children = append(n.Children, b.labeled("then", "then", v.Then))
		n.Children = append(n.Children, b.labeled("else", "else", v.Else))
		return n
	case *xqast.Quantified:
		kw := "some"
		if v.Every {
			kw = "every"
		}
		n := b.labeled("quantified", kw+" $"+v.Var+" in", v.Seq)
		n.Children = append(n.Children, b.labeled("satisfies", "satisfies", v.Satisfies))
		return n
	case *xqast.FuncCall:
		n := newNode("function", fmt.Sprintf("function %s#%d", v.Name, len(v.Args)))
		for _, a := range v.Args {
			n.Children = append(n.Children, b.node(a))
		}
		return n
	case *xqast.Binary:
		if v.Op == "," {
			n := newNode("seq", "seq")
			for _, part := range flattenSeqExpr(v) {
				n.Children = append(n.Children, b.node(part))
			}
			return n
		}
		n := newNode("op", "op "+strconv.Quote(v.Op))
		n.Children = append(n.Children, b.node(v.L), b.node(v.R))
		return n
	case *xqast.Unary:
		op := "+"
		if v.Neg {
			op = "-"
		}
		n := newNode("op", "op "+strconv.Quote(op))
		n.Children = append(n.Children, b.node(v.X))
		return n
	case *xqast.Enclosed:
		return b.node(v.X)
	case *xqast.DirectElem:
		n := newNode("constructor", "element <"+v.Name+">")
		for _, at := range v.Attrs {
			for _, part := range at.Value {
				if enc, ok := part.(*xqast.Enclosed); ok {
					n.Children = append(n.Children, b.labeled("attribute", "@"+at.Name+" :=", enc.X))
				}
			}
		}
		for _, part := range v.Content {
			if _, lit := part.(*xqast.StringLit); lit {
				continue // literal text between tags is not an operator
			}
			n.Children = append(n.Children, b.node(part))
		}
		return n
	case *xqast.ComputedElem:
		return b.computedNode("element", v.Name, v.NameExpr, v.Content)
	case *xqast.ComputedAttr:
		return b.computedNode("attribute", v.Name, v.NameExpr, v.Content)
	case *xqast.ComputedText:
		return b.computedNode("text", "", nil, v.Content)
	default:
		return newNode("expr", fmt.Sprintf("%T", e))
	}
}

func (b *treeBuilder) computedNode(kw, name string, nameExpr xqast.Expr, content xqast.Expr) *Node {
	label := "computed " + kw
	if name != "" {
		label += " " + name
	}
	n := newNode("constructor", label)
	if nameExpr != nil {
		n.Children = append(n.Children, b.labeled("name", "name:", nameExpr))
	}
	if content != nil {
		n.Children = append(n.Children, b.node(content))
	}
	return n
}

// labeled builds a node for a clause-shaped operator: when the operand is
// compact it folds into the label ("return string($s/@id)"), otherwise the
// operand becomes the node's subtree.
func (b *treeBuilder) labeled(kind, prefix string, e xqast.Expr) *Node {
	if s, ok := renderExpr(e); ok {
		return newNode(kind, prefix+" "+s)
	}
	n := newNode(kind, prefix)
	n.Children = []*Node{b.node(e)}
	return n
}

// pathNode builds the node of a path expression: the start rendering in the
// name when compact, one child per compiled step, observed row counts
// attached when analyzing.
func (b *treeBuilder) pathNode(v *xqast.Path) *Node {
	name := "path"
	start, startCompact := renderPathStart(v)
	if startCompact && start != "" {
		name += " " + start
	}
	n := newNode("path", name)
	if o := b.observe(n, v); o != nil {
		n.Label += fmt.Sprintf(" (out=%d)", o.RowsOut)
	}
	if !startCompact {
		n.Children = append(n.Children, b.node(v.Start))
	}
	for _, sp := range b.plan.Program(v) {
		n.Children = append(n.Children, b.stepNode(sp))
	}
	return n
}

// stepNode renders one compiled step: axis::test, inline compact predicates
// and their pred{...} classes, the fusion marker and the reduced output make
// its name; the standoff{...} block and the observed (...) counters follow
// in the label.
func (b *treeBuilder) stepNode(sp *StepPlan) *Node {
	se := stepExplain(sp)
	n := &Node{Kind: "step", Step: &se}
	var sb strings.Builder
	sb.WriteString("step ")
	sb.WriteString(se.Axis)
	sb.WriteString("::")
	sb.WriteString(se.Test)
	for _, pred := range sp.Predicates {
		if s, ok := renderExpr(pred); ok {
			sb.WriteString("[" + s + "]")
		} else {
			n.Children = append(n.Children, b.labeled("predicate", "predicate", pred))
		}
	}
	if len(se.PredClasses) > 0 {
		sb.WriteString(" pred{" + strings.Join(se.PredClasses, ",") + "}")
	}
	if se.Fused {
		sb.WriteString(" (fused //)")
	}
	if se.CountOnly {
		sb.WriteString(" out{count}")
	}
	n.Name = sb.String()
	if se.StandOff {
		fmt.Fprintf(&sb, " standoff{op=%s push=%s nopush=%s}", se.Op, se.PushPolicy, se.NoPushPolicy)
	}
	if o := b.observe(n, sp); o != nil {
		sb.WriteString(" " + stepCounters(o, se.StandOff))
	}
	n.Label = sb.String()
	return n
}

// stepCounters renders a step's observed (...) group; the StandOff groups
// appear only on a StandOff step.
func stepCounters(o *Obs, standoff bool) string {
	s := fmt.Sprintf("(in=%d out=%d", o.RowsIn, o.RowsOut)
	if standoff {
		s += fmt.Sprintf(" cand=%d", o.Candidates)
		if o.Joins != "" {
			s += " joins=" + o.Joins
		}
		if o.DeltaIns > 0 || o.DeltaDead > 0 {
			s += fmt.Sprintf(" merge{+ins=%d -del=%d}", o.DeltaIns, o.DeltaDead)
		}
		if o.Chunks > 0 {
			s += fmt.Sprintf(" stream{chunks=%d chunk=%d..%d", o.Chunks, o.ChunkMin, o.ChunkMax)
			if o.PendingMax > 0 {
				s += fmt.Sprintf(" pending≤%d", o.PendingMax)
			}
			s += "}"
		}
	}
	return s + ")"
}

// String renders the plan description: the options, the operator tree (one
// line per operator, annotated with standoff decisions and — when analyzed —
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
func (x *Explain) String() string {
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

func (n *Node) render(sb *strings.Builder, depth int) {
	fmt.Fprintf(sb, "%s%s\n", strings.Repeat("  ", depth), n.Label)
	for _, ch := range n.Children {
		ch.render(sb, depth+1)
	}
}

func (s *StreamOp) render(sb *strings.Builder, depth int) {
	mode := "materialised"
	if s.Pipelined {
		mode = "pipelined"
	}
	fmt.Fprintf(sb, "%s%s [%s] %s\n", strings.Repeat("  ", depth), s.Op, mode, s.Detail)
	for _, ch := range s.Children {
		ch.render(sb, depth+1)
	}
}

// flattenSeqExpr collects the operands of a (left-leaning) `,` chain.
func flattenSeqExpr(v *xqast.Binary) []xqast.Expr {
	if l, ok := v.L.(*xqast.Binary); ok && l.Op == "," {
		return append(flattenSeqExpr(l), v.R)
	}
	return []xqast.Expr{v.L, v.R}
}

// renderExpr renders a "compact" expression on one line: literals,
// variables, trivial paths ($s/@id), and operators/calls over compact
// operands. Structural forms — FLWORs, filters, conditionals, constructors,
// and any path with a non-trivial step — report ok=false and get tree nodes
// instead, so their operators stay annotatable with counters.
func renderExpr(e xqast.Expr) (string, bool) {
	switch v := e.(type) {
	case *xqast.StringLit:
		return `"` + v.V + `"`, true
	case *xqast.IntLit:
		return strconv.FormatInt(v.V, 10), true
	case *xqast.FloatLit:
		return strconv.FormatFloat(v.V, 'g', -1, 64), true
	case *xqast.VarRef:
		return "$" + v.Name, true
	case *xqast.ContextItem:
		return ".", true
	case *xqast.EmptySeq:
		return "()", true
	case *xqast.Unary:
		x, ok := renderExpr(v.X)
		if !ok {
			return "", false
		}
		if v.Neg {
			return "-" + x, true
		}
		return "+" + x, true
	case *xqast.Binary:
		l, ok := renderExpr(v.L)
		if !ok {
			return "", false
		}
		r, ok := renderExpr(v.R)
		if !ok {
			return "", false
		}
		if v.Op == "," {
			return l + ", " + r, true
		}
		return l + " " + v.Op + " " + r, true
	case *xqast.FuncCall:
		parts := make([]string, len(v.Args))
		for i, a := range v.Args {
			s, ok := renderExpr(a)
			if !ok {
				return "", false
			}
			parts[i] = s
		}
		return v.Name + "(" + strings.Join(parts, ", ") + ")", true
	case *xqast.Enclosed:
		return renderExpr(v.X)
	case *xqast.Path:
		return renderCompactPath(v)
	}
	return "", false
}

// renderCompactPath renders a path inline when every step is trivial — an
// attribute or self axis with no predicates. Anything that walks or joins
// the tree keeps its own node so its per-step counters stay visible.
func renderCompactPath(v *xqast.Path) (string, bool) {
	start, ok := renderPathStart(v)
	if !ok {
		return "", false
	}
	if start == "." && len(v.Steps) > 0 {
		start = "" // @artist, not ./@artist: a step list implies the context
	}
	var sb strings.Builder
	sb.WriteString(start)
	// No separator before the first step when there is nothing to separate
	// from: a bare relative path, or an absolute one ("/@id", not "//@id").
	first := start == "" || start == "/"
	for _, step := range v.Steps {
		if len(step.Predicates) > 0 {
			return "", false
		}
		sep := "/"
		if first {
			sep, first = "", false
		}
		switch step.Axis {
		case xpath.AxisAttribute:
			if step.Test.Name == "" {
				sb.WriteString(sep + "@*")
			} else {
				sb.WriteString(sep + "@" + step.Test.Name)
			}
		case xpath.AxisSelf:
			if step.Test.Kind == xpath.TestAnyNode {
				sb.WriteString(sep + ".")
			} else {
				sb.WriteString(sep + "self::" + step.Test.String())
			}
		default:
			return "", false
		}
	}
	return sb.String(), true
}

// renderPathStart renders a path's starting context: the start expression
// when compact, "/" for absolute paths, "." for context-relative ones.
func renderPathStart(v *xqast.Path) (string, bool) {
	if v.Start == nil {
		if v.Absolute {
			return "/", true
		}
		return ".", true
	}
	s, ok := renderExpr(v.Start)
	if !ok {
		return "", false
	}
	if v.Absolute {
		return "root(" + s + ")", true
	}
	return s, true
}
