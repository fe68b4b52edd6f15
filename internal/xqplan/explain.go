package xqplan

import (
	"fmt"
	"strconv"
	"strings"

	"soxq/internal/core"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// Explain is the structured description of a compiled plan: the effective
// options, the fold count, the flat per-path step list (kept for
// programmatic consumers), and the operator tree of the whole query —
// FLWOR/filter/conditional structure included, not just paths. Built by
// Plan.Explain (estimates only) or Plan.ExplainWith (estimates plus the
// observed counters of one execution: EXPLAIN ANALYZE).
type Explain struct {
	Options core.Options
	Folds   int
	Paths   []PathExplain
	// Root is the operator tree: a synthetic "query" node whose children
	// are the user function declarations followed by the query body.
	Root *Node
	// Analyzed reports whether observed counters were attached (an
	// ExecStats collector was supplied).
	Analyzed bool
}

// Node is one operator of the rendered plan tree. Label is the fully
// rendered line (including the standoff{...}, est{...} and observed (...)
// annotations); the structured fields carry the same information for
// programmatic use.
type Node struct {
	// Kind classifies the operator: "query", "declare", "flwor", "for",
	// "let", "where", "order by", "return", "path", "step", "predicate",
	// "filter", "if", "then", "else", "quantified", "satisfies",
	// "function", "constructor", "op", "seq", "expr".
	Kind string
	// Label is the rendered line for this node.
	Label string
	// Step is set for Kind "step": the compiled step description.
	Step *StepExplain
	// Est is set for StandOff steps once the cost model has resolved: the
	// most recent estimate (candidates, observed context rows, modelled
	// costs, chosen strategy).
	Est *CostEstimate
	// StepObs / OpObs carry the observed counters when the Explain was
	// built with an ExecStats collector and the operator executed.
	StepObs *StepObs
	OpObs   *OpObs
	// Children are the operator's structural inputs, in evaluation order.
	Children []*Node
}

// PathExplain describes one path expression's step program (flat form).
type PathExplain struct {
	Steps []StepExplain
}

// StepExplain describes one compiled step.
type StepExplain struct {
	Axis       string
	Test       string
	Fused      bool // produced by the compile-time // fusion
	Predicates int
	// PredClasses is the compile-time class of each predicate, in order:
	// "pos", "attr" or "generic" (see PredClass).
	PredClasses []string

	// StandOff step description; zero values for tree axes.
	StandOff     bool
	Op           string
	PushPolicy   string // candidate policy with pushdown enabled
	NoPushPolicy string // candidate policy with pushdown disabled
	Name         string // element name for the by-name policy
	// Resolved lists the strategies the cost model has actually chosen so
	// far, one entry per distinct choice across the region indexes this
	// plan has executed against in auto mode (empty before the first auto
	// execution, and for executions that forced a strategy).
	Resolved []string
}

// Strategy renders the step's strategy: "auto" while unresolved, with the
// cost model's choices appended once executions resolved them, e.g.
// "auto(looplifted)".
func (s StepExplain) Strategy() string {
	if !s.StandOff {
		return ""
	}
	if len(s.Resolved) == 0 {
		return "auto"
	}
	out := "auto("
	for i, r := range s.Resolved {
		if i > 0 {
			out += ","
		}
		out += r
	}
	return out + ")"
}

// Explain returns the structured description of the plan's compiled form
// with cost estimates only (EXPLAIN). The strategy and estimate fields
// reflect the cost-model choices memoized so far, so an Explain taken after
// an execution reports the strategies actually used.
func (p *Plan) Explain() *Explain { return p.ExplainWith(nil) }

// ExplainWith builds the plan description and, when st is non-nil, attaches
// the observed per-operator counters of the execution st collected —
// EXPLAIN ANALYZE.
func (p *Plan) ExplainWith(st *ExecStats) *Explain {
	ex := &Explain{Options: p.opts, Folds: p.folds, Analyzed: st != nil}
	for _, path := range p.paths {
		var pe PathExplain
		for _, sp := range p.programs[path] {
			pe.Steps = append(pe.Steps, stepExplain(sp))
		}
		ex.Paths = append(ex.Paths, pe)
	}
	b := &treeBuilder{plan: p, st: st}
	root := &Node{Kind: "query", Label: "query"}
	for _, fd := range p.declOrder {
		decl := &Node{
			Kind:  "declare",
			Label: fmt.Sprintf("declare function %s#%d", fd.Name, len(fd.Params)),
		}
		decl.Children = append(decl.Children, b.node(fd.Body))
		root.Children = append(root.Children, decl)
	}
	for _, vd := range p.globals {
		root.Children = append(root.Children,
			b.labeled("declare", "declare variable $"+vd.Name+" :=", vd.Value))
	}
	root.Children = append(root.Children, b.node(p.body))
	ex.Root = root
	return ex
}

func stepExplain(sp *StepPlan) StepExplain {
	se := StepExplain{
		Axis:       sp.Axis.String(),
		Test:       sp.Test.String(),
		Fused:      sp.Fused,
		Predicates: len(sp.Predicates),
		StandOff:   sp.StandOff,
	}
	for _, pp := range sp.Preds {
		se.PredClasses = append(se.PredClasses, pp.Class.String())
	}
	if sp.StandOff {
		se.Op = sp.SO.Op.String()
		se.PushPolicy = sp.SO.Push.String()
		se.NoPushPolicy = sp.SO.NoPush.String()
		se.Name = sp.SO.Name
		for _, st := range sp.ResolvedStrategies() {
			se.Resolved = append(se.Resolved, st.String())
		}
	}
	return se
}

// treeBuilder walks the compiled body and builds the operator tree.
type treeBuilder struct {
	plan *Plan
	st   *ExecStats
}

// node builds the tree node of one expression. Compact expressions (ones
// renderExpr can print on one line) become "expr" leaves; structural forms
// get a node per operator.
func (b *treeBuilder) node(e xqast.Expr) *Node {
	if s, ok := renderExpr(e); ok {
		return &Node{Kind: "expr", Label: s}
	}
	switch v := e.(type) {
	case *xqast.FLWOR:
		n := &Node{Kind: "flwor", Label: "flwor"}
		if o, ok := b.st.OpObs(v); ok {
			n.OpObs = &o
			n.Label += " " + renderFLWORObs(&o)
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
			ob := &Node{Kind: "order by", Label: "order by"}
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
		n := &Node{Kind: "filter", Label: "filter"}
		if o, ok := b.st.OpObs(v); ok {
			n.OpObs = &o
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
		n := &Node{Kind: "function", Label: fmt.Sprintf("function %s#%d", v.Name, len(v.Args))}
		for _, a := range v.Args {
			n.Children = append(n.Children, b.node(a))
		}
		return n
	case *xqast.Binary:
		if v.Op == "," {
			n := &Node{Kind: "seq", Label: "seq"}
			for _, part := range flattenSeqExpr(v) {
				n.Children = append(n.Children, b.node(part))
			}
			return n
		}
		n := &Node{Kind: "op", Label: "op " + strconv.Quote(v.Op)}
		n.Children = append(n.Children, b.node(v.L), b.node(v.R))
		return n
	case *xqast.Unary:
		op := "+"
		if v.Neg {
			op = "-"
		}
		n := &Node{Kind: "op", Label: "op " + strconv.Quote(op)}
		n.Children = append(n.Children, b.node(v.X))
		return n
	case *xqast.Enclosed:
		return b.node(v.X)
	case *xqast.DirectElem:
		n := &Node{Kind: "constructor", Label: "element <" + v.Name + ">"}
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
		return &Node{Kind: "expr", Label: fmt.Sprintf("%T", e)}
	}
}

func (b *treeBuilder) computedNode(kw, name string, nameExpr xqast.Expr, content xqast.Expr) *Node {
	label := "computed " + kw
	if name != "" {
		label += " " + name
	}
	n := &Node{Kind: "constructor", Label: label}
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
		return &Node{Kind: kind, Label: prefix + " " + s}
	}
	return &Node{Kind: kind, Label: prefix, Children: []*Node{b.node(e)}}
}

// pathNode builds the node of a path expression: the start rendering in the
// label when compact, one child per compiled step, observed row counts
// attached when analyzing.
func (b *treeBuilder) pathNode(v *xqast.Path) *Node {
	n := &Node{Kind: "path", Label: "path"}
	start, startCompact := renderPathStart(v)
	if startCompact && start != "" {
		n.Label += " " + start
	}
	if o, ok := b.st.OpObs(v); ok {
		n.OpObs = &o
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
// and their pred{...} classes, the fusion marker, the standoff{...} block
// with the resolved strategy, the est{...} cost-model record, and the
// observed (...) counters.
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
	if se.StandOff {
		fmt.Fprintf(&sb, " standoff{op=%s push=%s nopush=%s strategy=%s}",
			se.Op, PolicyString(se.PushPolicy, se.Name), PolicyString(se.NoPushPolicy, se.Name), se.Strategy())
		if ce := sp.LastCost(); ce != nil {
			n.Est = ce
			fmt.Fprintf(&sb, " est{cand=%d ctx=%d out=%d basic=%s ll=%s}",
				ce.Candidates, ce.CtxRows, ce.EstOut, renderCost(ce.Basic), renderCost(ce.LoopLifted))
			if ce.DeltaIns > 0 || ce.DeltaDead > 0 {
				fmt.Fprintf(&sb, " merge{+ins=%d -del=%d}", ce.DeltaIns, ce.DeltaDead)
			}
		}
	}
	if o, ok := b.st.StepObs(sp); ok {
		n.StepObs = &o
		sb.WriteString(" " + renderStepObs(&o, se.StandOff))
		if se.StandOff {
			sb.WriteString(renderDrift(sp.LastCost(), &o))
		}
	}
	n.Label = sb.String()
	return n
}

// renderDrift flags a step whose observed output selectivity strayed at
// least selDriftFactor from the cost model's prediction — the same test that
// invalidates the strategy memo, so EXPLAIN ANALYZE shows exactly the
// feedback the planner acted on. Everything here is row counts, never
// timings, so analyzed plans stay deterministic.
func renderDrift(ce *CostEstimate, o *StepObs) string {
	if ce == nil || ce.EstOut <= 0 || ce.CtxRows <= 0 || o.RowsIn < selMinRows {
		return ""
	}
	est := float64(ce.EstOut) / float64(ce.CtxRows)
	obs := float64(o.RowsOut) / float64(o.RowsIn)
	if obs > est*selDriftFactor || obs < est/selDriftFactor {
		return fmt.Sprintf(" drift{est=%s obs=%s}", renderCost(est), renderCost(obs))
	}
	return ""
}

// PolicyString renders a candidate policy with its element name attached
// ("by-name(shot)"); shared by the internal plan labels and the public
// explain surface.
func PolicyString(policy, name string) string {
	if policy == "by-name" {
		return "by-name(" + name + ")"
	}
	return policy
}

func renderCost(c float64) string { return strconv.FormatFloat(c, 'g', -1, 64) }

func renderFLWORObs(o *OpObs) string {
	s := fmt.Sprintf("(tuples=%d out=%d", o.RowsIn, o.RowsOut)
	if o.Chunks > 0 {
		s += fmt.Sprintf(" chunks=%d", o.Chunks)
	}
	return s + ")"
}

func renderStepObs(o *StepObs, standoff bool) string {
	s := fmt.Sprintf("(in=%d out=%d", o.RowsIn, o.RowsOut)
	if standoff {
		s += fmt.Sprintf(" cand=%d", o.Candidates)
		if joins := o.JoinsString(); joins != "" {
			s += " joins=" + joins
		}
		if o.StreamChunks > 0 {
			s += fmt.Sprintf(" stream{chunks=%d chunk=%d..%d}", o.StreamChunks, o.ChunkMin, o.ChunkMax)
		}
	}
	return s + ")"
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
// instead, so their operators stay annotatable with estimates and counters.
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
