package xqplan

import (
	"sync"
	"sync/atomic"

	"soxq/internal/tree"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// StepPlan is the compiled form of one path step: the axis with the
// descendant-or-self::node()/child::T fusion already applied, the node test,
// the predicate list, and — for StandOff axes — the section 3.3 candidate
// policy. Everything statically knowable is decided here, once, at compile
// time; the evaluator consumes StepPlans without re-deriving any of it per
// evaluation.
//
// The one memo table holds the per-document residue that cannot be decided
// before a plan binds to documents: the node test resolved against a
// document's dictionary. It is resolved at first use and cached, with the
// table reset once it outgrows stepMemoLimit — a plan held across many
// document reload cycles must not pin every dead document tree its keys
// reference. A StepPlan is shared by every concurrent execution of its plan;
// use pointers, never copy one.
type StepPlan struct {
	Axis       xpath.Axis
	Test       xpath.Test
	Predicates []xqast.Expr
	// Preds classifies Predicates, index for index (see PredClass).
	Preds []PredPlan
	// Pushed is the length of the leading run of Preds that a by-name
	// StandOff step applies to its candidates before the join when pushdown
	// is on (section 4.3): attribute comparisons other than !=.
	Pushed int
	// FirstByJoin marks a StandOff select step whose first predicate after
	// the pushed ones is [1]: a Loop-Lifted run has the join keep each context
	// row's first match instead of its pairs (EXPLAIN pred{pos→join}).
	FirstByJoin bool
	// CountOnly marks the final step of a path that is the argument of the
	// built-in count, exists or empty, when it is a StandOff select step all
	// of whose predicates are pushed: a Loop-Lifted run hands the call the
	// join's per-iteration match counts instead of nodes (EXPLAIN out{count}).
	CountOnly bool
	// Fused marks a descendant step produced by merging the
	// descendant-or-self::node()/child::T pair (the // abbreviation) at
	// compile time, T's position-free predicates included.
	Fused bool
	// StandOff reports whether Axis is one of the four StandOff steps; SO
	// is only meaningful when it is.
	StandOff bool
	SO       SOStep

	tests  sync.Map // *tree.Doc -> xpath.Compiled
	nTests atomic.Int32
}

// stepMemoLimit bounds the StepPlan test memo. The memo is a pure cache keyed
// by document pointers; resetting it merely costs a recompute, while letting
// it grow would keep every document a long-lived plan ever bound to
// reachable.
const stepMemoLimit = 128

// Chunked reports whether a pipelined path may run the step one chunk of
// context areas at a time: a predicate-free StandOff select step, whose
// per-chunk joins merge through a document-order heap with cross-chunk
// dedup, emission gated by the candidate-interval watermark. Every other step
// runs in bulk — a reject is an anti-join over the whole context, and
// predicates re-rank positions per context group. The run time still checks
// the one condition only it can see (a single-document context) and runs the
// bulk step when it fails.
func (sp *StepPlan) Chunked() bool {
	return sp.selects() && len(sp.Predicates) == 0
}

// Program is the compiled step sequence of one path expression, with the //
// fusion applied (a Program can be shorter than the source step list).
type Program []*StepPlan

// CompileStep compiles a single step. Compile uses it for every step of the
// module; the evaluator uses it for steps synthesised at run time (the
// so:select-narrow(...) function form).
func CompileStep(step *xqast.Step) *StepPlan {
	sp := &StepPlan{Axis: step.Axis, Test: step.Test, Predicates: step.Predicates}
	for _, pred := range step.Predicates {
		sp.Preds = append(sp.Preds, classifyPredicate(pred))
	}
	if step.Axis.StandOff() {
		sp.StandOff = true
		sp.SO = Decide(step)
		for sp.SO.Push == CandByName && sp.Pushed < len(sp.Preds) &&
			sp.Preds[sp.Pushed].Class == PredAttrCompare && sp.Preds[sp.Pushed].Op != "!=" {
			sp.Pushed++
		}
		sp.FirstByJoin = sp.selects() && sp.Pushed < len(sp.Preds) &&
			sp.Preds[sp.Pushed].Class == PredPosition && sp.Preds[sp.Pushed].Pos == 1
	}
	return sp
}

// selects reports whether the step is one of the two StandOff select axes,
// whose result per context row or iteration is a semi-join the join can
// reduce (a reject is an anti-join over the whole context).
func (sp *StepPlan) selects() bool {
	return sp.Axis == xpath.AxisSelectNarrow || sp.Axis == xpath.AxisSelectWide
}

// compileProgram compiles a path's step list, fusing each
// descendant-or-self::node()/child::T[p1]...[pk] pair, the first step
// predicate-free and every pi position-free, into a single
// descendant::T[p1]...[pk] step so the subtree is never materialised node by
// node. A position-free predicate keeps or drops a node whatever row it sits
// in, so filtering the descendants of a context node equals filtering the
// children of each of its descendants-or-self.
func (p *Plan) compileProgram(v *xqast.Path) Program {
	prog := make(Program, 0, len(v.Steps))
	for si := 0; si < len(v.Steps); si++ {
		step := v.Steps[si]
		if step.Axis == xpath.AxisDescendantOrSelf && step.Test.Kind == xpath.TestAnyNode &&
			len(step.Predicates) == 0 && si+1 < len(v.Steps) {
			next := v.Steps[si+1]
			if next.Axis == xpath.AxisChild && p.positionFree(next.Predicates...) {
				sp := CompileStep(&xqast.Step{Axis: xpath.AxisDescendant, Test: next.Test, Predicates: next.Predicates})
				sp.Fused = true
				prog = append(prog, sp)
				si++
				continue
			}
		}
		prog = append(prog, CompileStep(step))
	}
	return prog
}

// CompiledTest returns the step's node test resolved against d's dictionary,
// memoized per document so repeated executions of a cached plan skip the
// string lookup entirely.
func (sp *StepPlan) CompiledTest(d *tree.Doc) xpath.Compiled {
	if c, ok := sp.tests.Load(d); ok {
		return c.(xpath.Compiled)
	}
	c := xpath.Compile(d, sp.Test)
	// A concurrent reset may drop a freshly stored entry — that only means
	// one extra recompute later.
	if sp.nTests.Add(1) > stepMemoLimit {
		sp.nTests.Store(0)
		sp.tests.Clear()
	}
	sp.tests.Store(d, c)
	return c
}
