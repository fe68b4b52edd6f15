package soxq

import "soxq/internal/xqplan"

// The plan description has one set of types, declared in internal/xqplan
// and aliased here; docs/EXPLAIN.md is the full output reference.
type (
	// PlanExplain is the structured description of a prepared query's
	// compiled form and — after Analyze — of one execution's observed
	// behaviour: the effective stand-off options, the operator tree of the
	// whole query (FLWOR, filter and conditional structure, with every
	// path's compiled step program nested inside), the flat per-path step
	// list, and the streaming pipeline shape. Prepared.Explain shows what
	// compilation knows (EXPLAIN); Prepared.Analyze annotates the same tree
	// with the observed counters of the run it performed (EXPLAIN ANALYZE).
	PlanExplain = xqplan.Explain
	// OpNode is one operator of the plan tree.
	OpNode = xqplan.Node
	// ObsExplain carries one operator's observed counters from an Analyze
	// run.
	ObsExplain = xqplan.Obs
	// StreamExplain describes one operator of the streaming pipeline.
	StreamExplain = xqplan.StreamOp
	// PathExplain is one path expression's compiled step program.
	PathExplain = xqplan.PathExplain
	// StepExplain describes one compiled step of a path.
	StepExplain = xqplan.StepExplain
)

// Explain returns the EXPLAIN description of the compiled plan: operator
// structure, compiled step programs, candidate policies and the pipeline
// shape. It shows only what compilation knows, so it reads the same before
// and after any execution; Analyze adds the observed counters.
func (p *Prepared) Explain() *PlanExplain {
	return p.plan.Explain()
}
