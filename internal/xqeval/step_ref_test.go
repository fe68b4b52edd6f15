package xqeval

// The step evaluation this package shipped before the flat step results, kept
// verbatim (names suffixed Ref) as the oracle of TestEvalStepAgainstReference:
// one []Item per context row grown by append, a separate predicate-free tree
// path, and predicates evaluated through an inner frame per result node. One
// change since: a reject row over several documents ranks its candidates in
// document order, not in the order the context first touches the documents.

import (
	"cmp"
	"slices"

	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
	"soxq/internal/xqplan"
)

// stepRowRef is one context node of a step with its originating iteration.
type stepRowRef struct {
	iter int32
	item Item
}

// evalStepRef applies one compiled axis step to the context sequence.
func (ev *Evaluator) evalStepRef(sp *xqplan.StepPlan, ctx LLSeq, f *frame) (LLSeq, error) {
	// Flatten the context. For forward and select steps every context node
	// becomes one "inner iteration" so positional predicates see
	// per-context-node positions; the union of per-node results equals the
	// sequence-level semi-join. The reject steps are anti-joins over the
	// *whole* context sequence of an iteration (section 3.1: "not
	// contained in ANY area-annotation in S1"), so there the group is the
	// iteration itself — a union of per-node complements would be wrong.
	perIteration := sp.Axis == xpath.AxisRejectNarrow || sp.Axis == xpath.AxisRejectWide
	if !perIteration && !sp.StandOff && len(sp.Predicates) == 0 {
		return ev.evalStepTreeFastRef(sp, ctx)
	}
	rows := make([]stepRowRef, 0, ctx.Total())
	if perIteration {
		for i := 0; i < ctx.N(); i++ {
			rows = append(rows, stepRowRef{iter: int32(i)})
		}
		for i := 0; i < ctx.N(); i++ {
			for _, it := range ctx.Group(i) {
				if !it.IsNode() {
					return LLSeq{}, errf(codeType, "axis step applied to an atomic value")
				}
			}
		}
	} else {
		for i := 0; i < ctx.N(); i++ {
			for _, it := range ctx.Group(i) {
				if !it.IsNode() {
					return LLSeq{}, errf(codeType, "axis step applied to an atomic value")
				}
				rows = append(rows, stepRowRef{iter: int32(i), item: it})
			}
		}
	}
	var results [][]Item
	var err error
	if sp.StandOff {
		if perIteration {
			results, err = ev.standOffRejectStepRef(sp, ctx)
		} else {
			results, err = ev.standOffStepRef(sp, rows)
		}
	} else {
		results, err = ev.treeStepRef(sp, rows)
	}
	if err != nil {
		return LLSeq{}, err
	}
	// Predicates, evaluated per context node group.
	for _, pred := range sp.Predicates {
		results, err = ev.applyStepPredicateRef(results, rows, pred, f, sp.Axis.Reverse())
		if err != nil {
			return LLSeq{}, err
		}
	}
	// Merge per original iteration, dedup in document order.
	b := newLLBuilder(ctx.N())
	r := 0
	for i := 0; i < ctx.N(); i++ {
		var items []Item
		for r < len(rows) && rows[r].iter == int32(i) {
			items = append(items, results[r]...)
			r++
		}
		b.add(sortDedupNodesRef(items)...)
	}
	out := b.done()
	ev.Stats.RecordStep(sp, int64(ctx.Total()), int64(out.Total()))
	return out, nil
}

// evalStepTreeFastRef is the predicate-free tree-axis step: matches are written
// straight into the output items buffer — no per-row result slices, no
// stepRowRef table — and each iteration's segment is sort-deduped in place. The
// per-row pre scratch lives on the evaluator (the loop below never re-enters
// eval, so the buffer cannot be in use twice).
func (ev *Evaluator) evalStepTreeFastRef(sp *xqplan.StepPlan, ctx LLSeq) (LLSeq, error) {
	// The output buffers come from the scoped arena during streaming runs (a
	// builder loan — its reclaim reads the final headers, so growth past the
	// context-size hint is safe); the builder is only used as a buffer pair,
	// the segments below are written directly.
	ob := ev.scrBuilderCap(ctx.N(), ctx.Total())
	out := ob.seq
	for i := 0; i < ctx.N(); i++ {
		segStart := len(out.Items)
		for _, it := range ctx.Group(i) {
			switch {
			case it.Kind == KAttr:
				res, err := attrSourceStepRef(sp, it)
				if err != nil {
					return LLSeq{}, err
				}
				out.Items = append(out.Items, res...)
			case !it.IsNode():
				return LLSeq{}, errf(codeType, "axis step applied to an atomic value")
			case sp.Axis == xpath.AxisAttribute:
				out.Items = appendAttrAxis(out.Items, it, sp.Test)
			default:
				ev.stepPres = xpath.AppendCompiledStep(ev.stepPres[:0], it.D, sp.Axis, sp.CompiledTest(it.D), it.Pre)
				for _, p := range ev.stepPres {
					out.Items = append(out.Items, NodeItem(it.D, p))
				}
			}
		}
		seg := sortDedupNodesRef(out.Items[segStart:])
		out.Items = out.Items[:segStart+len(seg)]
		out.Off = append(out.Off, int32(len(out.Items)))
	}
	ob.seq = out // write the final headers back so the reclaim sees growth
	ev.Stats.RecordStep(sp, int64(ctx.Total()), int64(len(out.Items)))
	return out, nil
}

// treeStepRef evaluates a standard axis per context node, using the step's
// per-document pre-compiled node test.
func (ev *Evaluator) treeStepRef(sp *xqplan.StepPlan, rows []stepRowRef) ([][]Item, error) {
	results := make([][]Item, len(rows))
	for r, row := range rows {
		it := row.item
		if it.Kind == KAttr {
			res, err := attrSourceStepRef(sp, it)
			if err != nil {
				return nil, err
			}
			results[r] = res
			continue
		}
		if sp.Axis == xpath.AxisAttribute {
			results[r] = attrAxisRef(it, sp.Test)
			continue
		}
		pres := xpath.CompiledStep(it.D, sp.Axis, sp.CompiledTest(it.D), it.Pre)
		if len(pres) == 0 {
			continue
		}
		items := make([]Item, len(pres))
		for k, p := range pres {
			items[k] = NodeItem(it.D, p)
		}
		results[r] = items
	}
	return results, nil
}

// attrAxisRef returns the matching attribute nodes of an element.
func attrAxisRef(it Item, test xpath.Test) []Item {
	return appendAttrAxis(nil, it, test)
}

// attrSourceStepRef evaluates the few axes that make sense from an attribute
// node context.
func attrSourceStepRef(sp *xqplan.StepPlan, it Item) ([]Item, error) {
	c := sp.CompiledTest(it.D)
	switch sp.Axis {
	case xpath.AxisParent:
		if c.Matches(it.D, it.Pre) {
			return []Item{NodeItem(it.D, it.Pre)}, nil
		}
		return nil, nil
	case xpath.AxisAncestor, xpath.AxisAncestorOrSelf:
		var out []Item
		pres := xpath.CompiledStep(it.D, xpath.AxisAncestorOrSelf, c, it.Pre)
		for _, p := range pres {
			out = append(out, NodeItem(it.D, p))
		}
		if sp.Axis == xpath.AxisAncestorOrSelf && sp.Test.Kind == xpath.TestAnyNode {
			out = append(out, it)
		}
		return out, nil
	case xpath.AxisSelf:
		if sp.Test.Kind == xpath.TestAnyNode ||
			(sp.Test.Kind == xpath.TestAttribute && (sp.Test.Name == "" || it.D.AttrName(it.Att) == sp.Test.Name)) {
			return []Item{it}, nil
		}
		return nil, nil
	default:
		// child/descendant/sibling/... of an attribute: empty.
		return nil, nil
	}
}

// standOffStepRef evaluates one of the four StandOff axes: partition the
// context per document fragment (section 4.4), run the step's join strategy
// against each document's region index, and map the (iter, pre) pairs back
// to items.
func (ev *Evaluator) standOffStepRef(sp *xqplan.StepPlan, rows []stepRowRef) ([][]Item, error) {
	if ev.IndexFor == nil {
		return nil, errf(codeStandOffIndex, "no region index provider configured")
	}
	op := sp.SO.Op
	results := make([][]Item, len(rows))

	// Partition context rows by document.
	byDoc := map[*tree.Doc][]core.CtxNode{}
	var docs []*tree.Doc
	for r, row := range rows {
		it := row.item
		if it.Kind != KNode { // attributes are never area-annotations
			continue
		}
		if _, seen := byDoc[it.D]; !seen {
			docs = append(docs, it.D)
		}
		byDoc[it.D] = append(byDoc[it.D], core.CtxNode{Iter: int32(r), Pre: it.Pre})
	}
	for _, d := range docs {
		ix, err := ev.IndexFor(d)
		if err != nil {
			return nil, errf(codeStandOffIndex, "building region index for %q: %v", d.Name, err)
		}
		cand, postFilter := ev.candidatesFor(ix, sp.SO, nil)
		if cand == nil {
			continue // the test can never match an area-annotation
		}
		// ctxRows for the cost model is the iteration count the join runs
		// over — the Basic variant re-scans the candidate sequence once per
		// iteration, empty iterations included.
		strat := ev.Strategy
		pairs := core.Join(ix, op, strat, byDoc[d], int32(len(rows)), cand, ev.JoinCfg)
		ev.countJoin(strat)
		ev.Stats.RecordJoin(sp, ix, int64(cand.Len()), strat)
		var test xpath.Compiled
		if postFilter {
			test = sp.CompiledTest(d)
		}
		for _, pr := range pairs {
			if postFilter && !test.Matches(d, pr.Pre) {
				continue
			}
			results[pr.Iter] = append(results[pr.Iter], NodeItem(d, pr.Pre))
		}
	}
	return results, nil
}

// standOffRejectStepRef evaluates reject-narrow/reject-wide at iteration
// granularity: one anti-join per iteration over all its context nodes.
func (ev *Evaluator) standOffRejectStepRef(sp *xqplan.StepPlan, ctx LLSeq) ([][]Item, error) {
	if ev.IndexFor == nil {
		return nil, errf(codeStandOffIndex, "no region index provider configured")
	}
	op := sp.SO.Op
	results := make([][]Item, ctx.N())

	// Partition context nodes by document; the anti-join runs per document
	// fragment against that document's candidates (section 4.4). An
	// iteration with no context node in some document still rejects "all
	// candidates" of documents it touches; candidates of untouched
	// documents are out of scope, mirroring that XPath steps only return
	// nodes from the documents of their context nodes.
	byDoc := map[*tree.Doc][]core.CtxNode{}
	iterTouches := map[*tree.Doc][]bool{}
	var docs []*tree.Doc
	for i := 0; i < ctx.N(); i++ {
		for _, it := range ctx.Group(i) {
			if it.Kind != KNode {
				continue
			}
			if _, seen := byDoc[it.D]; !seen {
				docs = append(docs, it.D)
				iterTouches[it.D] = make([]bool, ctx.N())
			}
			byDoc[it.D] = append(byDoc[it.D], core.CtxNode{Iter: int32(i), Pre: it.Pre})
			iterTouches[it.D][i] = true
		}
	}
	// An iteration's candidates, and so the positions its predicates see,
	// come in document order across documents too.
	slices.SortStableFunc(docs, func(a, b *tree.Doc) int { return cmp.Compare(a.OrderKey(), b.OrderKey()) })
	for _, d := range docs {
		ix, err := ev.IndexFor(d)
		if err != nil {
			return nil, errf(codeStandOffIndex, "building region index for %q: %v", d.Name, err)
		}
		cand, postFilter := ev.candidatesFor(ix, sp.SO, nil)
		if cand == nil {
			continue
		}
		strat := ev.Strategy
		pairs := core.Join(ix, op, strat, byDoc[d], int32(ctx.N()), cand, ev.JoinCfg)
		ev.countJoin(strat)
		ev.Stats.RecordJoin(sp, ix, int64(cand.Len()), strat)
		var test xpath.Compiled
		if postFilter {
			test = sp.CompiledTest(d)
		}
		for _, pr := range pairs {
			if !iterTouches[d][pr.Iter] {
				continue // iteration has no context node in this document
			}
			if postFilter && !test.Matches(d, pr.Pre) {
				continue
			}
			results[pr.Iter] = append(results[pr.Iter], NodeItem(d, pr.Pre))
		}
	}
	return results, nil
}

// applyStepPredicateRef filters step results with one predicate. Each result
// node is an inner iteration whose context item is the node, position() its
// 1-based index within its context-node group (reversed for reverse axes),
// and last() the group size.
func (ev *Evaluator) applyStepPredicateRef(results [][]Item, rows []stepRowRef, pred xqast.Expr, f *frame, reverse bool) ([][]Item, error) {
	total := 0
	for _, g := range results {
		total += len(g)
	}
	rowIters := make([]int32, 0, total) // inner iteration -> frame iteration
	ctxSeq := LLSeq{Off: make([]int32, 1, total+1)}
	pos := make([]int64, 0, total)
	last := make([]int64, 0, total)
	for r, g := range results {
		for k, it := range g {
			rowIters = append(rowIters, rows[r].iter)
			ctxSeq.Items = append(ctxSeq.Items, it)
			ctxSeq.Off = append(ctxSeq.Off, int32(len(ctxSeq.Items)))
			p := int64(k + 1)
			if reverse {
				p = int64(len(g) - k)
			}
			pos = append(pos, p)
			last = append(last, int64(len(g)))
		}
	}
	// Lift the outer frame into the inner iterations so predicates can use
	// enclosing variables.
	frameMap := make([]int32, total)
	copy(frameMap, rowIters)
	nf := f.expand(frameMap)
	nf.ctx = newBinding(ctxSeq)
	nf.pos = pos
	nf.last = last

	verdicts, err := ev.eval(pred, nf)
	if err != nil {
		return nil, err
	}
	out := make([][]Item, len(results))
	j := 0
	for r, g := range results {
		for _, it := range g {
			keep, err := predicateKeep(verdicts.Group(j), pos[j])
			if err != nil {
				return nil, err
			}
			if keep {
				out[r] = append(out[r], it)
			}
			j++
		}
	}
	return out, nil
}

// sortDedupNodesRef sorts items (which must all be nodes) in document order and
// removes identity duplicates, in place.
func sortDedupNodesRef(items []Item) []Item {
	slices.SortStableFunc(items, CompareDocOrder)
	out := items[:0]
	for i, it := range items {
		if i == 0 || !it.SameNode(items[i-1]) {
			out = append(out, it)
		}
	}
	return out
}
