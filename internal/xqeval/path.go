package xqeval

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"sort"

	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
	"soxq/internal/xqplan"
)

// evalPath evaluates a path expression: establish the starting context, then
// apply the path's compiled step program in bulk across all iterations, with
// per-iteration document-order deduplication after every step (XPath
// semantics, and the contract of the StandOff steps in section 3.2). The //
// fusion, name tests and stand-off decisions were all made at compile time;
// this function only executes them.
func (ev *Evaluator) evalPath(p *xqast.Path, f *frame) (LLSeq, error) {
	cur, err := ev.PathPrefix(p, f, len(ev.Plan.Program(p)))
	if err != nil {
		return LLSeq{}, err
	}
	ev.Stats.RecordOp(p, 0, int64(cur.Total()))
	return cur, nil
}

// pathStart establishes the starting context of a path: the start expression
// (or the frame's context item), hoisted to the document root for absolute
// paths.
func (ev *Evaluator) pathStart(p *xqast.Path, f *frame) (LLSeq, error) {
	var cur LLSeq
	if p.Start != nil {
		s, err := ev.eval(p.Start, f)
		if err != nil {
			return LLSeq{}, err
		}
		cur = s
	} else {
		if f.ctx == nil {
			return LLSeq{}, errf(codeNoContext, "path expression needs a context item")
		}
		cur = ev.scrMaterialize(f.ctx)
	}
	if p.Absolute {
		b := newLLBuilder(f.n)
		for i := 0; i < f.n; i++ {
			g := cur.Group(i)
			items := make([]Item, 0, len(g))
			for _, it := range g {
				if !it.IsNode() {
					return LLSeq{}, errf(codeType, "cannot take the root of an atomic value")
				}
				items = append(items, NodeItem(it.D, it.D.FragmentRoot(it.Pre)))
			}
			b.add(sortDedupNodes(items)...)
		}
		cur = b.done()
	}
	return cur, nil
}

// evalFilter evaluates E[p1][p2]... — predicates over an arbitrary sequence.
func (ev *Evaluator) evalFilter(v *xqast.Filter, f *frame) (LLSeq, error) {
	cur, err := ev.eval(v.Base, f)
	if err != nil {
		return LLSeq{}, err
	}
	rowsIn := int64(cur.Total())
	for _, pred := range v.Predicates {
		cur, err = ev.applyPredicate(cur, pred, f, false)
		if err != nil {
			return LLSeq{}, err
		}
	}
	ev.Stats.RecordOp(v, rowsIn, int64(cur.Total()))
	return cur, nil
}

// evalStep applies one compiled axis step to the context sequence, in three
// stages over one flat buffer: the step's matches grouped per context row,
// the predicates filtering those rows in place, and the rows of an iteration
// merged into its document-order, duplicate-free group.
//
// A context row is what positional predicates count within. For forward and
// select steps every context node is a row; the union of per-node results
// equals the sequence-level semi-join. The reject steps are anti-joins over
// the *whole* context sequence of an iteration (section 3.1: "not contained
// in ANY area-annotation in S1"), so there the row is the iteration itself —
// a union of per-node complements would be wrong.
func (ev *Evaluator) evalStep(sp *xqplan.StepPlan, ctx LLSeq, f *frame) (LLSeq, error) {
	if err := nodeContext(ctx); err != nil {
		return LLSeq{}, err
	}
	perIteration := sp.Axis == xpath.AxisRejectNarrow || sp.Axis == xpath.AxisRejectWide
	var rows LLSeq
	var err error
	applied := 0 // leading predicates the candidates or the join applied
	emitted := 0 // the rows a tree axis emitted (Obs.Produced)
	reduced := sp.FirstByJoin && ev.reduces(sp)
	switch {
	case reduced:
		rows, err = ev.firstRows(sp, ctx)
		applied = sp.Pushed + 1
	case sp.StandOff:
		applied = ev.pushedPreds(sp)
		rows, err = ev.standOffRows(sp, ctx, perIteration, sp.Preds[:applied])
	default:
		rows, applied, emitted = ev.treeRows(sp, ctx)
	}
	if err != nil {
		return LLSeq{}, err
	}
	for i := applied; i < len(sp.Predicates); i++ {
		if rows, err = ev.filterRows(rows, sp.Preds[i], sp.Predicates[i], ctx, perIteration, f, sp.Axis.Reverse()); err != nil {
			return LLSeq{}, err
		}
	}
	// A row is in document order and duplicate-free (the axes and the join
	// return it so, a reject row over several documents included), which
	// makes the rows the answer when each iteration has exactly one — the
	// $b/axis::x shape, and every reject row.
	out := rows
	if !perIteration && !oneItemPerGroup(ctx) {
		out = ev.mergeRows(rows, ctx)
	}
	ev.Stats.RecordStep(sp, int64(ctx.Total()), int64(out.Total()))
	switch { // a StandOff join that does not reduce records its pairs
	case reduced:
		ev.Stats.RecordProduced(sp, int64(out.Total()))
	case !sp.StandOff:
		ev.Stats.RecordProduced(sp, int64(emitted))
	}
	return out, nil
}

// nodeContext is the error of an axis step whose context holds an atomic
// value, or nil.
func nodeContext(ctx LLSeq) error {
	for _, it := range ctx.Items {
		if !it.IsNode() {
			return errf(codeType, "axis step applied to an atomic value")
		}
	}
	return nil
}

// pushedPreds is how many of a StandOff step's leading predicates this run
// applies to its candidates, before the join.
func (ev *Evaluator) pushedPreds(sp *xqplan.StepPlan) int {
	if ev.Pushdown && !ev.genericPredicates {
		return sp.Pushed
	}
	return 0
}

// reduces reports whether this run may have the join reduce a step the plan
// marked (StepPlan.FirstByJoin, StepPlan.CountOnly): under Loop-Lifted, with
// the step's pushed predicates pushed. The Basic and naive baselines stay
// unreduced.
func (ev *Evaluator) reduces(sp *xqplan.StepPlan) bool {
	return ev.Strategy == core.StrategyLoopLifted && !ev.genericPredicates && ev.pushedPreds(sp) == sp.Pushed
}

// oneItemPerGroup reports whether every iteration of s holds exactly one item.
func oneItemPerGroup(s LLSeq) bool {
	if s.Total() != s.N() {
		return false
	}
	for i, o := range s.Off {
		if o != int32(i) {
			return false
		}
	}
	return true
}

// mergeRows folds a per-context-node result (row r belongs to context item r)
// into one group per iteration, compacting rows.Items in place: the rows of
// an iteration are adjacent already, and only an iteration with several rows
// needs its segment sorted and deduplicated.
func (ev *Evaluator) mergeRows(rows, ctx LLSeq) LLSeq {
	off := ev.scrOffs(ctx.N() + 1)
	w := int32(0)
	for i := 0; i < ctx.N(); i++ {
		seg := rows.Items[rows.Off[ctx.Off[i]]:rows.Off[ctx.Off[i+1]]]
		if ctx.Off[i+1]-ctx.Off[i] > 1 {
			seg = sortDedupNodes(seg)
		}
		w += int32(copy(rows.Items[w:], seg))
		off = append(off, w)
	}
	return LLSeq{Off: off, Items: rows.Items[:w]}
}

// countJoin feeds the always-on per-algorithm join counter. Called once per
// join run — a bulk core.JoinAreas or core.JoinReduce per tree (joinInputs),
// a chunk's core.MatchAreas or core.JoinAreas (JoinChunk) — so the counters
// reflect join invocations actually run, one atomic add each.
func (ev *Evaluator) countJoin(strat core.Strategy) {
	m := ev.Met
	if m == nil {
		return
	}
	switch strat {
	case core.StrategyBasic:
		m.JoinBasic.Inc()
	case core.StrategyLoopLifted:
		m.JoinLoopLifted.Inc()
	default:
		m.JoinNaive.Inc()
	}
}

// treeRows evaluates a standard axis: one row per context node, matches
// written straight into the row buffer. The step's leading attribute
// comparisons filter the matches before they are boxed; applied is how many,
// and emitted counts the matches before them.
func (ev *Evaluator) treeRows(sp *xqplan.StepPlan, ctx LLSeq) (rows LLSeq, applied, emitted int) {
	var ms []attrMatcher
	for !ev.genericPredicates && len(ms) < len(sp.Preds) && sp.Preds[len(ms)].Class == xqplan.PredAttrCompare {
		ms = append(ms, attrMatcher{pp: sp.Preds[len(ms)]})
	}
	ob := ev.scrBuilderCap(ctx.Total(), ctx.Total())
	for _, it := range ctx.Items {
		var n int
		ob.seq.Items, n = ev.appendTreeStep(ob.seq.Items, sp, it, ms)
		emitted += n
		ob.endGroup()
	}
	return ob.seq, len(ms), emitted
}

// appendTreeStep appends the matches of a standard axis step from one context
// node that satisfy every matcher in ms, in document order, using the step's
// per-document pre-compiled node test, and returns how many the axis matched
// before ms. The pre scratch lives on the evaluator (nothing here re-enters
// eval, so the buffer cannot be in use twice).
func (ev *Evaluator) appendTreeStep(dst []Item, sp *xqplan.StepPlan, it Item, ms []attrMatcher) ([]Item, int) {
	n := len(dst)
	switch {
	case it.Kind == KAttr:
		dst = appendAttrSourceStep(dst, sp, it)
	case sp.Axis == xpath.AxisAttribute:
		dst = appendAttrAxis(dst, it, sp.Test)
	default:
		ev.stepPres = xpath.AppendCompiledStep(ev.stepPres[:0], it.D, sp.Axis, sp.CompiledTest(it.D), it.Pre)
		if len(ms) == 0 {
			dst = slices.Grow(dst, len(ev.stepPres))
		}
		for _, p := range ev.stepPres {
			if matchAll(ms, it.D, p) {
				dst = append(dst, NodeItem(it.D, p))
			}
		}
		return dst, len(ev.stepPres)
	}
	emitted := len(dst) - n
	if len(ms) == 0 {
		return dst, emitted
	}
	kept := slices.DeleteFunc(dst[n:], func(x Item) bool { return x.Kind != KNode || !matchAll(ms, x.D, x.Pre) })
	return dst[:n+len(kept)], emitted
}

// appendAttrAxis appends the matching attribute nodes of an element to dst.
func appendAttrAxis(dst []Item, it Item, test xpath.Test) []Item {
	if it.D.Kind(it.Pre) != tree.ElementNode {
		return dst
	}
	if test.Kind != xpath.TestAttribute && test.Kind != xpath.TestAnyNode {
		return dst
	}
	lo, hi := it.D.Attrs(it.Pre)
	for a := lo; a < hi; a++ {
		if test.Name == "" || it.D.AttrName(a) == test.Name {
			dst = append(dst, AttrItem(it.D, it.Pre, a))
		}
	}
	return dst
}

// appendAttrSourceStep evaluates the few axes that make sense from an
// attribute node context.
func appendAttrSourceStep(dst []Item, sp *xqplan.StepPlan, it Item) []Item {
	c := sp.CompiledTest(it.D)
	switch sp.Axis {
	case xpath.AxisParent:
		if c.Matches(it.D, it.Pre) {
			dst = append(dst, NodeItem(it.D, it.Pre))
		}
	case xpath.AxisAncestor, xpath.AxisAncestorOrSelf:
		for _, p := range xpath.CompiledStep(it.D, xpath.AxisAncestorOrSelf, c, it.Pre) {
			dst = append(dst, NodeItem(it.D, p))
		}
		if sp.Axis == xpath.AxisAncestorOrSelf && sp.Test.Kind == xpath.TestAnyNode {
			dst = append(dst, it)
		}
	case xpath.AxisSelf:
		if sp.Test.Kind == xpath.TestAnyNode ||
			(sp.Test.Kind == xpath.TestAttribute && (sp.Test.Name == "" || it.D.AttrName(it.Att) == sp.Test.Name)) {
			dst = append(dst, it)
		}
	}
	// child/descendant/sibling/... of an attribute: empty.
	return dst
}

// docContext is the part of a StandOff step's context that lies in one
// tree, a loaded document or one fragment of a container: its n context
// nodes, node pres()[i] in context row iters()[i]. iters ascends, and holds
// the rows of nodes that are not areas too. Both lists live in buf, the pres
// in its first half and the rows in its second.
type docContext struct {
	d    *tree.Doc
	root int32 // the tree's document node
	n    int32
	buf  []int32
}

func (t docContext) pres() []int32  { return t.buf[:t.n] }
func (t docContext) iters() []int32 { return t.buf[len(t.buf)/2:][:t.n] }

// cmpTree orders two parts' trees in document order: documents by creation
// rank, a container's fragments by pre. Snapshots of one document share its
// rank and compare equal.
func cmpTree(a, b docContext) int {
	return cmp.Or(cmp.Compare(a.d.OrderKey(), b.d.OrderKey()), cmp.Compare(a.root, b.root))
}

// partitionByDoc splits the context per tree (section 4.4), in document
// order, so rows laid out part after part are in document order. Attribute
// context items are dropped: attributes are never area-annotations. The
// parts and their node lists reuse ev.ctxParts, so they are valid until the
// next call.
func (ev *Evaluator) partitionByDoc(ctx LLSeq, perIteration bool) []docContext {
	parts := ev.ctxParts[:0] // in document order throughout
	cur := -1                // index of the part the previous node went to
	for i := 0; i < ctx.N(); i++ {
		for r := ctx.Off[i]; r < ctx.Off[i+1]; r++ {
			it := ctx.Items[r]
			if it.Kind != KNode {
				continue
			}
			if root := it.D.FragmentRoot(it.Pre); cur < 0 || parts[cur].d != it.D || parts[cur].root != root {
				key, found := docContext{d: it.D, root: root}, false
				cur, found = slices.BinarySearchFunc(parts, key, cmpTree)
				for found && parts[cur].d != it.D { // another snapshot: first seen, first
					cur++
					found = cur < len(parts) && cmpTree(parts[cur], key) == 0
				}
				if !found {
					if n := len(parts); n < cap(parts) {
						key.buf = parts[:n+1][n].buf // a spare slot's buffer from an earlier call
					}
					if need := 2 * (ctx.Total() - int(r)); len(key.buf) < need { // the rest of the context bounds the part
						key.buf = make([]int32, need)
					}
					parts = slices.Insert(parts, cur, key)
				}
			}
			row := r
			if perIteration {
				row = int32(i)
			}
			p := &parts[cur]
			p.buf[p.n], p.buf[len(p.buf)/2+int(p.n)] = it.Pre, row
			p.n++
		}
	}
	ev.ctxParts = parts
	return parts
}

// standOffRows evaluates one of the four StandOff axes: run the step's join
// strategy against the region index of each document of the context and lay
// the (row, pre) pairs — which the join returns sorted and duplicate-free —
// out as rows. A reject row is an iteration and only holds candidates of the
// documents the iteration touches, mirroring that XPath steps only return
// nodes from the documents of their context nodes; an iteration with no area
// among its context nodes of a document it touches rejects all of that
// document's candidates. The pushed predicates narrow the candidates before
// the join.
func (ev *Evaluator) standOffRows(sp *xqplan.StepPlan, ctx LLSeq, perIteration bool, pushed []xqplan.PredPlan) (LLSeq, error) {
	if ev.IndexFor == nil {
		return LLSeq{}, errf(codeStandOffIndex, "no region index provider configured")
	}
	// The row count is also the iteration count the join runs over: the
	// Basic variant re-scans the candidate sequence once per iteration, empty
	// iterations included.
	nRows := ctx.Total()
	if perIteration {
		nRows = ctx.N()
	}
	parts := ev.partitionByDoc(ctx, perIteration)
	var ob *llBuilder
	for _, part := range parts {
		d := part.d
		ix, cand, keep, err := ev.joinInputs(sp, part, pushed, nRows)
		if err != nil {
			return LLSeq{}, err
		}
		if cand == nil {
			continue // the test can never match an area-annotation
		}
		areas := ix.ContextAreas(part.pres(), part.iters(), ev.JoinCfg.Arena)
		pairs := core.JoinAreas(ix, sp.SO.Op, ev.Strategy, areas, int32(nRows), cand, ev.JoinCfg)
		ev.Stats.RecordProduced(sp, int64(len(pairs)))
		pb := ev.scrBuilderCap(nRows, len(pairs))
		touched := part.iters() // reject: the rows at or after the current pair's that touch d
		for _, pr := range pairs {
			if perIteration {
				for len(touched) > 0 && touched[0] < pr.Iter {
					touched = touched[1:]
				}
				if len(touched) == 0 || touched[0] != pr.Iter {
					continue // iteration has no context node in this document
				}
			}
			if keep != nil && !keep(pr.Pre) {
				continue
			}
			for len(pb.seq.Off) <= int(pr.Iter) {
				pb.endGroup()
			}
			pb.appendItem(NodeItem(d, pr.Pre))
		}
		for len(pb.seq.Off) <= nRows {
			pb.endGroup()
		}
		if ob == nil {
			ob = pb
		} else {
			ob = ev.concatRows(ob, pb)
		}
	}
	if ob == nil { // no document of the context can match: nRows empty rows
		ob = ev.scrBuilderCap(nRows, 0)
		for len(ob.seq.Off) <= nRows {
			ob.endGroup()
		}
	}
	return ob.seq, nil
}

// joinInputs resolves what one StandOff join of sp over the tree of part t
// runs against (resolveJoin) and counts the join as run over iters
// iterations: the Basic and naive joins scan the candidates once per
// iteration, the Loop-Lifted join once.
func (ev *Evaluator) joinInputs(sp *xqplan.StepPlan, t docContext, pushed []xqplan.PredPlan, iters int) (ix *core.RegionIndex, cand *core.Candidates, keep func(int32) bool, err error) {
	ix, cand, keep, err = ev.resolveJoin(sp, t.d, t.root, pushed)
	if cand != nil {
		ev.countJoin(ev.Strategy)
		if ev.Strategy == core.StrategyLoopLifted {
			iters = 1
		}
		ev.Stats.RecordJoin(sp, ix, int64(cand.Len())*int64(iters), ev.Strategy)
	}
	return ix, cand, keep, err
}

// resolveJoin resolves what a StandOff join of sp over the tree of d headed
// by document node root runs against: the region index of d and the
// candidate sequence, narrowed by the pushed predicates and cut to the
// tree's pre range. keep is the node test applied to the join's output when
// the candidates do not apply it (nil when they do). A nil cand means the
// test can never match in d, and no join runs.
func (ev *Evaluator) resolveJoin(sp *xqplan.StepPlan, d *tree.Doc, root int32, pushed []xqplan.PredPlan) (ix *core.RegionIndex, cand *core.Candidates, keep func(int32) bool, err error) {
	ix, err = ev.IndexFor(d)
	if err != nil {
		return nil, nil, nil, errf(codeStandOffIndex, "building region index for %q: %v", d.Name, err)
	}
	cand, postFilter := ev.candidatesFor(ix, sp.SO, pushed)
	if cand == nil {
		return ix, nil, nil, nil
	}
	cand = ix.Within(cand, root, root+d.Size(root))
	if postFilter {
		test := sp.CompiledTest(d)
		keep = func(pre int32) bool { return test.Matches(d, pre) }
	}
	return ix, cand, keep, nil
}

// standOffReduce runs a StandOff select step whose join reduces its matches
// (core.JoinReduce), all its pushed predicates applied by the candidates.
// With first unset the result is the size of each iteration's step result,
// counts adding across the documents an iteration touches; with first set it
// is each context row's first match, -1 for none.
func (ev *Evaluator) standOffReduce(sp *xqplan.StepPlan, ctx LLSeq, first bool) ([]int32, error) {
	if err := nodeContext(ctx); err != nil {
		return nil, err
	}
	if ev.IndexFor == nil {
		return nil, errf(codeStandOffIndex, "no region index provider configured")
	}
	var out []int32
	if first {
		out = slices.Repeat([]int32{-1}, ctx.Total())
	} else {
		out = make([]int32, ctx.N())
	}
	for _, part := range ev.partitionByDoc(ctx, !first) {
		ix, cand, keep, err := ev.joinInputs(sp, part, sp.Preds[:sp.Pushed], 1)
		if err != nil {
			return nil, err
		}
		if cand != nil {
			core.JoinReduce(ix, sp.SO.Op, ix.ContextAreas(part.pres(), part.iters(), ev.JoinCfg.Arena), cand, keep, first, out, ev.JoinCfg)
		}
	}
	return out, nil
}

// firstRows is the rows of a FirstByJoin step after its [1]: each context
// row's first match, in the row's document.
func (ev *Evaluator) firstRows(sp *xqplan.StepPlan, ctx LLSeq) (LLSeq, error) {
	first, err := ev.standOffReduce(sp, ctx, true)
	if err != nil {
		return LLSeq{}, err
	}
	ob := ev.scrBuilderCap(len(first), len(first))
	for r, pre := range first {
		if pre >= 0 {
			ob.appendItem(NodeItem(ctx.Items[r].D, pre))
		}
		ob.endGroup()
	}
	return ob.seq, nil
}

// pathCounts evaluates the argument of count, exists or empty to the size of
// each iteration's result when it is a path whose final step is CountOnly
// and this run may reduce it. ok is false, and nothing is evaluated,
// otherwise. The step and the path record the counts' sum as their output.
func (ev *Evaluator) pathCounts(arg xqast.Expr, f *frame) (counts []int32, ok bool, err error) {
	p, isPath := arg.(*xqast.Path)
	if !isPath {
		return nil, false, nil
	}
	prog := ev.Plan.Program(p)
	if len(prog) == 0 || !prog[len(prog)-1].CountOnly || !ev.reduces(prog[len(prog)-1]) {
		return nil, false, nil
	}
	last := prog[len(prog)-1]
	ctx, err := ev.PathPrefix(p, f, len(prog)-1)
	if err == nil {
		counts, err = ev.standOffReduce(last, ctx, false)
	}
	if err != nil {
		return nil, true, err
	}
	total := int64(0)
	for _, n := range counts {
		total += int64(n)
	}
	ev.Stats.RecordStep(last, int64(ctx.Total()), total)
	ev.Stats.RecordProduced(last, total)
	ev.Stats.RecordOp(p, 0, total)
	return counts, true, nil
}

// concatRows appends b's rows to a's, row by row.
func (ev *Evaluator) concatRows(a, b *llBuilder) *llBuilder {
	out := ev.scrBuilderCap(a.seq.N(), a.seq.Total()+b.seq.Total())
	for r := 0; r < a.seq.N(); r++ {
		out.add2(a.seq.Group(r), b.seq.Group(r))
	}
	return out
}

// candidatesFor materialises the candidate sequence for a StandOff step
// whose policy was decided at compile time (section 3.3, xqplan.Decide).
// Only the element-name to name-id resolution happens here, because it is
// per-document. A nil result means the step is statically or dynamically
// empty (the test can never match, or the name does not occur in this
// document). pushed are the step's leading attribute predicates that
// candidate selection applies (by-name policy only).
func (ev *Evaluator) candidatesFor(ix *core.RegionIndex, so xqplan.SOStep, pushed []xqplan.PredPlan) (*core.Candidates, bool) {
	switch so.Policy(ev.Pushdown) {
	case xqplan.CandAll:
		return ix.All(), false
	case xqplan.CandAllFiltered:
		return ix.All(), true
	case xqplan.CandByName:
		id, ok := ix.Doc().Dict().Lookup(so.Name)
		if !ok {
			return nil, false
		}
		if len(pushed) > 0 {
			return pushedCandidates(ix, id, pushed), false
		}
		return ix.FilterByName(id), false
	default: // CandImpossible: text()/comment()/... never match elements
		return nil, false
	}
}

// pushedCandidates is the candidate sequence of the areas named nameID that
// satisfy every pushed predicate: the first predicate's range of the
// (element, attribute) value ordering, binary-searched; the others, and all
// of them on a delta layer's live inserts, tested value by value. nil when an
// attribute occurs nowhere in the document, so nothing can match.
func pushedCandidates(ix *core.RegionIndex, nameID int32, pushed []xqplan.PredPlan) *core.Candidates {
	d := ix.Doc()
	attrs := make([]int32, len(pushed))
	for i, pp := range pushed {
		id, ok := d.Dict().Lookup(pp.Attr)
		if !ok {
			return nil
		}
		attrs[i] = id
	}
	var pres []int32
	keep := func(pre int32, from int) {
		for i := from; i < len(pushed); i++ {
			if a := d.Attr(pre, attrs[i]); a < 0 || !attrMatches(d.AttrValueBytes(a), pushed[i]) {
				return
			}
		}
		pres = append(pres, pre)
	}
	o, pp := ix.AttrOrder(nameID, attrs[0], untypedNumber), pushed[0]
	if !pp.Numeric {
		lit := []byte(pp.Str)
		r := valueRange(o.Str, pp.Op, func(v []byte) int { return bytes.Compare(v, lit) })
		pres = make([]int32, 0, len(r))
		for _, e := range r {
			keep(e.Pre, 1)
		}
	} else if !math.IsNaN(pp.Num) { // NaN compares false under every pushed operator
		r := valueRange(o.Num, pp.Op, func(v float64) int { return cmp.Compare(v, pp.Num) })
		pres = make([]int32, 0, len(r))
		for _, e := range r {
			keep(e.Pre, 1)
		}
	}
	for _, pre := range ix.InsertedAreas(nameID) {
		keep(pre, 0)
	}
	return ix.CandidatesOf(nameID, pres)
}

// valueRange returns the entries of a value-ordered column whose value v
// satisfies `v op literal` for a pushed operator, c(v) being the sign of v
// against the literal under the order the column is sorted by.
func valueRange[V any](col []core.ValuePre[V], op string, c func(V) int) []core.ValuePre[V] {
	ge := sort.Search(len(col), func(i int) bool { return c(col[i].Val) >= 0 })
	gt := sort.Search(len(col), func(i int) bool { return c(col[i].Val) > 0 })
	switch op {
	case "=":
		return col[ge:gt]
	case "<":
		return col[:ge]
	case "<=":
		return col[:gt]
	case ">":
		return col[gt:]
	default: // ">="
		return col[ge:]
	}
}

// filterRows filters the rows of a step result with one predicate, in place.
// Within its row a node has position() its 1-based index (counted backwards
// for reverse axes) and last() the row length. The classified shapes (see
// xqplan.PredClass) never leave this function; a generic predicate is
// evaluated with every result node as an inner iteration whose context item
// is the node.
func (ev *Evaluator) filterRows(rows LLSeq, pp xqplan.PredPlan, pred xqast.Expr, ctx LLSeq, perIteration bool, f *frame, reverse bool) (LLSeq, error) {
	if ev.genericPredicates {
		pp = xqplan.PredPlan{}
	}
	items := rows.Items
	var keep func(j, k, n int) (bool, error) // item j is the k-th (0-based) of its row of n
	switch pp.Class {
	case xqplan.PredPosition:
		keep = func(_, k, n int) (bool, error) {
			if reverse {
				k = n - 1 - k
			}
			return int64(k+1) == pp.Pos, nil
		}
	case xqplan.PredAttrCompare:
		m := attrMatcher{pp: pp}
		keep = func(j, _, _ int) (bool, error) {
			it := items[j]
			return it.Kind == KNode && m.match(it.D, it.Pre), nil // an attribute has no attributes
		}
	default:
		// Lift the outer frame into the inner iterations so the predicate can
		// use enclosing variables. The context sequence is the row buffer
		// itself under the one-item-per-iteration offsets.
		total := len(items)
		rowIters := make([]int32, total) // inner iteration -> frame iteration
		pos := make([]int64, total)
		last := make([]int64, total)
		iter := 0
		for r := 0; r < rows.N(); r++ {
			if perIteration {
				iter = r
			} else {
				for int(ctx.Off[iter+1]) <= r {
					iter++
				}
			}
			lo, hi := int(rows.Off[r]), int(rows.Off[r+1])
			for j := lo; j < hi; j++ {
				rowIters[j] = int32(iter)
				pos[j] = int64(j - lo + 1)
				if reverse {
					pos[j] = int64(hi - j)
				}
				last[j] = int64(hi - lo)
			}
		}
		nf := f.expand(rowIters)
		nf.ctx = newBinding(LLSeq{Off: ascOff(total), Items: items})
		nf.pos = pos
		nf.last = last
		verdicts, err := ev.eval(pred, nf)
		if err != nil {
			return LLSeq{}, err
		}
		// A verdict group may alias the row buffer ([.] materialises the
		// context binding as is), but group j then sits at index j, which the
		// compaction below has not overwritten when it reads it.
		keep = func(j, _, _ int) (bool, error) { return predicateKeep(verdicts.Group(j), pos[j]) }
	}
	w, lo := 0, 0
	for r := 0; r < rows.N(); r++ {
		hi := int(rows.Off[r+1])
		for j := lo; j < hi; j++ {
			ok, err := keep(j, j-lo, hi-lo)
			if err != nil {
				return LLSeq{}, err
			}
			if ok {
				items[w] = items[j]
				w++
			}
		}
		rows.Off[r+1] = int32(w)
		lo = hi
	}
	rows.Items = items[:w]
	return rows, nil
}

// attrMatcher tests nodes against one PredAttrCompare predicate, resolving
// the attribute's name id once per document.
type attrMatcher struct {
	pp xqplan.PredPlan
	d  *tree.Doc
	id int32
}

func (m *attrMatcher) match(d *tree.Doc, pre int32) bool {
	if d != m.d {
		m.d, m.id = d, -1 // a name d never interned: no node has the attribute
		if id, ok := d.Dict().Lookup(m.pp.Attr); ok {
			m.id = id
		}
	}
	a := d.Attr(pre, m.id)
	return a >= 0 && attrMatches(d.AttrValueBytes(a), m.pp)
}

// matchAll reports whether node pre of d satisfies every matcher in ms.
func matchAll(ms []attrMatcher, d *tree.Doc, pre int32) bool {
	for i := range ms {
		if !ms[i].match(d, pre) {
			return false
		}
	}
	return true
}

// attrMatches compares an attribute value with the literal of a
// PredAttrCompare predicate by the general-comparison rules for an
// untypedAtomic operand (comparePair): against a string as strings, against
// a number as numbers, an unparsable value comparing false under every
// operator.
func attrMatches(val []byte, pp xqplan.PredPlan) bool {
	if !pp.Numeric {
		c := 1 // string(val) in a comparison does not allocate
		if string(val) == pp.Str {
			c = 0
		} else if string(val) < pp.Str {
			c = -1
		}
		return cmpResult(pp.Op, c)
	}
	x, ok := untypedNumber(val)
	return ok && numCompare(pp.Op, x, pp.Num)
}

// untypedNumber is an attribute value cast to a number the way an
// untypedAtomic compared with a number is.
func untypedNumber(val []byte) (float64, bool) {
	if x, ok := parseNumericBytes(val); ok {
		return x, true
	}
	// parseNumericBytes trims XML whitespace only, an untypedAtomic what
	// strings.TrimSpace trims: more only when other than printable ASCII.
	if bytes.IndexFunc(val, func(r rune) bool { return r >= 0x80 || r == '\v' || r == '\f' }) < 0 {
		return 0, false
	}
	return Untyped(string(val)).NumericValue()
}

// applyPredicate filters a plain filter expression E[pred] per iteration.
func (ev *Evaluator) applyPredicate(cur LLSeq, pred xqast.Expr, f *frame, reverse bool) (LLSeq, error) {
	total := cur.Total()
	outerOf := make([]int32, 0, total)
	ctxSeq := LLSeq{Off: make([]int32, 1, total+1)}
	pos := make([]int64, 0, total)
	last := make([]int64, 0, total)
	for i := 0; i < cur.N(); i++ {
		g := cur.Group(i)
		for k, it := range g {
			outerOf = append(outerOf, int32(i))
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
	nf := f.expand(outerOf)
	nf.ctx = newBinding(ctxSeq)
	nf.pos = pos
	nf.last = last
	verdicts, err := ev.eval(pred, nf)
	if err != nil {
		return LLSeq{}, err
	}
	b := newLLBuilder(cur.N())
	j := 0
	for i := 0; i < cur.N(); i++ {
		var items []Item
		for range cur.Group(i) {
			keep, err := predicateKeep(verdicts.Group(j), pos[j])
			if err != nil {
				return LLSeq{}, err
			}
			if keep {
				items = append(items, ctxSeq.Items[j])
			}
			j++
		}
		b.add(items...)
	}
	return b.done(), nil
}

// predicateKeep decides a predicate verdict: a numeric singleton is a
// position test, anything else goes through the effective boolean value.
func predicateKeep(verdict []Item, position int64) (bool, error) {
	if len(verdict) == 1 && isNumeric(verdict[0]) {
		num, _ := verdict[0].NumericValue()
		return num == float64(position), nil
	}
	return ebv(verdict)
}
