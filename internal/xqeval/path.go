package xqeval

import (
	"bytes"
	"slices"
	"time"

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
	cur, err := ev.pathStart(p, f)
	if err != nil {
		return LLSeq{}, err
	}
	for _, sp := range ev.Plan.Program(p) {
		cur, err = ev.evalStep(sp, cur, f)
		if err != nil {
			return LLSeq{}, err
		}
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
				items = append(items, NodeItem(it.D, 0))
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
	for _, it := range ctx.Items {
		if !it.IsNode() {
			return LLSeq{}, errf(codeType, "axis step applied to an atomic value")
		}
	}
	perIteration := sp.Axis == xpath.AxisRejectNarrow || sp.Axis == xpath.AxisRejectWide
	var rows LLSeq
	var err error
	if sp.StandOff {
		rows, err = ev.standOffRows(sp, ctx, perIteration)
	} else {
		rows = ev.treeRows(sp, ctx)
	}
	if err != nil {
		return LLSeq{}, err
	}
	for i, pred := range sp.Predicates {
		if rows, err = ev.filterRows(rows, sp.Preds[i], pred, ctx, perIteration, f, sp.Axis.Reverse()); err != nil {
			return LLSeq{}, err
		}
	}
	// A row is in document order and duplicate-free (the axes and the join
	// return it so), which makes the rows the answer when each iteration has
	// exactly one — the $b/axis::x shape. The exception is a reject row with
	// candidates of several documents, which come in the order the context
	// first touches the documents.
	out := rows
	if perIteration {
		for r := 0; r < rows.N(); r++ {
			sortDedupNodes(rows.Group(r)) // sorts in place; nothing to dedup across documents
		}
	} else if !oneItemPerGroup(ctx) {
		out = ev.mergeRows(rows, ctx)
	}
	ev.Stats.RecordStep(sp, int64(ctx.Total()), int64(out.Total()))
	return out, nil
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

// strategyFor resolves the join strategy of one StandOff step against one
// region index and the context cardinality this execution observed
// (iterations × context nodes — the second input of cost model v2): a
// forced engine strategy (the benchmarking modes) always wins; StrategyAuto
// defers to the step's memoized cost-model choice.
func (ev *Evaluator) strategyFor(sp *xqplan.StepPlan, ix *core.RegionIndex, ctxRows int) core.Strategy {
	if ev.Strategy != core.StrategyAuto {
		return ev.Strategy
	}
	return sp.StrategyFor(ix, ev.Pushdown, ctxRows, ev.Cal)
}

// statsNow and statsSince time a join only when an ANALYZE collector is
// attached — the plain execution paths pay a nil check, not a clock read.
func statsNow(st *xqplan.ExecStats) time.Time {
	if st == nil {
		return time.Time{}
	}
	return time.Now()
}

func statsSince(st *xqplan.ExecStats, t0 time.Time) int64 {
	if st == nil {
		return 0
	}
	return time.Since(t0).Nanoseconds()
}

// countJoin feeds the always-on per-algorithm join counter. Called at every
// core.Join call site (bulk and chunked, select and reject side), so the
// counters reflect join invocations actually run — one atomic add each.
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
// written straight into the row buffer.
func (ev *Evaluator) treeRows(sp *xqplan.StepPlan, ctx LLSeq) LLSeq {
	ob := ev.scrBuilderCap(ctx.Total(), ctx.Total())
	for _, it := range ctx.Items {
		ob.seq.Items = ev.appendTreeStep(ob.seq.Items, sp, it)
		ob.endGroup()
	}
	return ob.seq
}

// appendTreeStep appends the matches of a standard axis step from one context
// node, in document order, using the step's per-document pre-compiled node
// test. The pre scratch lives on the evaluator (nothing here re-enters eval,
// so the buffer cannot be in use twice).
func (ev *Evaluator) appendTreeStep(dst []Item, sp *xqplan.StepPlan, it Item) []Item {
	switch {
	case it.Kind == KAttr:
		return appendAttrSourceStep(dst, sp, it)
	case sp.Axis == xpath.AxisAttribute:
		return appendAttrAxis(dst, it, sp.Test)
	}
	ev.stepPres = xpath.AppendCompiledStep(ev.stepPres[:0], it.D, sp.Axis, sp.CompiledTest(it.D), it.Pre)
	dst = slices.Grow(dst, len(ev.stepPres))
	for _, p := range ev.stepPres {
		dst = append(dst, NodeItem(it.D, p))
	}
	return dst
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
// document: its area candidates' context nodes, Iter being the context row.
type docContext struct {
	d     *tree.Doc
	nodes []core.CtxNode
}

// partitionByDoc splits the context per document fragment (section 4.4), in
// the order the context first touches the documents. Attribute context items
// are dropped: attributes are never area-annotations.
func partitionByDoc(ctx LLSeq, perIteration bool) []docContext {
	var parts []docContext
	cur := -1 // index of the part the previous node went to
	for i := 0; i < ctx.N(); i++ {
		for r := ctx.Off[i]; r < ctx.Off[i+1]; r++ {
			it := ctx.Items[r]
			if it.Kind != KNode {
				continue
			}
			if cur < 0 || parts[cur].d != it.D {
				cur = slices.IndexFunc(parts, func(p docContext) bool { return p.d == it.D })
				if cur < 0 {
					cur = len(parts)
					parts = append(parts, docContext{d: it.D, nodes: make([]core.CtxNode, 0, ctx.Total()-int(r))})
				}
			}
			row := r
			if perIteration {
				row = int32(i)
			}
			parts[cur].nodes = append(parts[cur].nodes, core.CtxNode{Iter: row, Pre: it.Pre})
		}
	}
	return parts
}

// standOffRows evaluates one of the four StandOff axes: run the step's join
// strategy against the region index of each document of the context and lay
// the (row, pre) pairs — which the join returns sorted and duplicate-free —
// out as rows. A reject row is an iteration and only holds candidates of the
// documents the iteration touches, mirroring that XPath steps only return
// nodes from the documents of their context nodes; an iteration with no area
// among its context nodes of a document it touches rejects all of that
// document's candidates.
func (ev *Evaluator) standOffRows(sp *xqplan.StepPlan, ctx LLSeq, perIteration bool) (LLSeq, error) {
	if ev.IndexFor == nil {
		return LLSeq{}, errf(codeStandOffIndex, "no region index provider configured")
	}
	// The row count is also the iteration count the join runs over — the
	// cost model's ctxRows: the Basic variant re-scans the candidate sequence
	// once per iteration, empty iterations included.
	nRows := ctx.Total()
	if perIteration {
		nRows = ctx.N()
	}
	parts := partitionByDoc(ctx, perIteration)
	var ob *llBuilder
	for _, part := range parts {
		d := part.d
		ix, err := ev.IndexFor(d)
		if err != nil {
			return LLSeq{}, errf(codeStandOffIndex, "building region index for %q: %v", d.Name, err)
		}
		cand, postFilter := ev.candidatesFor(ix, sp.SO)
		if cand == nil {
			continue // the test can never match an area-annotation
		}
		strat := ev.strategyFor(sp, ix, nRows)
		t0 := statsNow(ev.Stats)
		pairs := core.Join(ix, sp.SO.Op, strat, part.nodes, int32(nRows), cand, ev.JoinCfg)
		ev.countJoin(strat)
		ev.Stats.RecordJoin(sp, int64(cand.Len()), strat, int64(nRows), statsSince(ev.Stats, t0))
		var test xpath.Compiled
		if postFilter {
			test = sp.CompiledTest(d)
		}
		pb := ev.scrBuilderCap(nRows, len(pairs))
		touched := part.nodes // reject: the rows at or after the current pair's that touch d
		for _, pr := range pairs {
			if perIteration {
				for len(touched) > 0 && touched[0].Iter < pr.Iter {
					touched = touched[1:]
				}
				if len(touched) == 0 || touched[0].Iter != pr.Iter {
					continue // iteration has no context node in this document
				}
			}
			if postFilter && !test.Matches(d, pr.Pre) {
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
// document).
func (ev *Evaluator) candidatesFor(ix *core.RegionIndex, so xqplan.SOStep) (*core.Candidates, bool) {
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
		return ix.FilterByName(id), false
	default: // CandImpossible: text()/comment()/... never match elements
		return nil, false
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
		var d *tree.Doc
		var nameID int32
		var known bool
		keep = func(j, _, _ int) (bool, error) {
			it := items[j]
			if it.Kind != KNode { // an attribute has no attributes
				return false, nil
			}
			if it.D != d {
				d = it.D
				nameID, known = d.Dict().Lookup(pp.Attr)
			}
			if !known {
				return false, nil
			}
			a := d.Attr(it.Pre, nameID)
			return a >= 0 && attrMatches(d.AttrValueBytes(a), pp), nil
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
	x, ok := parseNumericBytes(val)
	if !ok {
		// parseNumericBytes trims XML whitespace only, an untypedAtomic what
		// strings.TrimSpace trims: more only when other than printable ASCII.
		if bytes.IndexFunc(val, func(r rune) bool { return r >= 0x80 || r == '\v' || r == '\f' }) < 0 {
			return false
		}
		if x, ok = Untyped(string(val)).NumericValue(); !ok {
			return false
		}
	}
	return numCompare(pp.Op, x, pp.Num)
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
