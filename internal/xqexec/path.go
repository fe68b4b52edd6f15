package xqexec

import (
	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xqast"
	"soxq/internal/xqeval"
	"soxq/internal/xqplan"
)

// pathCursor pipelines a path expression in one of two ways. The steps before
// the plan's cut (xqplan.StreamOp.Cut: the path's trailing run of Chunked
// steps, predicate-free StandOff select steps, and its final step) evaluate
// in bulk exactly as the materialising path does. The trailing Chunked steps
// run as chained standoffCursor stages: each joins its context one chunk of
// areas at a time, puts the chunk matches in document order through the
// watermark-gated pending-pre set, and hands its pres (12 bytes per
// intermediate row, never an item sequence) to the next stage's
// start-sorted context. If the path ends in a Chunked step, the last stage's
// batches are the path's; otherwise the final step runs in bulk over the
// drained chain and its result leaves as one batch. A Chunked step whose
// context spans trees runs in bulk too, and the chain restarts after it.
// When the step before the cut is a predicate-free descendant::N
// (StreamOp.ByName) and its context is one document node, that step does
// not run: the first stage reads its context from the region index by name.
type pathCursor struct {
	x      *executor
	p      *xqast.Path
	cut    int  // the first step of the streamed suffix
	byName bool // the step before the cut may be read by name (StreamOp.ByName)
	f      *xqeval.Frame

	started bool
	err     error

	// soc is the final chunked stage, fed by the upstream stages it already
	// drained at init. Its batches are forwarded as they are.
	soc *standoffCursor

	// Bulk final step: the fully evaluated result, handed over as one batch.
	items []xqeval.Item

	// produced counts emitted items for the ANALYZE path counter,
	// recorded once when the stream ends (or at Close for a partial
	// drain). The streaming mode never sees its full result at once, so
	// the counter accumulates here instead of in the evaluator.
	produced int64
	recorded bool
}

func (c *pathCursor) init() {
	c.started = true
	prog, from := c.x.ev.Plan.Program(c.p), c.cut
	if c.byName {
		from--
	}
	ctxSeq, err := c.x.ev.PathPrefix(c.p, c.f, from)
	if err != nil {
		c.err = err
		return
	}
	g := ctxSeq.Group(0)
	var up *standoffCursor
	if c.byName {
		// The step before the cut, descendant::N, from one document node:
		// the first stage reads its context from the region index by name.
		if it, ok := docNode(g); ok {
			if up, c.err = newNamedStage(c.x, prog[from], prog[c.cut], it); c.err != nil {
				return
			}
			from = c.cut + 1
		}
	}
	for _, sp := range prog[from:] {
		if sp.Chunked() {
			var st *standoffCursor
			if up != nil {
				st, err = newStageFromUpstream(c.x, sp, up)
			} else if d, root, ok := treeOf(g); ok {
				st, err = newItemStage(c.x, sp, d, root, g)
			}
			if err != nil {
				c.err = err
				return
			}
			if st != nil {
				up = st
				continue
			}
		}
		if up != nil {
			// Materialise the chain output: exactly the context the bulk
			// prefix would have built.
			g = appendAll(nil, up)
			up.Close()
			if c.err = up.Err(); c.err != nil {
				return
			}
			up, ctxSeq = nil, xqeval.GroupSeq(g)
		}
		if ctxSeq, err = c.x.ev.EvalStepBulk(sp, ctxSeq, c.f); err != nil {
			c.err = err
			return
		}
		g = ctxSeq.Group(0)
	}
	c.soc = up
	if up == nil {
		c.items = g
	}
}

// docNode reports the document node of a loaded document when it is the
// whole context g: the one head from which descendant::N is exactly the
// document's elements named N. Several nodes, a constructed node or an
// atomic value are not.
func docNode(g []xqeval.Item) (xqeval.Item, bool) {
	if len(g) != 1 || g[0].Kind != xqeval.KNode || g[0].D.Fragment || g[0].Pre != 0 {
		return xqeval.Item{}, false
	}
	return g[0], true
}

// treeOf reports the one tree the item context of a chunked stage lies in:
// its document and fragment root, d nil when it holds no element. The join
// partitions its context per document and per fragment of a container, so a
// context spanning trees runs the step in bulk (ok is false), and so does one
// holding an atomic value, which the bulk step rejects.
func treeOf(g []xqeval.Item) (d *tree.Doc, root int32, ok bool) {
	for _, it := range g {
		switch {
		case !it.IsNode():
			return nil, 0, false
		case it.Kind != xqeval.KNode:
		case d == nil:
			d, root = it.D, it.D.FragmentRoot(it.Pre)
		case it.D != d || it.D.FragmentRoot(it.Pre) != root:
			return nil, 0, false
		}
	}
	return d, root, true
}

// newItemStage builds the first chunked stage over the item context g, all
// of the tree of d rooted at root. Attribute nodes can never match and
// drop.
func newItemStage(x *executor, sp *xqplan.StepPlan, d *tree.Doc, root int32, g []xqeval.Item) (*standoffCursor, error) {
	pres := make([]int32, 0, len(g))
	for _, it := range g {
		if it.Kind == xqeval.KNode {
			pres = append(pres, it.Pre)
		}
	}
	return newStandoffCursor(x, sp, d, root, int64(len(g)), func(so *xqeval.StandOffStream) core.Areas {
		return so.ContextAreas(pres)
	})
}

// newNamedStage builds the first chunked stage sp over the context that
// step, descendant::N, yields from the document node it: the region index's
// by-name view of N, so the tree step never runs and no context node is
// boxed or looked up. ANALYZE still sees the step's counts.
func newNamedStage(x *executor, step, sp *xqplan.StepPlan, it xqeval.Item) (*standoffCursor, error) {
	rowsIn := x.ev.AnalyzeSkippedStep(step, it)
	d := it.D
	id, ok := d.Dict().Lookup(step.Test.Name)
	if !ok || len(d.ElementsByName(id)) == 0 {
		d = nil // no context node, as over an empty item context
	}
	return newStandoffCursor(x, sp, d, 0, rowsIn, func(so *xqeval.StandOffStream) core.Areas {
		return so.NameAreas(id)
	})
}

// newStageFromUpstream drains the upstream stage into a pres context — 12
// bytes per row, never a materialised item sequence — and builds the next
// chunked stage over it. The drain is what composition costs: a chunked
// stage needs its whole context sorted by region start before its first
// join, which is exactly the materialisation point the bulk prefix would
// have had, minus the items.
func newStageFromUpstream(x *executor, sp *xqplan.StepPlan, up *standoffCursor) (*standoffCursor, error) {
	var pres []int32
	for b := up.NextBatch(); b.Len() > 0; b = up.NextBatch() {
		pres = append(pres, b.Pres...)
	}
	d, root := up.d, int32(0)
	up.Close()
	if err := up.Err(); err != nil {
		return nil, err
	}
	if len(pres) == 0 {
		d = nil
	} else {
		root = d.FragmentRoot(pres[0])
	}
	return newStandoffCursor(x, sp, d, root, int64(len(pres)), func(so *xqeval.StandOffStream) core.Areas {
		return so.ContextAreas(pres)
	})
}

func (c *pathCursor) NextBatch() Batch {
	if !c.started {
		c.init()
	}
	var b Batch
	switch {
	case c.err != nil:
		return b
	case c.soc != nil: // chunked StandOff final step
		if b = c.soc.NextBatch(); b.Len() == 0 {
			c.err = c.soc.Err()
		}
	default: // bulk final step: the materialised result
		b.Items, c.items = c.items, nil
	}
	if b.Len() == 0 {
		c.record()
	}
	c.produced += int64(b.Len())
	return b
}

// record reports the path's emitted item count to the ANALYZE collector,
// once. A cursor closed before it is drained reports what it produced.
func (c *pathCursor) record() {
	if c.recorded {
		return
	}
	c.recorded = true
	c.x.ev.Stats.RecordOp(c.p, 0, c.produced)
}

func (c *pathCursor) Err() error { return c.err }

// Close terminates the cursor: started is set so a later NextBatch cannot
// re-evaluate the path, and the drained bulk branch (no items) answers it.
func (c *pathCursor) Close() {
	if c.started && c.err == nil {
		c.record()
	}
	c.started = true
	c.items = nil
	if c.soc != nil {
		c.soc.Close()
		c.soc = nil
	}
}
