package xqexec

import (
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
type pathCursor struct {
	x   *executor
	p   *xqast.Path
	cut int // the first step of the streamed suffix
	f   *xqeval.Frame

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
	ctxSeq, err := c.x.ev.PathPrefix(c.p, c.f, c.cut)
	if err != nil {
		c.err = err
		return
	}
	g := ctxSeq.Group(0)
	var up *standoffCursor
	for _, sp := range c.x.ev.Plan.Program(c.p)[c.cut:] {
		if sp.Chunked() {
			var st *standoffCursor
			if up != nil {
				st, err = newStageFromUpstream(c.x, sp, up)
			} else if d, root, ok := treeOf(g); ok {
				st, err = newStandoffCursor(c.x, sp, d, root, len(g), func(i int) (int32, bool) {
					// Attribute nodes can never match.
					return g[i].Pre, g[i].Kind == xqeval.KNode
				})
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
	return newStandoffCursor(x, sp, d, root, len(pres), func(i int) (int32, bool) { return pres[i], true })
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
