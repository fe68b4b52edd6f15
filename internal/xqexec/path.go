package xqexec

import (
	"soxq/internal/xqast"
	"soxq/internal/xqeval"
	"soxq/internal/xqplan"
)

// pathCursor pipelines the chunk-streamable suffix of a path expression. The
// prefix — starting context and the steps before the suffix — evaluates in
// bulk exactly as the materialising path does; the suffix streams when the
// compiled plans classify as streamable (xqplan.Streamability):
//
//   - StreamTree: an order-safe tree step streams one context node at a
//     time, so `//a/b`-style scans emit b-nodes as the cursor walks the
//     a-contexts. Order safety is decided against the actual context at run
//     time: strictly ascending context nodes with disjoint subtrees confine
//     each node's forward-axis results to disjoint ascending pre ranges, so
//     their concatenation is exactly the sorted, duplicate-free bulk result.
//
//   - StreamChunked: a StandOff select step streams per context chunk — the
//     loop-lifted join runs one chunk of context areas at a time and the
//     chunk outputs merge through the watermark-gated document-order heap
//     (see standoffCursor). Requires a single-document context at run time.
//
//   - StreamChunkedReject: a StandOff reject step — each chunk's select-side
//     join marks matched candidates in a bitset and one complement at the
//     end emits the unmatched candidates (see rejectCursor). Blocking but
//     memory-bounded; requires a single-document context at run time.
//
// Chunk-capable StandOff steps in the path *prefix* stream too: consecutive
// StreamChunked/StreamChunkedReject steps before the final step compose into
// chained stages, each draining its upstream's pre ranks (12 bytes per
// intermediate row) into its own start-sorted context — intermediate results
// never materialise as item sequences.
//
// Contexts that fail the run-time condition — nested tree contexts,
// multi-document join contexts — and the remaining step forms (reverse
// axes, predicates) fall back to the bulk step.
type pathCursor struct {
	x *executor
	p *xqast.Path
	f *xqeval.Frame

	started bool
	err     error

	// Tree streaming mode: remaining context nodes, one batch per node.
	last *xqplan.StepPlan
	ctx  []xqeval.Item

	// StandOff chunked mode: the final chunked stage — a select
	// chunk-join-merge cursor or a reject bitset cursor, possibly fed by a
	// chain of upstream chunked stages it already drained at init. Its
	// batches are forwarded as they are.
	soc soStage

	// Fallback mode: the fully evaluated result, handed over as one batch.
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
	ctxSeq, steps, err := c.x.ev.PathPrefixStream(c.p, c.f)
	if err != nil {
		c.err = err
		return
	}
	g := ctxSeq.Group(0)
	if len(steps) == 0 {
		c.items = g
		return
	}
	for _, it := range g {
		if !it.IsNode() {
			// The bulk step rejects atomic context items before joining;
			// fail identically before any streaming starts.
			c.err = c.x.ev.EvalStepTypeError()
			return
		}
	}
	// Compose the chunk-streamable prefix steps into chained pres-based
	// cursors. A step whose context defeats chunking (multiple documents)
	// runs in bulk instead, and the chain restarts after it; step outputs
	// are always nodes, so the atomic-context check never recurs.
	var up soStage
	for len(steps) > 1 {
		sp := steps[0]
		var st soStage
		if up != nil {
			st, err = newStageFromUpstream(c.x, sp, up)
		} else {
			st, err = newStage(c.x, sp, g)
		}
		if err != nil {
			c.err = err
			return
		}
		if st == nil {
			out, err := c.x.ev.EvalStepBulk(sp, ctxSeq, c.f)
			if err != nil {
				c.err = err
				return
			}
			ctxSeq = out
			g = out.Group(0)
			steps = steps[1:]
			continue
		}
		up = st
		steps = steps[1:]
	}
	last := steps[0]
	if up != nil {
		switch last.Streamability() {
		case xqplan.StreamChunked, xqplan.StreamChunkedReject:
			st, err := newStageFromUpstream(c.x, last, up)
			if err != nil {
				c.err = err
				return
			}
			c.soc = st
			return
		}
		// The final step is not chunk-capable: materialise the chain output
		// (exactly the context the bulk prefix would have built) and take
		// the per-node or bulk final-step paths below.
		g = drainStageItems(up)
		ctxSeq = xqeval.GroupSeq(g)
	}
	switch last.Streamability() {
	case xqplan.StreamTree:
		if disjointContext(g) {
			c.last = last
			c.ctx = g
			return
		}
	case xqplan.StreamChunked, xqplan.StreamChunkedReject:
		st, err := newStage(c.x, last, g)
		if err != nil {
			c.err = err
			return
		}
		if st != nil {
			c.soc = st
			return
		}
	}
	out, err := c.x.ev.EvalStepBulk(last, ctxSeq, c.f)
	if err != nil {
		c.err = err
		return
	}
	c.items = out.Group(0)
}

// newStage builds the chunked stage for one StandOff step over an item
// context, dispatching on the step's class. A nil stage (with nil error)
// means the context is not chunkable and the caller must run the bulk step.
func newStage(x *executor, sp *xqplan.StepPlan, g []xqeval.Item) (soStage, error) {
	if sp.Streamability() == xqplan.StreamChunkedReject {
		rc, err := newRejectCursor(x, sp, g)
		if rc == nil || err != nil {
			return nil, err
		}
		return rc, nil
	}
	sc, err := newStandoffCursor(x, sp, g)
	if sc == nil || err != nil {
		return nil, err
	}
	return sc, nil
}

// newStageFromUpstream drains the upstream stage into a pres context — 12
// bytes per row, never a materialised item sequence — and builds the next
// chunked stage over it. The drain is what composition costs: a chunked
// stage needs its whole context sorted by region start before its first
// join, which is exactly the materialisation point the bulk prefix would
// have had, minus the items.
func newStageFromUpstream(x *executor, sp *xqplan.StepPlan, up soStage) (soStage, error) {
	var pres []int32
	for b := up.NextBatch(); b.Len() > 0; b = up.NextBatch() {
		pres = append(pres, b.Pres...)
	}
	d := up.streamDoc()
	up.Close()
	if sp.Streamability() == xqplan.StreamChunkedReject {
		return newRejectCursorFromPres(x, sp, d, pres)
	}
	return newStandoffCursorFromPres(x, sp, d, pres)
}

// drainStageItems materialises a chain stage's remaining output as items,
// for final steps that need the full context sequence anyway.
func drainStageItems(st soStage) []xqeval.Item {
	out := appendAll(nil, st)
	st.Close()
	return out
}

// disjointContext reports whether the context nodes are strictly ascending
// in document order with pairwise-disjoint subtrees (and are all element- or
// document-kind nodes — attribute contexts take the bulk path).
func disjointContext(ctx []xqeval.Item) bool {
	for i, it := range ctx {
		if it.Kind != xqeval.KNode {
			return false
		}
		if i == 0 {
			continue
		}
		prev := ctx[i-1]
		if prev.D == it.D {
			if it.Pre <= prev.Pre+prev.D.Size(prev.Pre) {
				return false // nested, duplicate, or out of order
			}
		} else if xqeval.CompareDocOrder(prev, it) >= 0 {
			return false
		}
	}
	return true
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
		b = c.soc.NextBatch()
	case c.last == nil: // fallback: the materialised result
		b.Items, c.items = c.items, nil
	default: // tree streaming: the next context node with a match
		for b.Len() == 0 && len(c.ctx) > 0 {
			var err error
			if b.Items, err = c.x.ev.TreeStepItems(c.last, c.ctx[0]); err != nil {
				c.err = err
				return Batch{}
			}
			c.ctx = c.ctx[1:]
		}
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
// re-evaluate the path, and last is cleared so the drained fallback branch
// (empty items) answers it.
func (c *pathCursor) Close() {
	if c.started && c.err == nil {
		c.record()
	}
	c.started = true
	c.last = nil
	c.ctx, c.items = nil, nil
	if c.soc != nil {
		c.soc.Close()
		c.soc = nil
	}
}
