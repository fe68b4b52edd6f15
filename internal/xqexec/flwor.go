package xqexec

import (
	"soxq/internal/xqast"
	"soxq/internal/xqeval"
	"soxq/internal/xqplan"
)

// The FLWOR cursor streams a for loop chunk by chunk: the first for clause's
// binding sequence runs as its own cursor, tuples are pulled from it in
// chunks, and the rest of the FLWOR (remaining clauses, where, return) is
// evaluated loop-lifted over each chunk — so a StandOff step in the loop
// body still runs one join per chunk of iterations, not one per iteration,
// while only a chunk of tuples and its results are ever live.
//
// Nested loops compound the bound. When the plan's pipeline shape gives the
// streamed for a flwor-nested level (xqplan.StreamOp: the clause right after
// it is a for over a StandOff-free sequence the pipeline generates on
// demand), the inner loop is not expanded loop-lifted into the chunk —
// expansion would materialise chunk×inner tuples at once, unbounded by the
// chunk size. Instead each parent tuple drives a child flworCursor over the
// inner binding: the child pulls inner tuples in chunks of its own and
// evaluates the remaining tail loop-lifted per inner chunk, recursively for
// deeper nests, so the live tuple count stays proportional to ChunkSize at
// every nesting depth.
//
// Order-correctness needs no merge: tuples expand in order and where keeps
// order, so the chunk (and child-cursor) results concatenate into exactly
// the sequence the materialising path produces.

// flworCursor is the chunked FLWOR pipeline for one for-clause level. The
// root cursor owns the whole FLWOR (and is the only one that records the
// operator's ANALYZE invocation); child cursors own the clause suffix from
// one nested for clause on, bound under a single parent tuple.
type flworCursor struct {
	x *executor
	v *xqast.FLWOR

	// clauses is the clause list this cursor level consumes: v.Clauses at
	// the root, the suffix from the nested for clause down for a child.
	clauses []xqast.Clause
	root    bool

	f     *xqeval.Frame // this level's frame, leading lets bound at init
	first *xqast.ForClause
	rest  []xqast.Clause
	bind  Reader // stream of the first for clause's binding sequence

	// bindOp is the pipeline shape of this level's binding sequence; nested
	// holds the flwor-nested levels below this one. When there is one, each
	// tuple of the chunk drives a child cursor over nested[0]'s binding
	// instead of expanding into the chunk frame.
	bindOp *xqplan.StreamOp
	nested []*xqplan.StreamOp
	child  *flworCursor
	ti     int // next chunk tuple to drive a child with
	// childFree is the shelved previous child cursor, reset in place for the
	// next parent tuple (strictly one sibling lives at a time), its chunk and
	// seed buffers with it; bindFree is this cursor's own parked binding
	// cursor across a shelve/reset cycle.
	childFree *flworCursor
	bindFree  Cursor

	// scope is the arena scope of the current expanded-mode chunk;
	// childScope spans the current child cursor's lifetime (its frame and
	// everything evaluated at its init live exactly that long).
	scope      *xqeval.SeqScope
	childScope *xqeval.SeqScope

	started bool
	done    bool
	chunk   []xqeval.Item // reused binding scratch
	seed    []xqeval.Item // reused 1-tuple buffer driving child cursors
	basePos int64
	out     []xqeval.Item // the current chunk's result, handed out as one batch
	err     error
}

// newFLWORCursor builds the root cursor of the FLWOR v, whose pipeline
// shape is op.
func newFLWORCursor(x *executor, op *xqplan.StreamOp, v *xqast.FLWOR, f *xqeval.Frame) *flworCursor {
	return &flworCursor{x: x, v: v, clauses: v.Clauses, root: true, f: f,
		bindOp: op.Children[0], nested: op.Children[1:]}
}

// newChild builds the cursor of the next nested for level: its clauses are
// the suffix starting at the nested for clause, f the single-tuple frame of
// the parent binding.
func (c *flworCursor) newChild(f *xqeval.Frame) *flworCursor {
	return &flworCursor{x: c.x, v: c.v, clauses: c.rest, f: f,
		bindOp: c.nested[0].Children[0], nested: c.nested[1:]}
}

// init evaluates the let clauses preceding this level's for clause (they see
// only the enclosing scope), splits the clause list there, and opens the
// binding stream. The one ANALYZE invocation record happens at the root —
// the per-chunk counters (recorded by FLWORTail) accumulate tuples and
// chunks on top of it.
func (c *flworCursor) init() {
	c.started = true
	if c.root {
		c.x.ev.Stats.RecordOp(c.v, 0, 0)
	}
	f := c.f
	for i, cl := range c.clauses {
		switch cl := cl.(type) {
		case *xqast.LetClause:
			seq, err := c.x.ev.EvalExpr(cl.Seq, f)
			if err != nil {
				c.err = err
				return
			}
			f = f.BindSeq(cl.Var, seq)
		case *xqast.ForClause:
			c.f = f
			c.first = cl
			c.rest = c.clauses[i+1:]
			c.bind = NewReader(c.x.buildReuse(c.bindOp, f, c.bindFree))
			c.bindFree = nil
			return
		}
	}
	// Unreachable at the root (the plan streams a FLWOR only with a for
	// clause); children always start at one.
	c.done = true
}

// nextChunk pulls up to one chunk of binding tuples. In expanded mode it
// evaluates the FLWOR tail over them at once; in nested mode it only stages
// the tuples — NextBatch drives a child cursor per tuple. A done run context
// ends the loop here, at the chunk boundary.
func (c *flworCursor) nextChunk() {
	if c.scope != nil {
		// Reclaim the previous chunk's scratch before pulling new tuples:
		// the chunk's batch was consumed (NextBatch only refills on the
		// next call), and closing first keeps scope turnover LIFO against
		// the binding cursor's own scope turnover during the pull below.
		c.out = nil
		c.x.ev.CloseScope(c.scope)
		c.scope = nil
	}
	if c.err = c.x.ctx.Err(); c.err != nil {
		return
	}
	c.chunk = c.chunk[:0]
	c.ti = 0
	c.chunk = c.bind.Fill(c.chunk, c.x.cfg.ChunkSize)
	if err := c.bind.Err(); err != nil {
		c.err = err
		return
	}
	if len(c.chunk) == 0 {
		c.done = true
		return
	}
	if len(c.nested) > 0 {
		c.basePos += int64(len(c.chunk))
		return
	}
	// Expanded mode: the remaining clauses unroll loop-lifted into the chunk
	// frame; FLWORTail records the chunk's tuple counters.
	c.scope = c.x.ev.OpenScope()
	nf := c.x.ev.BindChunk(c.f, c.first.Var, c.first.Pos, c.chunk, c.basePos)
	ret, err := c.x.ev.FLWORTail(c.v, c.rest, nf)
	if err != nil {
		c.err = err
		return
	}
	c.basePos += int64(len(c.chunk))
	c.out = ret.Items
}

// startChild binds the next staged tuple into a one-iteration frame and
// opens the child cursor of the nested for clause over it. The arena scope
// opened here spans the child's lifetime — the seed frame and everything
// evaluated at the child's init are reclaimed when the child retires — and
// the previous sibling's shelved cursor is reset in place instead of
// allocating a new one.
func (c *flworCursor) startChild() {
	t := c.chunk[c.ti]
	pos := c.basePos - int64(len(c.chunk)) + int64(c.ti)
	c.ti++
	c.childScope = c.x.ev.OpenScope()
	// The 1-tuple buffer is reused across children: BindChunk aliases it, but
	// the previous child was retired (hence drained — its last batch was
	// consumed before the call that found it empty) before this overwrite.
	if cap(c.seed) == 0 {
		c.seed = make([]xqeval.Item, 1)
	}
	c.seed = c.seed[:1]
	c.seed[0] = t
	nf := c.x.ev.BindChunk(c.f, c.first.Var, c.first.Pos, c.seed, pos)
	if ch := c.childFree; ch != nil {
		c.childFree = nil
		ch.reset(nf)
		c.child = ch
	} else {
		c.child = c.newChild(nf)
	}
}

// retireChild shelves a drained (or failed) child for reuse by the next
// parent tuple and closes the scope that carried its frame and init state.
func (c *flworCursor) retireChild() {
	ch := c.child
	c.child = nil
	ch.shelve()
	c.childFree = ch
	if c.childScope != nil {
		c.x.ev.CloseScope(c.childScope)
		c.childScope = nil
	}
}

// shelve deactivates a child cursor for in-place reuse: its own scopes
// close, the binding cursor parks for a reset rebuild, and the chunk/seed
// buffers stay attached to the struct.
func (c *flworCursor) shelve() {
	c.started, c.done = true, true
	if c.child != nil { // error paths can leave a grandchild active
		c.retireChild()
	}
	if c.scope != nil {
		c.out = nil
		c.x.ev.CloseScope(c.scope)
		c.scope = nil
	}
	if c.bind.c != nil {
		c.bind.Close()
		c.bindFree, c.bind = c.bind.c, Reader{}
	}
	c.out = nil
}

// reset re-arms a shelved child under a fresh parent-tuple frame; clause
// structure, pipeline shape, chunk and seed buffers, the parked binding
// cursor, and any deeper shelved descendants all carry over.
func (c *flworCursor) reset(f *xqeval.Frame) {
	c.f = f
	c.started, c.done = false, false
	c.err = nil
	c.first, c.rest = nil, nil
	c.ti = 0
	c.basePos = 0
	c.out = nil
}

// NextBatch forwards the current child's batches in nested mode, and hands
// out each evaluated chunk's result whole in expanded mode.
func (c *flworCursor) NextBatch() Batch {
	if !c.started {
		c.init()
	}
	for c.err == nil {
		if c.child != nil {
			if b := c.child.NextBatch(); b.Len() > 0 {
				return b
			}
			c.err = c.child.Err()
			c.retireChild()
			continue
		}
		if len(c.nested) > 0 && c.ti < len(c.chunk) {
			c.startChild()
			continue
		}
		if c.done {
			break
		}
		if c.nextChunk(); len(c.out) > 0 {
			return Batch{Items: c.out}
		}
	}
	return Batch{}
}

func (c *flworCursor) Err() error { return c.err }

func (c *flworCursor) Close() {
	// Mark the cursor started as well as done: a NextBatch after an early
	// Close must not resurrect the pipeline by running init.
	c.started, c.done = true, true
	c.out = nil
	c.chunk, c.ti, c.seed = nil, 0, nil
	if c.child != nil {
		c.child.Close()
		c.child = nil
	}
	c.childFree = nil
	// Scopes close innermost-first: the child's scopes (closed above via its
	// Close) sit on top of childScope, which sits on top of this chunk scope.
	if c.childScope != nil {
		c.x.ev.CloseScope(c.childScope)
		c.childScope = nil
	}
	if c.scope != nil {
		c.x.ev.CloseScope(c.scope)
		c.scope = nil
	}
	c.bindFree = nil // already closed when parked by shelve
	if c.bind.c != nil {
		c.bind.Close()
		c.bind = Reader{}
	}
}
