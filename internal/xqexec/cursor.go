// Package xqexec is the streaming execution subsystem: it turns a compiled
// plan into a pull-based pipeline of bounded-memory cursors instead of one
// fully materialised result sequence. The pipeline drives the same
// loop-lifted evaluator that the materialising path uses — a FLWOR's loop
// body is still evaluated for a whole chunk of tuples at once, so StandOff
// joins inside the loop keep their loop-lifted amortisation — but only one
// chunk of tuples and one chunk of results is live at a time. The bound
// compounds through nesting: an inner for clause over a streamable
// StandOff-free binding drives a child cursor per parent tuple (see
// flwor.go). A path runs its steps in bulk, except that its trailing
// predicate-free StandOff select steps stream per context chunk through a
// watermark-gated pending-pre set, chained pres to pres (see path.go and
// standoff.go). Expression forms that cannot stream (order by, aggregates,
// ...) fall back to a cursor wrapping the materialising evaluator, so every
// query works under either execution style and both return identical
// sequences.
//
// Cursors hand their output over a batch at a time (see Batch): a node-only
// run leaves a StandOff step as the step's own (doc, []pre) buffer, so the
// bulk representation survives up to the consumer, which boxes an item only
// when it reads one (Reader).
//
// A pipeline runs entirely on the goroutine that drains it and starts none
// of its own: the speed comes from loop-lifting, one join per chunk of
// iterations, and concurrency from running many queries at once. Its context
// is read once per batch handed out, FLWOR chunk and StandOff join chunk,
// never per row; once it is done the stream ends with ctx.Err().
//
// The pipeline's shape is not decided here: xqplan.Compile decides it once
// per plan (Plan.Stream) — which operators pipeline and which materialise,
// and why — and Build walks that tree, the same one EXPLAIN's stream:
// section renders. When the driving evaluator carries an xqplan.ExecStats
// collector (Prepared.Analyze), the cursors record the streaming-path
// counters the materialising evaluator cannot see: chunks and tuples per
// FLWOR, and the rows and chunks of a chunked StandOff step.
package xqexec

import (
	"cmp"
	"context"

	"soxq/internal/tree"
	"soxq/internal/xqast"
	"soxq/internal/xqeval"
	"soxq/internal/xqplan"
)

// Cursor is a pull-based result stream, drained a batch at a time: call
// NextBatch until it returns an empty batch, then check Err; Close releases
// pipeline resources (arenas, chunk buffers) and is idempotent. A Cursor is
// single-consumer — it must not be shared between goroutines — but any
// number of cursors over the same plan may run concurrently. Row-at-a-time
// consumers wrap it in a Reader.
type Cursor interface {
	// NextBatch returns the next run of the stream: whatever the cursor's
	// last refill proved final, never held back to fill a larger batch. The
	// batch aliases the cursor's buffers and is valid until the next
	// NextBatch or Close on the same cursor. An empty batch ends the stream
	// (or reports an error: check Err).
	NextBatch() Batch
	// Err returns the first error the pipeline hit, or nil.
	Err() error
	// Close tears the pipeline down. Safe to call more than once, and
	// safe to call before the stream is drained.
	Close()
}

// Batch is one run of a cursor's output: either node rows of one document,
// D with their pre ranks in Pres (D is non-nil exactly then), or Items.
type Batch struct {
	D     *tree.Doc
	Pres  []int32
	Items []xqeval.Item
}

// Len returns the number of rows in the batch.
func (b Batch) Len() int { return len(b.Pres) + len(b.Items) }

// Item returns row i as an item.
func (b Batch) Item(i int) xqeval.Item {
	if b.D != nil {
		return xqeval.NodeItem(b.D, b.Pres[i])
	}
	return b.Items[i]
}

// appendRows appends rows [i, j) to dst as items.
func (b Batch) appendRows(dst []xqeval.Item, i, j int) []xqeval.Item {
	if b.D == nil {
		return append(dst, b.Items[i:j]...)
	}
	for _, pre := range b.Pres[i:j] {
		dst = append(dst, xqeval.NodeItem(b.D, pre))
	}
	return dst
}

// Reader reads a cursor row by row, or up to a limit of rows at a time,
// across its batches. It holds the current batch, so the batch-lifetime rule
// carries over: an Item is a copy and outlives the batch, the batch itself
// is only read up to the next refill.
type Reader struct {
	c Cursor
	b Batch
	n int // b.Len(), kept so Next stays inlinable
	i int // rows of b consumed; the current row is i-1
}

// NewReader returns a reader positioned before the first row of c.
func NewReader(c Cursor) Reader { return Reader{c: c} }

// Next advances to the next row, returning false at the end of the stream
// or on error (check Err).
func (r *Reader) Next() bool {
	if r.i >= r.n && !r.refill() {
		return false
	}
	r.i++
	return true
}

// refill replaces the consumed batch with the cursor's next one, reporting
// whether it holds any rows.
func (r *Reader) refill() bool {
	r.b = r.c.NextBatch()
	r.n, r.i = r.b.Len(), 0
	return r.n > 0
}

// Item returns the current row; valid after a true Next.
func (r *Reader) Item() xqeval.Item { return r.b.Item(r.i - 1) }

// Peek returns up to n rows after the current one, all of one batch, without
// passing them (Skip does); an empty batch ends the stream (check Err).
func (r *Reader) Peek(n int) Batch {
	if r.i >= r.n && !r.refill() {
		return Batch{}
	}
	j := r.i + min(n, r.n-r.i)
	if r.b.D != nil {
		return Batch{D: r.b.D, Pres: r.b.Pres[r.i:j]}
	}
	return Batch{Items: r.b.Items[r.i:j]}
}

// Skip passes k rows that Peek returned, the last becoming the current row.
func (r *Reader) Skip(k int) { r.i += k }

// Fill appends the next rows to dst until it holds limit items or the
// stream ends, and returns it.
func (r *Reader) Fill(dst []xqeval.Item, limit int) []xqeval.Item {
	for len(dst) < limit && (r.i < r.n || r.refill()) {
		k := min(limit-len(dst), r.n-r.i)
		dst = r.b.appendRows(dst, r.i, r.i+k)
		r.i += k
	}
	return dst
}

// Err returns the underlying cursor's error.
func (r *Reader) Err() error { return r.c.Err() }

// Close drops the current batch and closes the underlying cursor.
func (r *Reader) Close() {
	r.b, r.n, r.i = Batch{}, 0, 0
	r.c.Close()
}

// appendAll drains c's remaining batches onto dst.
func appendAll(dst []xqeval.Item, c Cursor) []xqeval.Item {
	for b := c.NextBatch(); b.Len() > 0; b = c.NextBatch() {
		dst = b.appendRows(dst, 0, b.Len())
	}
	return dst
}

// Config tunes the pipeline.
type Config struct {
	// ChunkSize is the number of loop tuples evaluated per pipeline chunk,
	// and of context areas a chunked StandOff step joins per chunk; it is
	// fixed for the run. Larger chunks amortise the loop-lifted joins
	// better; smaller chunks bound memory tighter. <= 0 means
	// DefaultChunkSize.
	ChunkSize int
}

// DefaultChunkSize is the chunk size of a run that does not set one.
const DefaultChunkSize = 1024

// Build compiles the plan body into a cursor pipeline: globals are evaluated
// eagerly (so their errors surface here), then the plan's pipeline shape
// (xqplan.Plan.Stream) is built into cursors, a materialising cursor for
// every operator the shape does not stream.
func Build(ctx context.Context, ev *xqeval.Evaluator, cfg Config) (Cursor, error) {
	// The pipeline owns the evaluator's pooled arenas for its whole run
	// (globals, every chunk); the wrapping cursor hands them back on Close.
	ev.Attach()
	root, err := ev.NewRootFrame()
	if err != nil {
		ev.Detach()
		return nil, err
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	x := &executor{ctx: ctx, ev: ev, cfg: cfg}
	return &pipelineCursor{Cursor: x.build(ev.Plan.Stream(), root), x: x}, nil
}

// pipelineCursor wraps a pipeline's root cursor to scope the evaluator's
// arenas to the run: Close (soxq.Cursor.Close forwards it) releases them and
// every buffer on loan from them back to the pool. It reads the run's
// context before each batch.
type pipelineCursor struct {
	Cursor
	x   *executor
	err error // the context's error, once it ended the stream
}

func (c *pipelineCursor) NextBatch() Batch {
	if c.err = c.x.ctx.Err(); c.err != nil {
		return Batch{}
	}
	return c.Cursor.NextBatch()
}

func (c *pipelineCursor) Err() error { return cmp.Or(c.err, c.Cursor.Err()) }

func (c *pipelineCursor) Close() {
	c.Cursor.Close()
	c.x.ev.Detach()
}

// executor carries the build context shared by all cursors of one pipeline.
type executor struct {
	ctx context.Context
	ev  *xqeval.Evaluator
	cfg Config
}

// build constructs the cursor of one operator of the pipeline shape under a
// root-shaped frame (one iteration). It never evaluates anything: evaluation
// happens lazily on the first NextBatch, except for globals which Build
// resolved already.
func (x *executor) build(op *xqplan.StreamOp, f *xqeval.Frame) Cursor {
	switch v := op.Expr().(type) {
	case *xqast.FLWOR:
		if op.Pipelined {
			return newFLWORCursor(x, op, v, f)
		}
	case *xqast.Path:
		return &pathCursor{x: x, p: v, cut: op.Cut(), byName: op.ByName(), f: f}
	case *xqast.Binary:
		switch v.Op {
		case ",":
			return &concatCursor{n: len(op.Children), part: func(i int) (Cursor, error) {
				return x.build(op.Children[i], f), nil
			}}
		case "to":
			return newRangeCursor(x, v, f)
		}
	}
	return &materialCursor{ev: x.ev, e: op.Expr(), f: f}
}

// buildReuse rebuilds a reset level's binding cursor, reusing the shelved
// sibling's cursor in place when it was built for the same range (the
// common shape: every parent tuple re-binds the same inner `1 to N` range).
func (x *executor) buildReuse(op *xqplan.StreamOp, f *xqeval.Frame, old Cursor) Cursor {
	if rc, ok := old.(*rangeCursor); ok && rc.v == op.Expr() {
		rc.reset(f)
		return rc
	}
	return x.build(op, f)
}

// materialCursor is the fallback operator: it evaluates the whole expression
// with the materialising evaluator on the first NextBatch and hands the
// result over as one batch. It is also what keeps the two execution styles
// semantically identical — any form the pipeline does not understand runs
// exactly as the materialising evaluator runs it.
type materialCursor struct {
	ev      *xqeval.Evaluator
	e       xqast.Expr
	f       *xqeval.Frame
	started bool
	items   []xqeval.Item
	err     error
}

func (c *materialCursor) run() {
	c.started = true
	seq, err := c.ev.EvalExpr(c.e, c.f)
	if err != nil {
		c.err = err
		return
	}
	c.items = seq.Group(0)
}

func (c *materialCursor) NextBatch() Batch {
	if !c.started {
		c.run()
	}
	items := c.items
	c.items = nil
	return Batch{Items: items}
}

func (c *materialCursor) Err() error { return c.err }
func (c *materialCursor) Close()     { c.started, c.items = true, nil }

// concatCursor streams the concatenation of n parts, building part i only
// when part i-1 is exhausted: a `,` sequence holds one operand's pipeline at
// a time, and a corpus query one shard's. A part that fails to build ends
// the stream with its error at its own position, after every earlier row.
type concatCursor struct {
	n    int
	part func(i int) (Cursor, error)
	i    int
	cur  Cursor
	err  error
}

func (c *concatCursor) NextBatch() Batch {
	for c.err == nil {
		if c.cur == nil {
			if c.i >= c.n {
				break
			}
			c.cur, c.err = c.part(c.i)
			c.i++
			if c.err != nil {
				break
			}
		}
		if b := c.cur.NextBatch(); b.Len() > 0 {
			return b
		}
		c.err = c.cur.Err()
		c.cur.Close()
		c.cur = nil
	}
	return Batch{}
}

func (c *concatCursor) Err() error { return c.err }
func (c *concatCursor) Close() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
	c.i = c.n
}

// rangeBatch bounds a range cursor's reused batch buffer: enough rows to
// amortise the call, few enough that a nested loop's per-level buffer stays
// a few KiB.
const rangeBatch = 64

// rangeCursor streams `lo to hi` without materialising the range — the
// canonical unbounded generator (a for-clause over a range binds tuples
// straight out of this cursor, so a million-iteration loop never holds a
// million binding items). Bounds are evaluated once on the first NextBatch;
// the materialising evaluator's range-size limit applies identically.
type rangeCursor struct {
	x       *executor
	v       *xqast.Binary
	f       *xqeval.Frame
	started bool
	done    bool
	next    int64
	hi      int64
	buf     []xqeval.Item // reused batch buffer
	// lit caches the outcome of bounds recognised as integer literals at
	// build time, so a reset-reused cursor (`for $x in 1 to N` under a
	// nested loop) re-arms without re-evaluating — and thus without
	// allocating — anything.
	lit          bool
	litLo, litHi int64
	litOK        bool
	litErr       error
	err          error
}

// newRangeCursor builds a range cursor, pre-resolving literal bounds.
func newRangeCursor(x *executor, v *xqast.Binary, f *xqeval.Frame) *rangeCursor {
	c := &rangeCursor{x: x, v: v, f: f}
	if l, ok := v.L.(*xqast.IntLit); ok {
		if r, ok2 := v.R.(*xqast.IntLit); ok2 {
			c.lit = true
			c.litLo, c.litHi, c.litOK, c.litErr = xqeval.RangeBounds(
				[]xqeval.Item{xqeval.Int(l.V)}, []xqeval.Item{xqeval.Int(r.V)})
		}
	}
	return c
}

// reset re-arms the cursor under a fresh frame for reuse by buildReuse.
func (c *rangeCursor) reset(f *xqeval.Frame) {
	c.f = f
	c.started, c.done = false, false
	c.err = nil
}

func (c *rangeCursor) init() {
	c.started = true
	lo, hi, ok, err := c.litLo, c.litHi, c.litOK, c.litErr
	if !c.lit {
		var l, r xqeval.LLSeq
		if l, err = c.x.ev.EvalExpr(c.v.L, c.f); err == nil {
			if r, err = c.x.ev.EvalExpr(c.v.R, c.f); err == nil {
				lo, hi, ok, err = xqeval.RangeBounds(l.Group(0), r.Group(0))
			}
		}
	}
	c.err, c.done = err, !ok
	c.next, c.hi = lo, hi
}

func (c *rangeCursor) NextBatch() Batch {
	if !c.started {
		c.init()
	}
	if c.err != nil || c.done {
		return Batch{}
	}
	n := int(min(c.hi-c.next, rangeBatch-1)) + 1
	if cap(c.buf) < n {
		c.buf = make([]xqeval.Item, n)
	}
	c.buf = c.buf[:n]
	for i := range c.buf {
		c.buf[i] = xqeval.Int(c.next + int64(i))
	}
	// Advance without stepping past hi, which may be the largest int64.
	if last := c.next + int64(n-1); last == c.hi {
		c.done = true
	} else {
		c.next = last + 1
	}
	return Batch{Items: c.buf}
}

func (c *rangeCursor) Err() error { return c.err }
func (c *rangeCursor) Close()     { c.done = true }
