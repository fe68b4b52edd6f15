package xqexec

import (
	"slices"
	"sort"

	"soxq/internal/tree"
	"soxq/internal/xqeval"
	"soxq/internal/xqplan"
)

// standoffCursor pipelines a StandOff select step per context-node
// chunk. The bulk step runs one loop-lifted join over the whole context and
// materialises the whole output; this cursor instead sorts the context areas
// by region start, runs the same join one chunk of context nodes at a time,
// and feeds the chunk outputs through a streaming ordered merge — so only
// one chunk's join state plus the merge's pending heap is ever live.
//
// The merge is where the streaming is earned. Chunk outputs are each sorted
// in document order, but outputs of different chunks may interleave
// arbitrarily (region order and document order are unrelated in a permuted
// stand-off document), so the cursor cannot simply concatenate them. It
// keeps pending items in a document-order heap keyed by node identity (all
// items are nodes of one document, so the pre rank is the identity) and
// emits an item only when the candidate-interval watermark proves no
// remaining chunk can produce a smaller one: once every unprocessed context
// area starts at or after position S, a contained candidate must start at or
// after S (select-narrow) and an overlapping candidate must end at or after
// S (select-wide), and the suffix-min arrays over the candidate sequence's
// start- and end-ordered rows (internal/core) translate that interval bound
// into the smallest still-reachable pre. Everything below it is final.
// Cross-chunk duplicates — one candidate matched by context nodes of
// different chunks — are still pending together when the second copy
// arrives (the watermark that let the first copy out would have ruled the
// second one impossible), so dedup at heap pop is exact.
//
// The whole pipeline runs on pre ranks, not items: context areas, the
// pending heap, and the final output buffer are all int32 pres (a sixteenth
// of an Item), and the output buffer leaves as a Pres batch, so an Item is
// only built by a consumer that reads one. Together with the stream's
// recycled join buffers this makes the per-chunk steady state
// allocation-free.
//
// For annotation corpora whose document order roughly follows region order —
// the common case the paper's conversion produces — the watermark advances
// with the frontier and the heap stays near the chunk size. A fully permuted
// layer degrades gracefully: the heap grows toward the output size, never
// past it, and the result is still byte-identical to the bulk step.
//
// Consecutive select steps of a path compose: the path cursor drains one
// cursor's pres into the next one's context (newStageFromUpstream) — 12 bytes
// per intermediate row, never a materialised item sequence.
type standoffCursor struct {
	x  *executor
	sp *xqplan.StepPlan
	so *xqeval.StandOffStream
	d  *tree.Doc // the stream's single document; nil when the step is empty

	ctx     []soCtx // area context nodes, ascending by region start
	i       int     // next unprocessed context index
	scratch []int32 // reused per-chunk context pre buffer

	// chunk is the configured context chunk size. chunkMin/chunkMax/chunks
	// record the chunks actually joined, for the step's ANALYZE record.
	chunk    int
	chunkMin int
	chunkMax int
	chunks   int64

	heap preHeap
	out  []int32 // pres proven final, in document order; the batch buffer

	rowsIn   int64 // full context row count, for the step's ANALYZE record
	produced int64
	lastPre  int32
	emitted  bool // lastPre is valid (guards the pre==0 first emission)
	recorded bool

	done bool
}

// soCtx is one context area pre with its sort key (minimum region start).
type soCtx struct {
	start int64
	pre   int32
}

// newStandoffCursor builds the chunked cursor for a StandOff select final
// step over the evaluated context g. It returns (nil, nil) when the context
// is not chunkable — nodes of more than one document (the join partitions
// per document fragment; the bulk step handles that) — and the caller falls
// back to the bulk step. Non-area and attribute context nodes can never
// match and are dropped from the chunk stream.
func newStandoffCursor(x *executor, sp *xqplan.StepPlan, g []xqeval.Item) (*standoffCursor, error) {
	var d *tree.Doc
	for _, it := range g {
		if it.Kind != xqeval.KNode {
			continue
		}
		if d == nil {
			d = it.D
		} else if it.D != d {
			return nil, nil
		}
	}
	c := &standoffCursor{x: x, sp: sp, rowsIn: int64(len(g)), chunk: x.chunkSize()}
	if d == nil {
		// No element context at all: the step is empty, but still streams
		// (and still reports its ANALYZE row counts).
		return c, nil
	}
	so, err := x.ev.NewStandOffStream(sp, d)
	if err != nil {
		return nil, err
	}
	if so == nil {
		return c, nil // no candidate can ever match: empty stream
	}
	c.so = so
	c.d = so.Doc()
	c.ctx = make([]soCtx, 0, len(g))
	for _, it := range g {
		if s, ok := so.CtxStart(it); ok {
			c.ctx = append(c.ctx, soCtx{start: s, pre: it.Pre})
		}
	}
	sortCtxByStart(c.ctx)
	return c, nil
}

// newStandoffCursorFromPres builds the chunked select cursor over an
// upstream chain stage's drained output: pres of a single document, already
// deduplicated and in document order. Unlike the item form this never fails
// over to the bulk step — a single document is guaranteed by construction.
func newStandoffCursorFromPres(x *executor, sp *xqplan.StepPlan, d *tree.Doc, pres []int32) (*standoffCursor, error) {
	c := &standoffCursor{x: x, sp: sp, rowsIn: int64(len(pres)), chunk: x.chunkSize()}
	if d == nil || len(pres) == 0 {
		return c, nil
	}
	so, err := x.ev.NewStandOffStream(sp, d)
	if err != nil {
		return nil, err
	}
	if so == nil {
		return c, nil
	}
	c.so = so
	c.d = so.Doc()
	c.ctx = ctxFromPres(so, pres)
	return c, nil
}

// ctxFromPres builds the start-sorted context table from bare pres (the
// composed-cursor handoff). Pres without regions can never match and drop.
func ctxFromPres(so *xqeval.StandOffStream, pres []int32) []soCtx {
	ctx := make([]soCtx, 0, len(pres))
	for _, pre := range pres {
		if s, ok := so.CtxStartPre(pre); ok {
			ctx = append(ctx, soCtx{start: s, pre: pre})
		}
	}
	sortCtxByStart(ctx)
	return ctx
}

func sortCtxByStart(ctx []soCtx) {
	slices.SortFunc(ctx, func(a, b soCtx) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		default:
			return 0
		}
	})
}

// refill processes context chunks until at least one pending item is proven
// final (or the context is exhausted). A chunk's join output is itself a
// sorted run, so when nothing is pending the run's prefix below the
// watermark is emitted wholesale — an in-order corpus never pays for the
// heap at all; the heap only engages for runs that genuinely interleave
// across chunks.
func (c *standoffCursor) refill() {
	for {
		if c.i >= len(c.ctx) {
			c.flush()
			return
		}
		n := min(c.chunk, len(c.ctx)-c.i)
		c.noteChunk(n)
		if cap(c.scratch) < n {
			c.scratch = make([]int32, 0, n)
		}
		c.scratch = c.scratch[:0]
		for j := 0; j < n; j++ {
			c.scratch = append(c.scratch, c.ctx[c.i+j].pre)
		}
		c.i += n
		joined := c.so.JoinChunkPres(c.scratch)
		final := c.i >= len(c.ctx)
		var wm int32
		if !final {
			w, ok := c.so.Watermark(c.ctx[c.i].start)
			if !ok {
				// No remaining candidate can match any remaining context
				// area: the joins of the remaining chunks would all come
				// back empty, so skip them (the chunked analogue of the
				// merge join's early break) and finish.
				c.i = len(c.ctx)
				final = true
			} else {
				wm = w
			}
		}
		switch {
		case final:
			if c.heap.len() == 0 {
				c.emitRun(joined)
			} else {
				for _, pre := range joined {
					c.heap.push(pre)
				}
			}
			c.flush()
			return
		case c.heap.len() == 0:
			k := sort.Search(len(joined), func(i int) bool { return joined[i] >= wm })
			c.emitRun(joined[:k])
			for _, pre := range joined[k:] {
				c.heap.push(pre)
			}
		default:
			for _, pre := range joined {
				c.heap.push(pre)
			}
			for c.heap.len() > 0 && c.heap.top() < wm {
				c.emit(c.heap.pop())
			}
		}
		if len(c.out) > 0 {
			// Emitted pres were copied out of the stream's joined buffer
			// into c.out, so the next JoinChunkPres may reuse it while the
			// consumer still reads this batch.
			return
		}
	}
}

// noteChunk records one executed chunk's size for the ANALYZE counters.
func (c *standoffCursor) noteChunk(n int) {
	c.chunks++
	if c.chunkMin == 0 || n < c.chunkMin {
		c.chunkMin = n
	}
	if n > c.chunkMax {
		c.chunkMax = n
	}
}

// flush drains the heap (every pending item is final) and ends the stream.
func (c *standoffCursor) flush() {
	for c.heap.len() > 0 {
		c.emit(c.heap.pop())
	}
	c.done = true
}

// emitRun appends a sorted duplicate-free run of final pres to the output
// buffer. Runs never overlap previously emitted pres — a run is only emitted
// below a watermark that ruled its items out for every remaining chunk.
func (c *standoffCursor) emitRun(pres []int32) {
	if len(pres) == 0 {
		return
	}
	c.out = append(c.out, pres...)
	c.emitted, c.lastPre = true, pres[len(pres)-1]
	c.produced += int64(len(pres))
}

// emit appends a popped pre to the output buffer, dropping cross-chunk
// duplicates (the heap pops equal pres adjacently).
func (c *standoffCursor) emit(pre int32) {
	if c.emitted && pre == c.lastPre {
		return
	}
	c.emitted, c.lastPre = true, pre
	c.out = append(c.out, pre)
	c.produced++
}

// NextBatch hands out the pres the last refill proved final as one run; the
// buffer is overwritten by the next refill.
func (c *standoffCursor) NextBatch() Batch {
	c.out = c.out[:0]
	for len(c.out) == 0 && !c.done {
		c.refill()
	}
	if len(c.out) == 0 {
		c.record()
		return Batch{}
	}
	return Batch{D: c.d, Pres: c.out}
}

// record reports the step's ANALYZE row counts, once — a cursor closed
// before it is drained reports what it produced.
func (c *standoffCursor) record() {
	if c.recorded {
		return
	}
	c.recorded = true
	c.x.ev.Stats.RecordStep(c.sp, c.rowsIn, c.produced)
	c.x.ev.Stats.RecordStepStream(c.sp, c.chunks, c.chunkMin, c.chunkMax)
}

func (c *standoffCursor) Err() error { return nil }

func (c *standoffCursor) Close() {
	c.record()
	c.done = true
	c.ctx, c.out, c.heap.pres, c.scratch = nil, nil, nil, nil
	c.i = 0
}

// preHeap is a binary min-heap of pre ranks — the document-order heap of the
// streaming merge (all items share one document, so pre order is document
// order and equal pres are the same node).
type preHeap struct {
	pres []int32
}

func (h *preHeap) len() int   { return len(h.pres) }
func (h *preHeap) top() int32 { return h.pres[0] }

func (h *preHeap) push(pre int32) {
	h.pres = append(h.pres, pre)
	i := len(h.pres) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.pres[p] <= h.pres[i] {
			break
		}
		h.pres[p], h.pres[i] = h.pres[i], h.pres[p]
		i = p
	}
}

func (h *preHeap) pop() int32 {
	top := h.pres[0]
	last := len(h.pres) - 1
	h.pres[0] = h.pres[last]
	h.pres = h.pres[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.pres) && h.pres[l] < h.pres[small] {
			small = l
		}
		if r < len(h.pres) && h.pres[r] < h.pres[small] {
			small = r
		}
		if small == i {
			break
		}
		h.pres[i], h.pres[small] = h.pres[small], h.pres[i]
		i = small
	}
	return top
}
