package xqexec

import (
	"cmp"
	"math"
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
// keeps each chunk's pending output as a sorted run (all items are nodes of
// one document, so the pre rank is the identity) and emits an item only
// when the candidate-interval watermark proves no remaining chunk can
// produce a smaller one: once every unprocessed context area starts at or
// after position S, a contained candidate must start at or after S
// (select-narrow) and an overlapping candidate must end at or after S
// (select-wide), and the suffix-min arrays over the candidate sequence's
// start- and end-ordered rows (internal/core) translate that interval bound
// into the smallest still-reachable pre. Everything below it is final and
// leaves by a k-way merge of the pending runs: a min-heap over the runs'
// heads, k = pending runs, so O(n log k) over contiguous memory, with one
// heap fix per switch of run rather than per row. Cross-chunk duplicates —
// one candidate matched by context nodes of different chunks — are still
// pending together when the second copy arrives (the watermark that let the
// first copy out would have ruled the second one impossible), so the merge
// yields them adjacently and dedup at emission is exact.
//
// The whole pipeline runs on pre ranks, not items: context areas, the
// pending runs, and the final output buffer are all int32 pres (a sixteenth
// of an Item), and the output buffer leaves as a Pres batch, so an Item is
// only built by a consumer that reads one. Together with the stream's
// recycled join buffers this makes the per-chunk steady state
// allocation-free.
//
// For annotation corpora whose document order roughly follows region order —
// the common case the paper's conversion produces — the watermark advances
// with the frontier and a run's output is mostly final on arrival, so little
// is ever pending. A fully permuted layer degrades gracefully: the pending
// runs grow toward the output size, never past it, and the result is still
// byte-identical to the bulk step. ANALYZE reports the peak pending rows and
// runs (stream{... pending≤P runs≤R}).
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

	runs runMerge
	out  []int32 // pres proven final, in document order; the batch buffer

	rowsIn   int64 // full context row count, for the step's ANALYZE record
	produced int64
	lastPre  int32
	emitted  bool // lastPre is valid (guards the pre==0 first emission)
	recorded bool

	done bool
	err  error // the run context's error, once it ended the stream
}

// soCtx is one context area pre with its sort key (minimum region start).
type soCtx struct {
	start int64
	pre   int32
}

// newStandoffCursor builds the chunked cursor for a StandOff select final
// step over the evaluated context g. It returns (nil, nil) when the context
// is not chunkable — nodes of more than one tree (the join partitions per
// document and per fragment of a container; the bulk step handles that) —
// and the caller falls back to the bulk step. Non-area and attribute context
// nodes can never match and are dropped from the chunk stream.
func newStandoffCursor(x *executor, sp *xqplan.StepPlan, g []xqeval.Item) (*standoffCursor, error) {
	var d *tree.Doc
	var root int32
	for _, it := range g {
		if it.Kind != xqeval.KNode {
			continue
		}
		if d == nil {
			d, root = it.D, it.D.FragmentRoot(it.Pre)
		} else if it.D != d || it.D.FragmentRoot(it.Pre) != root {
			return nil, nil
		}
	}
	c := &standoffCursor{x: x, sp: sp, rowsIn: int64(len(g)), chunk: x.cfg.ChunkSize}
	if d == nil {
		// No element context at all: the step is empty, but still streams
		// (and still reports its ANALYZE row counts).
		return c, nil
	}
	so, err := x.ev.NewStandOffStream(sp, d, root)
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
// upstream chain stage's drained output: pres of a single tree, already
// deduplicated and in document order. Unlike the item form this never fails
// over to the bulk step — a single tree is guaranteed by construction.
func newStandoffCursorFromPres(x *executor, sp *xqplan.StepPlan, d *tree.Doc, pres []int32) (*standoffCursor, error) {
	c := &standoffCursor{x: x, sp: sp, rowsIn: int64(len(pres)), chunk: x.cfg.ChunkSize}
	if d == nil || len(pres) == 0 {
		return c, nil
	}
	so, err := x.ev.NewStandOffStream(sp, d, d.FragmentRoot(pres[0]))
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
	slices.SortFunc(ctx, func(a, b soCtx) int { return cmp.Compare(a.start, b.start) })
}

// refill processes context chunks until at least one pending item is proven
// final, the context areas run out or the run's context is done. A chunk's
// join output is itself a sorted run, so when nothing is pending the run's
// prefix below the watermark is emitted wholesale — an in-order corpus never
// pays for the merge at all; it only engages for runs that genuinely
// interleave across chunks.
func (c *standoffCursor) refill() {
	for {
		if c.i >= len(c.ctx) {
			c.flush()
			return
		}
		if c.err = c.x.ctx.Err(); c.err != nil {
			c.done = true // pending runs are dropped: the stream ends here
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
		wm := int64(math.MaxInt64) // past the last chunk, every pre is final
		if c.i < len(c.ctx) {
			if w, ok := c.so.Watermark(c.ctx[c.i].start); ok {
				wm = int64(w)
			} else {
				// No remaining candidate can match any remaining context
				// area: the joins of the remaining chunks would all come
				// back empty, so skip them (the chunked analogue of the
				// merge join's early break) and finish.
				c.i = len(c.ctx)
			}
		}
		if len(c.runs.heads) == 0 {
			k := sort.Search(len(joined), func(i int) bool { return int64(joined[i]) >= wm })
			c.emitRun(joined[:k])
			c.runs.push(joined[k:])
		} else {
			c.runs.push(joined)
			c.emitBelow(wm)
		}
		if c.i >= len(c.ctx) {
			c.flush()
			return
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
	c.chunkMax = max(c.chunkMax, n)
}

// flush emits every pending item (all are final) and ends the stream.
func (c *standoffCursor) flush() {
	c.emitBelow(math.MaxInt64)
	c.done = true
}

// emitBelow emits the pending pres below wm in document order: the k-way
// merge of the pending runs. The run at the heap's top emits while its rows
// stay at or below every other run's head, then the heap is fixed once.
func (c *standoffCursor) emitBelow(wm int64) {
	m := &c.runs
	for len(m.heads) > 0 && int64(m.buf[m.heads[0].lo]) < wm {
		top := &m.heads[0]
		next := int32(math.MaxInt32)
		if len(m.heads) > 1 {
			next = m.head(1)
		}
		if len(m.heads) > 2 {
			next = min(next, m.head(2))
		}
		lo := top.lo
		for ; lo < top.hi && int64(m.buf[lo]) < wm && m.buf[lo] <= next; lo++ {
			c.emit(m.buf[lo])
		}
		m.live -= lo - top.lo
		top.lo = lo
		if lo == top.hi {
			last := len(m.heads) - 1
			m.heads[0] = m.heads[last]
			m.heads = m.heads[:last]
		}
		m.down()
	}
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

// emit appends a merged pre to the output buffer, dropping cross-chunk
// duplicates (the merge yields equal pres adjacently).
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
	c.x.ev.Stats.RecordStepStream(c.sp, c.chunks, c.chunkMin, c.chunkMax, c.runs.maxRows, c.runs.maxRuns)
}

func (c *standoffCursor) Err() error { return c.err }

func (c *standoffCursor) Close() {
	c.record()
	c.done = true
	c.ctx, c.out, c.scratch = nil, nil, nil
	c.runs.buf, c.runs.heads, c.runs.order = nil, nil, nil
	c.i = 0
}

// runMerge holds the pending sorted runs of the streaming merge: their rows
// back to back in buf, and a min-heap of the live runs' spans keyed by their
// head pre. All pres share one document, so pre order is document order and
// equal pres are the same node.
type runMerge struct {
	buf   []int32
	heads []runSpan
	live  int   // pending rows: the heads' span lengths summed
	order []int // compact's scratch

	maxRows, maxRuns int // peak pending rows and runs, for ANALYZE
}

// runSpan is one pending run, buf[lo:hi], non-empty.
type runSpan struct{ lo, hi int }

// push adds a sorted run (copied: the join's buffer is recycled). buf is
// reset when nothing is pending and compacted when its consumed rows
// outnumber the pending ones, so it stays within twice the pending rows.
func (m *runMerge) push(run []int32) {
	if len(run) == 0 {
		return
	}
	if len(m.heads) == 0 {
		m.buf = m.buf[:0]
	} else if len(m.buf)-m.live > m.live {
		m.compact()
	}
	m.heads = append(m.heads, runSpan{len(m.buf), len(m.buf) + len(run)})
	m.buf = append(m.buf, run...)
	m.live += len(run)
	m.maxRows, m.maxRuns = max(m.maxRows, m.live), max(m.maxRuns, len(m.heads))
	for i := len(m.heads) - 1; i > 0; {
		p := (i - 1) / 2
		if m.head(p) <= m.head(i) {
			break
		}
		m.heads[p], m.heads[i] = m.heads[i], m.heads[p]
		i = p
	}
}

func (m *runMerge) head(i int) int32 { return m.buf[m.heads[i].lo] }

// down restores the heap order after the top run's head advanced.
func (m *runMerge) down() {
	for i := 0; ; {
		l, r, small := 2*i+1, 2*i+2, i
		if l < len(m.heads) && m.head(l) < m.head(small) {
			small = l
		}
		if r < len(m.heads) && m.head(r) < m.head(small) {
			small = r
		}
		if small == i {
			return
		}
		m.heads[i], m.heads[small] = m.heads[small], m.heads[i]
		i = small
	}
}

// compact moves the pending rows to the front of buf, run by run in buf
// order; moving a span changes no head, so the heap order holds.
func (m *runMerge) compact() {
	m.order = m.order[:0]
	for i := range m.heads {
		m.order = append(m.order, i)
	}
	slices.SortFunc(m.order, func(a, b int) int { return m.heads[a].lo - m.heads[b].lo })
	n := 0
	for _, i := range m.order {
		s := &m.heads[i]
		k := copy(m.buf[n:], m.buf[s.lo:s.hi])
		s.lo, s.hi, n = n, n+k, n+k
	}
	m.buf = m.buf[:n]
}
