package xqexec

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xqeval"
	"soxq/internal/xqplan"
)

// standoffCursor pipelines a StandOff select step per context-node
// chunk. The bulk step runs one loop-lifted join over the whole context and
// materialises the whole output; this cursor instead sorts the context areas
// by region start, runs the join's match step one chunk of context nodes at
// a time, and puts the chunk matches in document order through a set of
// pending pres — so only one chunk's join state plus the pending set is ever
// live.
//
// The pending set is where the streaming is earned. A chunk's matches come
// in region order, not document order, and matches of different chunks may
// interleave arbitrarily (the two orders are unrelated in a permuted
// stand-off document, or in one that grows by annotation, where marks are
// appended wherever their regions fall), so the cursor cannot simply
// concatenate them. It holds every match not yet final as one bit per pre
// (all items are nodes of one document, so the pre rank is the identity),
// and emits a pre only when the candidate-interval watermark proves no
// remaining chunk can produce a smaller one: once every unprocessed context
// area starts at or after position S, a contained candidate must start at or
// after S (select-narrow) and an overlapping candidate must end at or after
// S (select-wide), and the suffix-min arrays over the candidate sequence's
// start- and end-ordered rows (internal/core) translate that interval bound
// into the smallest still-reachable pre. Every pending bit below it leaves
// in ascending order, a word at a time. A candidate matched by context
// nodes of different chunks sets the same bit twice — the watermark that
// would have let the first copy out rules the second one impossible — so
// the set is also the cross-chunk dedup.
//
// For annotation corpora whose document order roughly follows region order —
// the common case the paper's conversion produces — a chunk's matches arrive
// ascending and mostly final: while nothing is pending, their prefix below
// the watermark goes straight to the output and only the rest is set. A
// fully permuted layer degrades gracefully: the pending set grows toward the
// output's pre span, never past it, and the result is still byte-identical
// to the bulk step. ANALYZE reports the peak pending pres
// (stream{... pending≤P}).
//
// The whole pipeline runs on pre ranks, not items: context areas, the
// pending set, and the final output buffer are all int32 pres or bits, and
// the output buffer leaves as a Pres batch, so an Item is only built by a
// consumer that reads one. Together with the stream's recycled join buffers
// and pooled set words this makes the per-chunk steady state
// allocation-free.
//
// Consecutive select steps of a path compose: the path cursor drains one
// cursor's pres into the next one's context (newStageFromUpstream) — 12 bytes
// per intermediate row, never a materialised item sequence.
type standoffCursor struct {
	x  *executor
	sp *xqplan.StepPlan
	so *xqeval.StandOffStream
	d  *tree.Doc // the stream's single document; nil when the step is empty

	ctx core.Areas // the context areas, ascending by region start
	i   int        // next unprocessed context index

	// chunk is the configured context chunk size. chunkMin/chunkMax/chunks
	// record the chunks actually joined, for the step's ANALYZE record.
	chunk    int
	chunkMin int
	chunkMax int
	chunks   int64

	pend pendingSet
	out  []int32 // pres proven final, in document order; the batch buffer

	rowsIn   int64 // full context row count, for the step's ANALYZE record
	produced int64
	recorded bool

	done bool
	err  error // the run context's error, once it ended the stream
}

// newStandoffCursor builds the chunked cursor of a StandOff select step over
// a context of rowsIn rows, all of the tree of d rooted at root; d is nil
// when no row is an element that may match. ctx returns the context's areas
// for the step's stream — the start-sorted table its chunks are cut from.
// rowsIn is the step's ANALYZE in= count.
func newStandoffCursor(x *executor, sp *xqplan.StepPlan, d *tree.Doc, root int32, rowsIn int64, ctx func(*xqeval.StandOffStream) core.Areas) (*standoffCursor, error) {
	c := &standoffCursor{x: x, sp: sp, rowsIn: rowsIn, chunk: x.cfg.ChunkSize}
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
	c.so, c.d, c.pend.lo = so, so.Doc(), so.MinPre()
	c.ctx = ctx(so)
	return c, nil
}

// refill processes context chunks until at least one pending pre is proven
// final, the context areas run out or the run's context is done. While
// nothing is pending, a chunk whose matches ascend passes its prefix below
// the watermark straight through — an in-order corpus never sets a bit for
// it; only matches that genuinely interleave across chunks wait in the set.
func (c *standoffCursor) refill() {
	for {
		if c.i >= c.ctx.Len() {
			c.flush()
			return
		}
		if c.err = c.x.ctx.Err(); c.err != nil {
			c.done = true // pending pres are dropped: the stream ends here
			return
		}
		n := min(c.chunk, c.ctx.Len()-c.i)
		c.noteChunk(n)
		joined := c.so.JoinChunk(c.ctx.Slice(c.i, c.i+n))
		c.i += n
		wm := int64(math.MaxInt64) // past the last chunk, every pre is final
		if c.i < c.ctx.Len() {
			if w, ok := c.so.Watermark(c.ctx.Start[c.i]); ok {
				wm = int64(w)
			} else {
				// No remaining candidate can match any remaining context
				// area: the joins of the remaining chunks would all come
				// back empty, so skip them (the chunked analogue of the
				// merge join's early break) and finish.
				c.i = c.ctx.Len()
			}
		}
		c.out = c.pend.take(c.out, joined, wm)
		if c.i >= c.ctx.Len() {
			c.flush()
			return
		}
		if len(c.out) > 0 {
			// Emitted pres were copied out of the stream's joined buffer
			// into c.out, so the next JoinChunk may reuse it while the
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

// flush emits every pending pre (all are final) and ends the stream.
func (c *standoffCursor) flush() {
	c.out = c.pend.drain(c.out, math.MaxInt64)
	c.done = true
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
	c.produced += int64(len(c.out))
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
	c.x.ev.Stats.RecordStepStream(c.sp, c.chunks, c.chunkMin, c.chunkMax, c.pend.peak)
}

func (c *standoffCursor) Err() error { return c.err }

func (c *standoffCursor) Close() {
	c.record()
	c.done = true
	c.pend.release()
	c.ctx, c.out = core.Areas{}, nil
	c.i = 0
}

// pendingSet holds the pres a stream has joined but not yet proven final:
// one bit per pre, counted from lo, the smallest pre the stream can produce.
// words reaches only up to the highest pending pre, and every word below from
// is zero: bits are only set at or above the watermark, which never falls,
// and drain clears what it emits. The words come from wordPool with the
// first pending pre and go back all zero on release.
type pendingSet struct {
	lo    int32
	words []uint64
	from  int
	box   *[]uint64 // wordPool's holder of words, nil before the first pre
	n     int       // pending pres
	peak  int       // most pres held back for the watermark, for ANALYZE
}

var wordPool = sync.Pool{New: func() any { return new([]uint64) }}

// take puts one chunk's matches, each at least lo and none below the last
// chunk's watermark, in document order: the pres below wm, pending ones
// included, are appended to out, and the rest are held. While nothing is
// pending, matches that strictly ascend need no bits: their prefix below wm
// goes straight to out.
func (p *pendingSet) take(out, pres []int32, wm int64) []int32 {
	if p.n == 0 && ascending(pres) {
		k := sort.Search(len(pres), func(i int) bool { return int64(pres[i]) >= wm })
		out = append(out, pres[:k]...)
		p.add(pres[k:])
	} else {
		// ANALYZE's peak counts a chunk that joins pres held back from
		// earlier chunks whole, and otherwise what stays after the drain.
		held := p.n > 0
		p.add(pres)
		if held {
			p.peak = max(p.peak, p.n)
		}
		out = p.drain(out, wm)
	}
	p.peak = max(p.peak, p.n)
	return out
}

func ascending(pres []int32) bool {
	for i := 1; i < len(pres); i++ {
		if pres[i] <= pres[i-1] {
			return false
		}
	}
	return true
}

// add sets the bits of pres, each at least lo.
func (p *pendingSet) add(pres []int32) {
	for _, pre := range pres {
		i := int(pre - p.lo)
		w := i >> 6
		if w >= len(p.words) {
			if p.box == nil {
				p.box = wordPool.Get().(*[]uint64)
				p.words = *p.box
			}
			// Words past len are zero, in the old array and a grown one.
			p.words = slices.Grow(p.words, w+1-len(p.words))[:w+1]
		}
		if m := uint64(1) << (i & 63); p.words[w]&m == 0 {
			p.words[w] |= m
			p.n++
		}
	}
}

// drain appends the pending pres below wm to out, ascending, and clears
// their bits.
func (p *pendingSet) drain(out []int32, wm int64) []int32 {
	out = slices.Grow(out, p.n)
	lim := wm - int64(p.lo) // bits below lim are final
	for ; p.n > 0 && p.from < len(p.words); p.from++ {
		base := int64(p.from) << 6
		if base >= lim {
			break
		}
		w := p.words[p.from]
		if rest := lim - base; rest < 64 {
			keep := w >> rest << rest // bits at or past lim stay
			p.words[p.from] = keep
			return p.emit(out, w^keep, base)
		}
		p.words[p.from] = 0
		out = p.emit(out, w, base)
	}
	return out
}

// emit appends the pres of word w, whose bit 0 is lo+base.
func (p *pendingSet) emit(out []int32, w uint64, base int64) []int32 {
	for ; w != 0; w &= w - 1 {
		out = append(out, p.lo+int32(base)+int32(bits.TrailingZeros64(w)))
		p.n--
	}
	return out
}

// release clears the bits still set and hands the words back to wordPool.
func (p *pendingSet) release() {
	if p.box == nil {
		return
	}
	clear(p.words[p.from:])
	*p.box = p.words[:0]
	wordPool.Put(p.box)
	p.box, p.words, p.from, p.n = nil, nil, 0, 0
}
