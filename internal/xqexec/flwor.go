package xqexec

import (
	"sync"

	"soxq/internal/obs"
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
// Nested loops compound the bound. When the clause right after the streamed
// for is itself a for over a sequence the pipeline can generate on demand
// (a range, a StandOff-free path), the inner loop is not expanded
// loop-lifted into the chunk — expansion would materialise chunk×inner
// tuples at once, unbounded by the chunk size. Instead each parent tuple
// drives a child flworCursor over the inner binding: the child pulls inner
// tuples in chunks of its own and evaluates the remaining tail loop-lifted
// per inner chunk, recursively for deeper nests, so the live tuple count
// stays proportional to ChunkSize at every nesting depth. Bindings that
// contain StandOff joins stay on the expanded path deliberately — a join in
// the inner binding wants the chunk-level loop-lifting, not a per-parent-
// tuple re-run (the per-iteration cost the paper's loop-lifting avoids).
//
// Order-correctness needs no merge: tuples expand in order and where keeps
// order, so the chunk (and child-cursor) results concatenate into exactly
// the sequence the materialising path produces.

const (
	// parallelChunkSize is the partition granularity of the worker pool.
	// The chunk must be large enough that a loop-lifted join over it
	// amortises, small enough that a few hundred tuples still split
	// across workers.
	parallelChunkSize = 128
	// parallelMinTuples gates the worker pool: a binding stream that ends
	// before this many tuples runs single-threaded — the observed
	// cardinality has to amortise the machinery.
	parallelMinTuples = 2 * parallelChunkSize
	// inlineRows is the per-chunk dispatch gate: dispatching a chunk costs a
	// queue round trip and a forked evaluation, so a trailing partial chunk
	// below this many tuples is cheaper to evaluate inline at the merge. Full
	// chunks are never gated, so the gate cannot serialise a configuration
	// whose ChunkSize is small.
	inlineRows = 32
)

// flworCursor is the chunked FLWOR pipeline for one for-clause level. The
// root cursor owns the whole FLWOR (and is the only one that records the
// operator's ANALYZE invocation and may engage the worker pool); child
// cursors own the clause suffix from one nested for clause on, bound under a
// single parent tuple.
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
	// pending holds binding tuples the parallel gate buffered before
	// deciding to stay sequential; nextChunk consumes it ahead of bind,
	// in ChunkSize slices like any other input.
	pending []xqeval.Item

	// Nested cursor-valued binding: when rest starts with a streamable for
	// clause (and the pool did not engage), each tuple of the chunk drives
	// a child cursor over inner/innerRest instead of expanding into the
	// chunk frame. memo caches the decision per level: every sibling child
	// cursor shares its parent's clause suffix, so the classification walk
	// runs once per nesting level, not once per parent tuple.
	memo      *nestedDecision
	inner     *xqast.ForClause
	innerRest []xqast.Clause
	child     *flworCursor
	ti        int // next chunk tuple to drive a child with
	// childFree is the shelved previous child cursor, reset in place for the
	// next parent tuple (strictly one sibling lives at a time); bindFree is
	// this cursor's own parked binding cursor across a shelve/reset cycle.
	childFree *flworCursor
	bindFree  Cursor

	// scope is the arena scope of the current expanded-mode chunk;
	// childScope spans the current child cursor's lifetime (its frame and
	// everything evaluated at its init live exactly that long).
	scope      *xqeval.SeqScope
	childScope *xqeval.SeqScope

	par *parallelFLWOR // non-nil once the worker pool engages

	started bool
	done    bool
	chunk   []xqeval.Item // reused binding scratch (sequential mode only)
	seed    []xqeval.Item // reused 1-tuple buffer driving child cursors
	basePos int64
	out     []xqeval.Item // the current chunk's result, handed out as one batch
	err     error
}

func newFLWORCursor(x *executor, v *xqast.FLWOR, f *xqeval.Frame) *flworCursor {
	return &flworCursor{x: x, v: v, clauses: v.Clauses, root: true, f: f, memo: &nestedDecision{}}
}

// newChildCursor builds the cursor of one nested for level: clauses is the
// suffix starting at the nested for clause, f the single-tuple frame of the
// parent binding, memo the level's shared decision cache.
func newChildCursor(x *executor, v *xqast.FLWOR, clauses []xqast.Clause, f *xqeval.Frame, memo *nestedDecision) *flworCursor {
	return &flworCursor{x: x, v: v, clauses: clauses, f: f, memo: memo}
}

// nestedDecision caches one nesting level's cursor-valued-binding decision.
// A cursor and all its sibling cursors (children of one parent, one per
// parent tuple) share the same clause suffix, so the first sibling decides
// and the rest reuse — the classification walk is per level, not per tuple.
type nestedDecision struct {
	decided   bool
	inner     *xqast.ForClause
	innerRest []xqast.Clause
	child     *nestedDecision // the next level's cache, set when inner is

	// chunkBuf recycles the binding-tuple chunk buffer across the level's
	// sibling cursors (one per parent tuple, strictly one live at a time —
	// and a closed sibling has been fully drained, so every batch that could
	// alias the buffer was consumed before the next sibling overwrites it).
	chunkBuf []xqeval.Item
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
			c.bind = NewReader(c.x.buildReuse(cl.Seq, f, c.bindFree))
			c.bindFree = nil
			if c.root && c.x.cfg.Parallelism > 1 {
				c.par = startParallel(c)
			}
			if c.par == nil && c.err == nil {
				c.initNested()
			}
			return
		}
	}
	// Unreachable at the root (streamableFLWOR guaranteed a for clause);
	// children always start at one.
	c.done = true
}

// initNested engages the cursor-valued-binding mode: under bounded chunks,
// an immediately following for clause over a streamable binding makes each
// parent tuple drive a child cursor. Unbounded chunks (Exec's full drain)
// keep the expanded path — there the whole loop evaluates loop-lifted in one
// chunk, which is exactly the amortisation the materialising engine wants.
func (c *flworCursor) initNested() {
	if c.x.cfg.ChunkSize <= 0 {
		return
	}
	m := c.memo
	if !m.decided {
		m.decided = true
		if len(c.rest) > 0 {
			if fc, ok := c.rest[0].(*xqast.ForClause); ok && streamableBinding(fc.Seq) {
				m.inner, m.innerRest = fc, c.rest[1:]
				m.child = &nestedDecision{}
			}
		}
	}
	c.inner, c.innerRest = m.inner, m.innerRest
}

// streamableBinding reports whether a nested for clause's binding sequence
// should drive a child cursor: a form the pipeline generates on demand
// (range, sequence, path, nested FLWOR) that evaluates no StandOff join —
// joins want the chunk-level loop-lifting of the expanded path.
func streamableBinding(e xqast.Expr) bool {
	if xqplan.ContainsStandOff(e) {
		return false
	}
	switch v := e.(type) {
	case *xqast.Binary:
		return v.Op == "to" || v.Op == ","
	case *xqast.Enclosed:
		return streamableBinding(v.X)
	case *xqast.Path:
		return true
	case *xqast.FLWOR:
		return streamableFLWOR(v)
	}
	return false
}

// nextChunk pulls up to one chunk of binding tuples. In expanded mode it
// evaluates the FLWOR tail over them at once; in nested mode it only stages
// the tuples — NextBatch drives a child cursor per tuple.
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
	limit := c.x.chunkSize()
	if c.chunk == nil && c.memo != nil {
		// Adopt the level's recycled chunk buffer (returned on Close). The
		// previous sibling was drained before this cursor started, so its
		// contents are dead.
		c.chunk, c.memo.chunkBuf = c.memo.chunkBuf, nil
	}
	c.chunk = c.chunk[:0]
	c.ti = 0
	if n := min(limit, len(c.pending)); n > 0 {
		c.chunk = append(c.chunk, c.pending[:n]...)
		c.pending = c.pending[n:]
	}
	c.chunk = c.bind.Fill(c.chunk, limit)
	if err := c.bind.Err(); err != nil {
		c.err = err
		return
	}
	if len(c.chunk) == 0 {
		c.done = true
		return
	}
	if c.inner != nil {
		c.basePos += int64(len(c.chunk))
		return
	}
	c.scope = c.x.ev.OpenScope()
	out, err := evalFLWORChunk(c.x.ev, c, c.chunk, c.basePos)
	if err != nil {
		c.err = err
		return
	}
	c.basePos += int64(len(c.chunk))
	c.out = out
}

// evalFLWORChunk runs the FLWOR tail over one chunk of binding tuples
// (expanded mode: remaining clauses unroll loop-lifted into the chunk
// frame). FLWORTail records the chunk's tuple counters.
func evalFLWORChunk(ev *xqeval.Evaluator, c *flworCursor, tuples []xqeval.Item, basePos int64) ([]xqeval.Item, error) {
	nf := ev.BindChunk(c.f, c.first.Var, c.first.Pos, tuples, basePos)
	ret, err := ev.FLWORTail(c.v, c.rest, nf)
	if err != nil {
		return nil, err
	}
	return ret.Items, nil
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
		c.child = newChildCursor(c.x, c.v, c.rest, nf, c.memo.child)
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
// buffers and decision memo stay attached to the struct.
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
	c.pending = nil
}

// reset re-arms a shelved child under a fresh parent-tuple frame; clause
// structure, chunk and seed buffers, the decision memo, the parked binding
// cursor, and any deeper shelved descendants all carry over.
func (c *flworCursor) reset(f *xqeval.Frame) {
	c.f = f
	c.started, c.done = false, false
	c.err = nil
	c.first, c.rest = nil, nil
	c.inner, c.innerRest = nil, nil
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
	if c.par != nil {
		return c.par.next(c)
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
		if c.inner != nil && c.ti < len(c.chunk) {
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
	c.out, c.pending = nil, nil
	if c.memo != nil && c.chunk != nil && c.memo.chunkBuf == nil {
		c.memo.chunkBuf = c.chunk // recycle for the next sibling cursor
	}
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
	if c.par != nil {
		// The producer goroutine owns (and closes) the binding cursor.
		c.par.close()
		c.par = nil
		c.bind = Reader{}
		return
	}
	if c.bind.c != nil {
		c.bind.Close()
		c.bind = Reader{}
	}
}

// parallelFLWOR distributes the binding stream across a work-stealing worker
// pool with an order-preserving merge. The producer deals sequence-numbered
// chunk tasks round-robin into one deque per worker; each worker drains its
// own deque and steals from its siblings when that runs dry, so a skewed
// chunk (one tuple whose loop body dominates) never idles the other workers
// the way a static partition would. Workers evaluate the FLWOR tail per
// chunk over forked evaluators (the plan is immutable and race-safe to
// share) and send results to a shared channel; the consumer re-orders them
// through a sequence-keyed min-heap (the same hand-rolled heap as the
// StandOff merge's preHeap), so the parallel stream is item-for-item the
// sequential one.
//
// The deques are bounded globally rather than per-queue: the producer
// acquires an in-flight token per chunk and the consumer releases it only
// when the chunk is emitted, so tasks queued + results waiting in the
// channel or the heap never exceed the token budget and memory stays
// proportional to Parallelism x chunk result, not to the loop size. Only
// the root cursor parallelises — nested levels inside a distributed loop
// evaluate on the expanded path within their worker's chunk.
type parallelFLWOR struct {
	deqs   []workDeque
	resch  chan chunkResult
	slots  chan struct{} // in-flight tokens: producer acquires, merge releases
	donech chan struct{}
	wg     sync.WaitGroup // producer + workers; a closer joins them and closes resch
	met    *obs.ExecMetrics

	mu       sync.Mutex
	cond     *sync.Cond
	queued   int  // tasks dealt to deques and not yet claimed
	prodDone bool // producer exhausted the binding stream
	stopped  bool // close() called; workers must not start new tasks

	// Consumer-side merge state (single goroutine, never shared).
	closed  bool
	heap    resultHeap
	nextSeq int64
	iev     *xqeval.Evaluator // evaluates cost-gated inline chunks at the merge
}

// chunkTask is one sequence-numbered slice of the binding stream, ready for
// a worker (or a thief) to evaluate.
type chunkTask struct {
	seq     int64
	tuples  []xqeval.Item
	basePos int64
}

// chunkResult carries one chunk's outcome back to the merge. An inline
// result carries the unevaluated tuples instead: the producer decided the
// chunk was too small to amortise a dispatch (the per-chunk cost gate) and
// the consumer evaluates it itself when its sequence number comes up.
type chunkResult struct {
	seq     int64
	items   []xqeval.Item
	err     error
	inline  []xqeval.Item
	basePos int64
}

// workDeque is one worker's chunk-task queue. The owner pops newest-first
// (its cache is warm with the producer's latest tuples), thieves steal
// oldest-first — the classic work-stealing discipline. A plain mutex guards
// each deque: at chunk granularity the lock is all but uncontended, and the
// pool's in-flight token budget bounds every deque's length.
type workDeque struct {
	mu    sync.Mutex
	tasks []chunkTask
	head  int
}

func (d *workDeque) push(t chunkTask) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

// pop removes the newest task (owner side).
func (d *workDeque) pop() (chunkTask, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.tasks) {
		return chunkTask{}, false
	}
	n := len(d.tasks) - 1
	t := d.tasks[n]
	d.tasks[n] = chunkTask{} // release the tuple slice
	d.tasks = d.tasks[:n]
	if d.head >= len(d.tasks) {
		d.tasks, d.head = d.tasks[:0], 0
	}
	return t, true
}

// steal removes the oldest task (thief side).
func (d *workDeque) steal() (chunkTask, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.tasks) {
		return chunkTask{}, false
	}
	t := d.tasks[d.head]
	d.tasks[d.head] = chunkTask{}
	d.head++
	if d.head >= len(d.tasks) {
		d.tasks, d.head = d.tasks[:0], 0
	}
	return t, true
}

// resultHeap orders out-of-sequence chunk results by producer sequence
// number — the same hand-rolled binary min-heap as the StandOff merge's
// preHeap, keyed on seq instead of pre rank.
type resultHeap struct {
	rs []chunkResult
}

func (h *resultHeap) len() int { return len(h.rs) }

func (h *resultHeap) push(r chunkResult) {
	h.rs = append(h.rs, r)
	i := len(h.rs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.rs[p].seq <= h.rs[i].seq {
			break
		}
		h.rs[p], h.rs[i] = h.rs[i], h.rs[p]
		i = p
	}
}

func (h *resultHeap) pop() chunkResult {
	r := h.rs[0]
	n := len(h.rs) - 1
	h.rs[0] = h.rs[n]
	h.rs[n] = chunkResult{}
	h.rs = h.rs[:n]
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		s := i
		if l < n && h.rs[l].seq < h.rs[s].seq {
			s = l
		}
		if rt < n && h.rs[rt].seq < h.rs[s].seq {
			s = rt
		}
		if s == i {
			break
		}
		h.rs[i], h.rs[s] = h.rs[s], h.rs[i]
		i = s
	}
	return r
}

// startParallel decides the partition size, applies the small-loop gate, and
// spins up the producer and workers. It returns nil when the binding stream
// ends below the gate — the caller then runs the buffered tuples through the
// ordinary sequential chunk path.
func startParallel(c *flworCursor) *parallelFLWOR {
	pchunk := parallelChunkSize
	if s := c.x.cfg.ChunkSize; s > 0 && s < pchunk {
		pchunk = s
	}
	// Gate on the observed cardinality of the binding stream.
	prefix := c.bind.Fill(make([]xqeval.Item, 0, parallelMinTuples+1), parallelMinTuples+1)
	if err := c.bind.Err(); err != nil {
		c.err = err
		return nil
	}
	if len(prefix) <= parallelMinTuples {
		// Small loop: hand the buffered tuples to the ordinary sequential
		// chunk path, which evaluates them in ChunkSize slices — the
		// memory bound holds whether or not the pool engages.
		c.pending = prefix
		return nil
	}

	workers := c.x.cfg.Parallelism
	inflight := 2 * workers
	p := &parallelFLWOR{
		deqs:   make([]workDeque, workers),
		resch:  make(chan chunkResult, inflight),
		slots:  make(chan struct{}, inflight),
		donech: make(chan struct{}),
		met:    c.x.ev.Met,
		iev:    c.x.ev.Fork(),
	}
	p.cond = sync.NewCond(&p.mu)
	p.iev.AttachArena()
	p.wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		go p.worker(c, w)
	}
	// The producer takes the reader over, with the rows it holds past the
	// prefix; c.bind is not read again while the pool runs.
	go p.produce(c, c.bind, prefix, pchunk)
	// The closer shuts the result channel once the producer and every
	// worker has exited — the merge reads end-of-stream from the close.
	go func() {
		p.wg.Wait()
		close(p.resch)
	}()
	return p
}

// produce slices the binding stream into sequence-numbered chunk tasks and
// deals them round-robin into the worker deques. It owns the binding cursor
// exclusively — no other goroutine touches it once the pool starts. Each
// chunk first acquires an in-flight token (released by the merge when the
// chunk is emitted), which is what bounds the deques and the result heap.
func (p *parallelFLWOR) produce(c *flworCursor, bind Reader, prefix []xqeval.Item, pchunk int) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		p.prodDone = true
		p.mu.Unlock()
		p.cond.Broadcast()
	}()
	defer bind.Close()
	var seq, basePos int64
	emit := func(tuples []xqeval.Item) bool {
		if !p.acquireSlot() {
			return false
		}
		t := chunkTask{seq: seq, tuples: tuples, basePos: basePos}
		seq++
		basePos += int64(len(tuples))
		if len(tuples) < pchunk && len(tuples) < inlineRows {
			select {
			case p.resch <- chunkResult{seq: t.seq, inline: t.tuples, basePos: t.basePos}:
				return true
			case <-p.donech:
				return false
			}
		}
		p.deqs[int(t.seq)%len(p.deqs)].push(t)
		p.mu.Lock()
		p.queued++
		p.mu.Unlock()
		p.cond.Signal()
		return true
	}
	for len(prefix) > 0 {
		n := min(pchunk, len(prefix))
		if !emit(prefix[:n:n]) {
			return
		}
		prefix = prefix[n:]
	}
	for {
		tuples := bind.Fill(make([]xqeval.Item, 0, pchunk), pchunk)
		if err := bind.Err(); err != nil {
			// The error occupies the next sequence slot, so the merge
			// surfaces it only after every preceding chunk — exactly where
			// the sequential stream would have failed.
			if !p.acquireSlot() {
				return
			}
			select {
			case p.resch <- chunkResult{seq: seq, err: err}:
			case <-p.donech:
			}
			return
		}
		if len(tuples) == 0 {
			return
		}
		if !emit(tuples) {
			return
		}
	}
}

// acquireSlot takes one in-flight token for the producer, counting a stall
// when the budget is exhausted and the producer genuinely has to wait for
// the merge to release one — the saturation signal of the pool. Returns
// false when the pool shut down instead.
func (p *parallelFLWOR) acquireSlot() bool {
	select {
	case p.slots <- struct{}{}:
		return true
	default:
	}
	p.met.InflightWait()
	select {
	case p.slots <- struct{}{}:
		return true
	case <-p.donech:
		return false
	}
}

func (p *parallelFLWOR) worker(c *flworCursor, w int) {
	defer p.wg.Done()
	// One fork per worker goroutine, with its own join arena (arenas are
	// single-goroutine; Fork drops the parent's). The fork's per-chunk
	// state (recursion depth) resets itself because evalFLWORChunk always
	// starts from depth 0.
	ev := c.x.ev.Fork()
	ev.AttachArena()
	defer ev.DetachArena()
	for {
		t, ok := p.takeTask(w)
		if !ok {
			return
		}
		items, err := evalFLWORChunk(ev, c, t.tuples, t.basePos)
		select {
		case p.resch <- chunkResult{seq: t.seq, items: items, err: err}:
		case <-p.donech:
			return
		}
	}
}

// takeTask is the work-stealing loop for worker w: drain the own deque
// (newest first), then sweep the siblings' deques (oldest first), then sleep
// on the pool condition until the producer deals more work or the pool shuts
// down. Returns false when no task will ever arrive again.
func (p *parallelFLWOR) takeTask(w int) (chunkTask, bool) {
	for {
		select {
		case <-p.donech:
			return chunkTask{}, false
		default:
		}
		if t, ok := p.deqs[w].pop(); ok {
			p.claim()
			return t, true
		}
		for d := 1; d < len(p.deqs); d++ {
			if t, ok := p.deqs[(w+d)%len(p.deqs)].steal(); ok {
				p.met.Steal()
				p.claim()
				return t, true
			}
		}
		p.mu.Lock()
		if p.queued == 0 {
			if p.prodDone || p.stopped {
				p.mu.Unlock()
				return chunkTask{}, false
			}
			p.cond.Wait()
		}
		p.mu.Unlock()
	}
}

// claim accounts one task leaving the deques. queued is incremented only
// after the task is pushed, so a sleeping worker woken by the signal always
// finds the task it was woken for (or sleeps again after a failed sweep).
func (p *parallelFLWOR) claim() {
	p.mu.Lock()
	p.queued--
	p.mu.Unlock()
}

// next is the order-preserving merge: results arrive in completion order and
// are re-sequenced through the min-heap, so chunks are emitted strictly in
// the order the producer numbered them and the parallel stream is
// item-for-item the sequential stream. Each chunk's result is one batch.
func (p *parallelFLWOR) next(c *flworCursor) Batch {
	for c.err == nil {
		var r chunkResult
		if p.heap.len() > 0 && p.heap.rs[0].seq == p.nextSeq {
			r = p.heap.pop()
		} else {
			var ok bool
			if r, ok = <-p.resch; !ok {
				// Producer and workers are done and every result was taken:
				// sequence numbers are contiguous, so the heap is empty too.
				break
			}
			if r.seq != p.nextSeq {
				p.heap.push(r)
				continue
			}
		}
		if items := p.take(c, r); len(items) > 0 {
			return Batch{Items: items}
		}
	}
	return Batch{}
}

// take emits one in-sequence chunk result: releases its in-flight token (the
// producer may now deal the next chunk), surfaces its error, evaluates it
// here if the producer's cost gate kept it inline, and returns its items.
func (p *parallelFLWOR) take(c *flworCursor, r chunkResult) []xqeval.Item {
	p.nextSeq++
	<-p.slots
	if r.err != nil {
		c.err = r.err
		return nil
	}
	if r.inline != nil {
		items, err := evalFLWORChunk(p.iev, c, r.inline, r.basePos)
		c.err = err
		return items
	}
	return r.items
}

func (p *parallelFLWOR) close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.donech)
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
	// Drain the result channel until the closer shuts it: that happens only
	// after the producer and every worker has exited, and the caller
	// releases the parent evaluator's join arena right after Close, so no
	// goroutine that reads the evaluator (Fork) or evaluates over it (the
	// producer's binding cursor) may outlive this loop.
	for range p.resch {
	}
	p.iev.DetachArena()
	p.heap.rs = nil
}
