package xqeval

import "sync"

// The streaming pipeline evaluates the same loop-lifted machinery as the
// materialising path, but per chunk — which turns every per-evaluation
// scratch structure (LLSeq buffers, chunk frames, lifted bindings, builders)
// into a steady per-chunk allocation stream. The seq arena removes that
// stream the same way core.JoinArena removes the join's: recycled free lists
// behind a sync.Pool, single-goroutine by construction.
//
// Lifetimes are managed with explicit scopes instead of per-object returns:
// a cursor opens a scope before evaluating a chunk, every arena structure
// handed out while the scope is open is recorded as a loan of that scope,
// and closing the scope reclaims all of them at once. Scopes nest
// stack-like across the cursor tree (a child cursor's chunk scope closes
// before its parent's), and the pipeline's pull order keeps sibling scopes
// disjoint: a cursor closes its previous chunk's scope before pulling from
// its binding cursor, so the binding's own scope turnover happens while no
// younger scope is on the stack. Items handed to the consumer are value
// copies, so nothing the user observes aliases a reclaimed buffer.
//
// When no scope is open — the materialising Run path, evaluation during
// cursor init whose results must outlive any one chunk — every helper falls
// back to plain allocation, byte-for-byte the pre-arena behaviour.

// SeqScope is one open allocation scope: the loans handed out since the
// scope opened. The executor treats it as an opaque handle.
type SeqScope struct {
	builders []*llBuilder
	frames   []*frame
	bindings []*binding
}

// seqArena is the per-evaluator recycler: free lists the scopes reclaim
// into. It is single-goroutine, like the evaluator that owns it.
type seqArena struct {
	freeItems    [][]Item
	freeOffs     [][]int32
	freeBuilders []*llBuilder
	freeFrames   []*frame
	freeBindings []*binding

	scopes     []*SeqScope
	freeScopes []*SeqScope
}

const (
	// seqMaxFree bounds each free list; extras beyond it are left to the GC.
	seqMaxFree = 64
	// seqMaxItemCap / seqMaxOffCap bound the buffer sizes the arena retains
	// across runs — a one-off giant chunk must not pin its buffers forever.
	seqMaxItemCap = 1 << 15
	seqMaxOffCap  = 1 << 16
)

var seqArenaPool = sync.Pool{New: func() any { return &seqArena{} }}

// OpenScope starts an allocation scope: until the matching CloseScope,
// arena-aware helpers hand out recycled structures recorded as loans of
// this scope. Returns nil (and the helpers allocate plainly) when no arena
// is attached.
func (ev *Evaluator) OpenScope() *SeqScope {
	a := ev.seqs
	if a == nil {
		return nil
	}
	var s *SeqScope
	if n := len(a.freeScopes); n > 0 {
		s = a.freeScopes[n-1]
		a.freeScopes = a.freeScopes[:n-1]
	} else {
		s = &SeqScope{}
	}
	a.scopes = append(a.scopes, s)
	return s
}

// CloseScope reclaims every loan of s. Scopes close youngest-first; as a
// defensive measure any scope still open above s is reclaimed too. A nil s
// is a no-op.
func (ev *Evaluator) CloseScope(s *SeqScope) {
	a := ev.seqs
	if a == nil || s == nil {
		return
	}
	for len(a.scopes) > 0 {
		top := a.scopes[len(a.scopes)-1]
		a.scopes = a.scopes[:len(a.scopes)-1]
		a.reclaim(top)
		if top == s {
			return
		}
	}
}

// reclaim returns one scope's loans to the free lists and the scope struct
// itself to the scope pool.
func (a *seqArena) reclaim(s *SeqScope) {
	for _, b := range s.builders {
		// The builder holds the final slice headers, so buffers that grew
		// past their hint come back at their grown capacity.
		a.putItems(b.seq.Items)
		a.putOffs(b.seq.Off)
		b.seq = LLSeq{}
		if len(a.freeBuilders) < seqMaxFree {
			a.freeBuilders = append(a.freeBuilders, b)
		}
	}
	for _, f := range s.frames {
		vars := f.vars[:cap(f.vars)]
		clear(vars)
		f.vars = vars[:0]
		f.ctx, f.pos, f.last = nil, nil, nil
		f.n = 0
		if len(a.freeFrames) < seqMaxFree {
			a.freeFrames = append(a.freeFrames, f)
		}
	}
	for _, b := range s.bindings {
		*b = binding{}
		if len(a.freeBindings) < seqMaxFree {
			a.freeBindings = append(a.freeBindings, b)
		}
	}
	s.builders = s.builders[:0]
	s.frames = s.frames[:0]
	s.bindings = s.bindings[:0]
	if len(a.freeScopes) < seqMaxFree {
		a.freeScopes = append(a.freeScopes, s)
	}
}

// release prepares the arena for pool residence: leftover scopes (error or
// early-close paths) are reclaimed. The free item buffers are already zero
// (putItems), so the pool never pins a document through stale Item fields.
func (a *seqArena) release() {
	for len(a.scopes) > 0 {
		top := a.scopes[len(a.scopes)-1]
		a.scopes = a.scopes[:len(a.scopes)-1]
		a.reclaim(top)
	}
	seqArenaPool.Put(a)
}

// putItems retains buf, a loan's final slice header, for reuse, zeroing the
// items the loan wrote: its length, still in cache. Every free buffer is
// therefore zero over its whole capacity, and what a run pays to clear follows
// what it wrote, not how much the arena it drew from the pool retains.
func (a *seqArena) putItems(buf []Item) {
	if buf == nil || cap(buf) > seqMaxItemCap || len(a.freeItems) >= seqMaxFree {
		return
	}
	clear(buf)
	a.freeItems = append(a.freeItems, buf[:0])
}

func (a *seqArena) putOffs(buf []int32) {
	if buf == nil || cap(buf) > seqMaxOffCap || len(a.freeOffs) >= seqMaxFree {
		return
	}
	a.freeOffs = append(a.freeOffs, buf[:0])
}

// popItems / popOffs take a free buffer with at least the hinted capacity,
// allocating when the list's candidate is too small. Per-call-site request
// sizes are stable across chunks, so the lists converge after a chunk or
// two and the steady state allocates nothing.
func (a *seqArena) popItems(capHint int) []Item {
	if n := len(a.freeItems); n > 0 {
		buf := a.freeItems[n-1]
		a.freeItems = a.freeItems[:n-1]
		if cap(buf) >= capHint {
			return buf[:0]
		}
	}
	return make([]Item, 0, capHint)
}

func (a *seqArena) popOffs(capHint int) []int32 {
	if n := len(a.freeOffs); n > 0 {
		buf := a.freeOffs[n-1]
		a.freeOffs = a.freeOffs[:n-1]
		if cap(buf) >= capHint {
			return buf[:0]
		}
	}
	return make([]int32, 0, capHint)
}

// active returns the scope new loans belong to, or nil when the helpers
// should allocate plainly.
func (ev *Evaluator) active() *SeqScope {
	if a := ev.seqs; a != nil && len(a.scopes) > 0 {
		return a.scopes[len(a.scopes)-1]
	}
	return nil
}

// scrBuilderCap is the arena-aware newLLBuilderCap: under an open scope the
// builder and both buffers are recycled loans; otherwise it is a plain
// builder. Growth past the hints is safe either way — the reclaim reads the
// builder's final slice headers.
func (ev *Evaluator) scrBuilderCap(nHint, itemsHint int) *llBuilder {
	s := ev.active()
	if s == nil {
		return newLLBuilderCap(nHint, itemsHint)
	}
	a := ev.seqs
	b := a.popBuilder()
	off := a.popOffs(nHint + 1)
	b.seq = LLSeq{Off: append(off, 0), Items: a.popItems(itemsHint)}
	s.builders = append(s.builders, b)
	return b
}

func (a *seqArena) popBuilder() *llBuilder {
	if n := len(a.freeBuilders); n > 0 {
		b := a.freeBuilders[n-1]
		a.freeBuilders = a.freeBuilders[:n-1]
		return b
	}
	return &llBuilder{}
}

// scrOffs hands out an empty offsets buffer with the leading 0 in place and
// room for n entries: a builder loan that carries no item buffer.
func (ev *Evaluator) scrOffs(n int) []int32 {
	s := ev.active()
	if s == nil {
		return make([]int32, 1, n)
	}
	b := ev.seqs.popBuilder()
	b.seq = LLSeq{Off: append(ev.seqs.popOffs(n), 0)}
	s.builders = append(s.builders, b)
	return b.seq.Off
}

// scrFrame hands out a zeroed frame whose vars slice keeps its old capacity.
func (ev *Evaluator) scrFrame(n int) *frame {
	s := ev.active()
	if s == nil {
		return newFrame(n)
	}
	a := ev.seqs
	var f *frame
	if k := len(a.freeFrames); k > 0 {
		f = a.freeFrames[k-1]
		a.freeFrames = a.freeFrames[:k-1]
	} else {
		f = &frame{}
	}
	f.n = n
	s.frames = append(s.frames, f)
	return f
}

// scrBinding hands out a zeroed binding.
func (ev *Evaluator) scrBinding() *binding {
	s := ev.active()
	if s == nil {
		return &binding{}
	}
	a := ev.seqs
	var b *binding
	if k := len(a.freeBindings); k > 0 {
		b = a.freeBindings[k-1]
		a.freeBindings = a.freeBindings[:k-1]
	} else {
		b = &binding{}
	}
	s.bindings = append(s.bindings, b)
	return b
}

// scrConstLL is the arena-aware constLL (literal broadcast).
func (ev *Evaluator) scrConstLL(n int, items ...Item) LLSeq {
	if ev.active() == nil {
		return constLL(n, items...)
	}
	b := ev.scrBuilderCap(n, n*len(items))
	for i := 0; i < n; i++ {
		b.add(items...)
	}
	return b.done()
}

// scrMaterialize is the arena-aware binding.materialize: the flattened
// sequence is built into loaned buffers; the identity case still aliases
// the binding's own storage without copying.
func (ev *Evaluator) scrMaterialize(b *binding) LLSeq {
	if ev.active() == nil || (!b.bcast && b.ind == nil) {
		return b.materialize()
	}
	if b.bcast {
		g := b.seq.Group(b.bsrc)
		out := ev.scrBuilderCap(b.bn, b.bn*len(g))
		for i := 0; i < b.bn; i++ {
			out.add(g...)
		}
		return out.done()
	}
	total := 0
	for _, o := range b.ind {
		total += len(b.seq.Group(int(o)))
	}
	out := ev.scrBuilderCap(len(b.ind), total)
	for _, o := range b.ind {
		out.add(b.seq.Group(int(o))...)
	}
	return out.done()
}

// scrExpandBroadcast fans a single-iteration frame out to n descendant
// iterations (the chunk expansion of BindChunk): every binding becomes a
// broadcast of its one effective group. The caller guarantees f.n == 1.
func (ev *Evaluator) scrExpandBroadcast(f *frame, n int) *frame {
	nf := ev.scrFrame(n)
	for _, vb := range f.vars {
		nf.vars = append(nf.vars, varBind{vb.name, ev.scrLiftBroadcast(vb.b, n)})
	}
	if f.ctx != nil {
		nf.ctx = ev.scrLiftBroadcast(f.ctx, n)
	}
	if f.pos != nil {
		nf.pos = broadcastI64(f.pos[0], n)
	}
	if f.last != nil {
		nf.last = broadcastI64(f.last[0], n)
	}
	return nf
}

// scrLiftBroadcast fans the binding of a single-iteration frame out to n
// descendant iterations. The caller guarantees the binding has exactly one
// effective group.
func (ev *Evaluator) scrLiftBroadcast(b *binding, n int) *binding {
	src := b.bsrc
	if !b.bcast && b.ind != nil {
		src = int(b.ind[0])
	}
	nb := ev.scrBinding()
	nb.seq, nb.bcast, nb.bn, nb.bsrc = b.seq, true, n, src
	return nb
}

// scrBind is the arena-aware frame.bind.
func (ev *Evaluator) scrBind(f *frame, name string, b *binding) *frame {
	if ev.active() == nil {
		return f.bind(name, b)
	}
	nf := ev.scrFrame(f.n)
	nf.ctx, nf.pos, nf.last = f.ctx, f.pos, f.last
	nf.vars = append(nf.vars, f.vars...)
	for i := range nf.vars {
		if nf.vars[i].name == name {
			nf.vars[i].b = b
			return nf
		}
	}
	nf.vars = append(nf.vars, varBind{name, b})
	return nf
}

// scrBindSeq wraps seq in a loaned binding and binds it.
func (ev *Evaluator) scrBindSeq(f *frame, name string, seq LLSeq) *frame {
	b := ev.scrBinding()
	b.seq = seq
	return ev.scrBind(f, name, b)
}
