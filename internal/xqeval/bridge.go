package xqeval

// This file is the evaluator's bridge to internal/xqexec, the streaming
// execution subsystem. The cursor pipeline drives the same loop-lifted
// machinery the materialising Run path uses — chunk by chunk instead of all
// iterations at once — so both paths share one engine and one set of
// semantics. Everything here operates on *root-shaped* frames: frames with
// exactly one iteration (the top level of a query), which is the only place
// the executor builds pipelines.

import (
	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
	"soxq/internal/xqplan"
)

// Frame is the exported handle to a loop-lifted evaluation frame. The
// executor treats it as opaque: it obtains one from NewRootFrame, derives
// chunk frames with BindChunk/BindSeq, and passes it back into EvalExpr,
// FLWORTail and the path helpers.
type Frame = frame

// NewRootFrame builds the top-level frame of an execution: one iteration,
// with the plan's global variables evaluated and bound in declaration order.
// Run uses it internally; the executor calls it once per pipeline.
func (ev *Evaluator) NewRootFrame() (*Frame, error) {
	if ev.MaxRecursion == 0 {
		ev.MaxRecursion = 512
	}
	f := newFrame(1)
	for _, vd := range ev.Plan.Globals() {
		val, err := ev.eval(vd.Value, f)
		if err != nil {
			return nil, err
		}
		f = f.bind(vd.Name, newBinding(val))
	}
	return f, nil
}

// EvalExpr evaluates an expression under f with the full materialising
// evaluator; the result has one group per frame iteration.
func (ev *Evaluator) EvalExpr(e xqast.Expr, f *Frame) (LLSeq, error) {
	return ev.eval(e, f)
}

// Iterations returns the frame's iteration count.
func (f *Frame) Iterations() int { return f.n }

// BindSeq returns a copy of f with name bound to seq (which must have one
// group per frame iteration).
func (f *Frame) BindSeq(name string, seq LLSeq) *Frame {
	return f.bind(name, newBinding(seq))
}

// BindChunk expands a single-iteration frame into len(items) tuple
// iterations — one per item, all descending from the root iteration — with
// varName bound to the tuple's item and posName (when non-empty, the
// for-clause's `at` variable) to its 1-based position offset by basePos.
// This is how the executor turns a chunk of a for-clause's binding stream
// into the frame the loop-lifted machinery evaluates the loop body over.
// items is aliased, not copied: the caller must not mutate it while the
// returned frame (or any sequence produced under it) is still in use.
// Under an open arena scope, the chunk frames and lifted bindings are
// recycled loans of that scope — the chunk turnover allocates nothing.
func (ev *Evaluator) BindChunk(f *Frame, varName, posName string, items []Item, basePos int64) *Frame {
	n := len(items)
	// All tuples descend from root iteration 0: a broadcast expansion, so
	// the outer bindings carry over without per-tuple indirection arrays,
	// and the one-item-per-iteration offsets come from the shared table.
	nf := ev.scrExpandBroadcast(f, n)
	nf = ev.scrBindSeq(nf, varName, LLSeq{Off: ascOff(n), Items: items})
	if posName != "" {
		pb := ev.scrBuilderCap(n, n)
		for i := 0; i < n; i++ {
			pb.add(Int(basePos + int64(i) + 1))
		}
		nf = ev.scrBindSeq(nf, posName, pb.done())
	}
	return nf
}

// FLWORTail evaluates the remainder of FLWOR v over the tuples of f: the
// given clauses (those after the streamed for clause), v's where filter, and
// v's return expression. The result is grouped by the final tuple frame;
// because tuple expansion and where-restriction both preserve iteration
// order, the flat Items slice is already in result order — the executor
// streams it directly without the per-iteration regroup the materialising
// path performs. FLWORTail does not handle order by; the executor falls back
// to the materialising evaluator for FLWORs that sort.
//
// FLWORTail owns the chunk counters of the streamed FLWOR: it records one
// chunk with the tuple count after clause expansion (before where), so the
// streamed totals agree with the materialising evalFLWOR no matter how many
// for clauses the chunk expands through — the executor's callers must not
// count tuples themselves, or nested loops would double-count across the
// fallback boundary.
func (ev *Evaluator) FLWORTail(v *xqast.FLWOR, clauses []xqast.Clause, f *Frame) (LLSeq, error) {
	cur, rootOf, err := ev.flworClauses(clauses, f)
	if err != nil {
		return LLSeq{}, err
	}
	tuples := int64(cur.n)
	if v.Where != nil {
		cur, _, err = ev.flworWhere(v.Where, cur, rootOf)
		if err != nil {
			return LLSeq{}, err
		}
	}
	ret, err := ev.eval(v.Return, cur)
	if err != nil {
		return LLSeq{}, err
	}
	ev.Stats.RecordChunk(v, tuples, int64(len(ret.Items)))
	return ret, nil
}

// PathPrefix evaluates a path's starting context and every compiled step but
// the last, returning the context sequence the final step would consume plus
// that final step's plan. A nil StepPlan means the program is empty and the
// returned sequence is already the path's result.
func (ev *Evaluator) PathPrefix(p *xqast.Path, f *Frame) (LLSeq, *xqplan.StepPlan, error) {
	cur, err := ev.pathStart(p, f)
	if err != nil {
		return LLSeq{}, nil, err
	}
	prog := ev.Plan.Program(p)
	if len(prog) == 0 {
		return cur, nil, nil
	}
	for _, sp := range prog[:len(prog)-1] {
		cur, err = ev.evalStep(sp, cur, f)
		if err != nil {
			return LLSeq{}, nil, err
		}
	}
	return cur, prog[len(prog)-1], nil
}

// PathPrefixStream evaluates a path's start and the steps before its longest
// chunk-streamable suffix, returning the context sequence plus the remaining
// compiled steps. The suffix always includes the final step (whatever its
// class); earlier steps join it only while they classify StreamChunked or
// StreamChunkedReject — the executor runs those through composed pres-based
// cursors instead of the bulk evaluator. An empty step slice means the
// program is empty and the returned sequence is already the path's result.
func (ev *Evaluator) PathPrefixStream(p *xqast.Path, f *Frame) (LLSeq, []*xqplan.StepPlan, error) {
	cur, err := ev.pathStart(p, f)
	if err != nil {
		return LLSeq{}, nil, err
	}
	prog := ev.Plan.Program(p)
	if len(prog) == 0 {
		return cur, nil, nil
	}
	cut := len(prog) - 1
	for cut > 0 {
		s := prog[cut-1].Streamability()
		if s != xqplan.StreamChunked && s != xqplan.StreamChunkedReject {
			break
		}
		cut--
	}
	for _, sp := range prog[:cut] {
		cur, err = ev.evalStep(sp, cur, f)
		if err != nil {
			return LLSeq{}, nil, err
		}
	}
	return cur, prog[cut:], nil
}

// GroupSeq wraps a flat item slice as a single-group sequence — the shape a
// root frame's context takes. items is aliased, not copied.
func GroupSeq(items []Item) LLSeq {
	return LLSeq{Off: []int32{0, int32(len(items))}, Items: items}
}

// EvalStepBulk applies one compiled step to a context sequence with the
// materialising machinery (the executor's fallback when a final step is not
// order-safe to stream).
func (ev *Evaluator) EvalStepBulk(sp *xqplan.StepPlan, ctx LLSeq, f *Frame) (LLSeq, error) {
	return ev.evalStep(sp, ctx, f)
}

// TreeStepItems applies a tree-axis step to a single context node, returning
// the step's matches for that node in document order. Used by the pipelined
// final-step cursor, which has already established that per-node streaming
// is order-safe (disjoint context subtrees, forward axis, no predicates).
func (ev *Evaluator) TreeStepItems(sp *xqplan.StepPlan, it Item) ([]Item, error) {
	if !it.IsNode() {
		return nil, errf(codeType, "axis step applied to an atomic value")
	}
	res := ev.appendTreeStep(nil, sp, it)
	ev.Stats.RecordStep(sp, 1, int64(len(res)))
	return res, nil
}

// EvalStepTypeError is the error the bulk step raises for an atomic context
// item. The pipelined final-step cursors raise the identical error before
// any streaming starts, so both execution styles fail the same way.
func (ev *Evaluator) EvalStepTypeError() error {
	return errf(codeType, "axis step applied to an atomic value")
}

// SingletonInt coerces a 0/1-item group to an integer, with ok=false on an
// empty group — the `to` range-bound coercion, exported for the executor's
// pipelined range cursor.
func SingletonInt(items []Item) (int64, bool, error) {
	return singletonInt(items)
}

// RangeLimit caps the size of a `to` range. The materialising evaluator
// enforces it because it builds the whole range at once; the pipelined range
// cursor enforces the same limit so streaming and materialised executions
// fail identically.
const RangeLimit = 1 << 24

// ErrRangeTooLarge is the error both executions raise at the RangeLimit.
func ErrRangeTooLarge(lo, hi int64) error {
	return errf(codeType, "range %d to %d is too large", lo, hi)
}

// StandOffStream is the chunked execution handle of a pipelined StandOff
// step: the per-document residue — region index, candidate sequence,
// pushdown post-filter — resolved once. For the two select operators the
// executor runs one loop-lifted join per chunk of context nodes
// (JoinChunkPres) and gates emission on the candidate-interval watermark. For the two reject operators — anti-joins over the whole
// context, where a union of per-chunk complements would be wrong — each
// chunk's select-side join marks matched candidates in a bitset (MarkChunk)
// and the executor complements once at the end, emitting the unmatched
// candidates (Areas, Keep) in document order.
type StandOffStream struct {
	ev         *Evaluator
	sp         *xqplan.StepPlan
	d          *tree.Doc
	ix         *core.RegionIndex
	cand       *core.Candidates
	postFilter bool
	test       xpath.Compiled
	wide       bool

	// Per-stream scratch, recycled across chunks: the context-node rows
	// handed to the join and the pre buffer handed back to the cursor.
	ctxBuf  []core.CtxNode
	outPres []int32
}

// Doc returns the stream's document (the cursor materialises result items
// from pres against it).
func (s *StandOffStream) Doc() *tree.Doc { return s.d }

// NewStandOffStream resolves one StandOff select step against a single
// document for chunked execution. A nil stream with a nil error means the
// step is statically or dynamically empty for this document (the node test
// can never match an area-annotation).
func (ev *Evaluator) NewStandOffStream(sp *xqplan.StepPlan, d *tree.Doc) (*StandOffStream, error) {
	if ev.IndexFor == nil {
		return nil, errf(codeStandOffIndex, "no region index provider configured")
	}
	ix, err := ev.IndexFor(d)
	if err != nil {
		return nil, errf(codeStandOffIndex, "building region index for %q: %v", d.Name, err)
	}
	cand, postFilter := ev.candidatesFor(ix, sp.SO, nil)
	if cand == nil {
		return nil, nil
	}
	s := &StandOffStream{
		ev: ev, sp: sp, d: d, ix: ix, cand: cand, postFilter: postFilter,
		wide: sp.SO.Op == core.SelectWide || sp.SO.Op == core.RejectWide,
	}
	if postFilter {
		s.test = sp.CompiledTest(d)
	}
	return s, nil
}

// CtxStart returns the document-position start of a context node's area (the
// minimum region start — RegionsOf is start-ordered). ok=false means the
// node is not an area-annotation of this stream's document and can never
// produce a match.
func (s *StandOffStream) CtxStart(it Item) (int64, bool) {
	if it.Kind != KNode || it.D != s.d {
		return 0, false
	}
	return s.CtxStartPre(it.Pre)
}

// CtxStartPre is CtxStart for a bare pre rank of the stream's document — the
// composed-cursor path, where upstream stages hand pres across without ever
// materialising items.
func (s *StandOffStream) CtxStartPre(pre int32) (int64, bool) {
	regs := s.ix.RegionsOf(pre)
	if len(regs) == 0 {
		return 0, false
	}
	return regs[0].Start, true
}

// JoinChunkPres runs the step's join over one chunk of context node pres and
// returns the matching candidate pres, sorted and duplicate-free in document
// order. The returned slice is the stream's recycled buffer — valid only
// until the next JoinChunkPres call. One ANALYZE join invocation is recorded
// per chunk — the chunked run truly executes that many merges.
func (s *StandOffStream) JoinChunkPres(chunk []int32) []int32 {
	if cap(s.ctxBuf) < len(chunk) {
		s.ctxBuf = make([]core.CtxNode, len(chunk))
	}
	ctx := s.ctxBuf[:len(chunk)]
	for i, pre := range chunk {
		ctx[i] = core.CtxNode{Iter: 0, Pre: pre}
	}
	pairs := core.Join(s.ix, s.sp.SO.Op, s.ev.Strategy, ctx, 1, s.cand, s.ev.JoinCfg)
	s.ev.countJoin(s.ev.Strategy)
	s.ev.Stats.RecordJoin(s.sp, s.ix, int64(s.cand.Len()), s.ev.Strategy)
	out := s.outPres[:0]
	if cap(out) < len(pairs) {
		out = make([]int32, 0, len(pairs))
	}
	for _, pr := range pairs {
		if s.postFilter && !s.test.Matches(s.d, pr.Pre) {
			continue
		}
		out = append(out, pr.Pre)
	}
	s.outPres = out
	return out
}

// Areas returns the candidate area pres in document order — the universe a
// reject stream complements over.
func (s *StandOffStream) Areas() []int32 { return s.cand.AreaPres() }

// Keep applies the step's node test to a candidate pre when the test was not
// pushed down into the candidate sequence. The bulk reject applies the same
// post-filter after its complement, so the chunked complement must too.
func (s *StandOffStream) Keep(pre int32) bool {
	return !s.postFilter || s.test.Matches(s.d, pre)
}

// MarkChunk runs the step's select-side join over one chunk of context node
// pres and marks the matched candidate positions in bits, returning how many
// were newly marked. The select-side matches of a context union are the
// union of per-chunk matches (semi-joins distribute over the context), so
// after the last chunk the unmarked candidates are exactly the bulk
// anti-join's complement. One ANALYZE join invocation is recorded per chunk.
func (s *StandOffStream) MarkChunk(chunk []int32, bits *core.MatchBits) int {
	if cap(s.ctxBuf) < len(chunk) {
		s.ctxBuf = make([]core.CtxNode, len(chunk))
	}
	ctx := s.ctxBuf[:len(chunk)]
	for i, pre := range chunk {
		ctx[i] = core.CtxNode{Iter: 0, Pre: pre}
	}
	op := core.SelectNarrow
	if s.wide {
		op = core.SelectWide
	}
	pairs := core.Join(s.ix, op, s.ev.Strategy, ctx, 1, s.cand, s.ev.JoinCfg)
	s.ev.countJoin(s.ev.Strategy)
	s.ev.Stats.RecordJoin(s.sp, s.ix, int64(s.cand.Len()), s.ev.Strategy)
	return core.MarkMatched(bits, s.cand.AreaPres(), pairs)
}

// MatchBits borrows a zeroed candidate bitmap from the evaluator's join
// arena (plain allocation without one); hand it back with ReleaseMatchBits.
func (ev *Evaluator) MatchBits(n int) *core.MatchBits {
	return ev.JoinCfg.Arena.GetMatchBits(n)
}

// ReleaseMatchBits parks a bitmap's storage back in the join arena.
func (ev *Evaluator) ReleaseMatchBits(b *core.MatchBits) {
	ev.JoinCfg.Arena.PutMatchBits(b)
}

// Watermark returns the exclusive emission bound once every unprocessed
// context area starts at or after frontier: candidate pres below the bound
// cannot be produced by any remaining chunk and are final. ok=false means no
// remaining candidate can match at all — everything pending is final and the
// remaining chunks need not run.
func (s *StandOffStream) Watermark(frontier int64) (int32, bool) {
	if s.wide {
		return s.cand.MinPreEndFrom(frontier)
	}
	return s.cand.MinPreStartFrom(frontier)
}

// AttachArena equips the evaluator with a pooled join arena for one
// execution run; a no-op when one is already attached. The owner of the run
// must call DetachArena when the run's cursor closes.
func (ev *Evaluator) AttachArena() {
	if ev.JoinCfg.Arena == nil {
		ev.JoinCfg.Arena = core.AcquireJoinArena()
	}
}

// DetachArena releases the attached arena (and every buffer on loan from
// it) back to the pool. Safe to call repeatedly.
func (ev *Evaluator) DetachArena() {
	if a := ev.JoinCfg.Arena; a != nil {
		ev.JoinCfg.Arena = nil
		a.Release()
	}
}
