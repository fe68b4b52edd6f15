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

// PathPrefix evaluates a path's starting context and the first n steps of
// its compiled program, returning the context sequence step n consumes (the
// path's result when n is the program's length).
func (ev *Evaluator) PathPrefix(p *xqast.Path, f *Frame, n int) (LLSeq, error) {
	cur, err := ev.pathStart(p, f)
	if err != nil {
		return LLSeq{}, err
	}
	for _, sp := range ev.Plan.Program(p)[:n] {
		if cur, err = ev.evalStep(sp, cur, f); err != nil {
			return LLSeq{}, err
		}
	}
	return cur, nil
}

// GroupSeq wraps a flat item slice as a single-group sequence — the shape a
// root frame's context takes. items is aliased, not copied.
func GroupSeq(items []Item) LLSeq {
	return LLSeq{Off: []int32{0, int32(len(items))}, Items: items}
}

// EvalStepBulk applies one compiled step to a context sequence with the
// materialising machinery (every step a pipelined path does not chunk).
func (ev *Evaluator) EvalStepBulk(sp *xqplan.StepPlan, ctx LLSeq, f *Frame) (LLSeq, error) {
	return ev.evalStep(sp, ctx, f)
}

// AnalyzeSkippedStep records, under ANALYZE, what the bulk tree step sp
// records over the one context node it did not run on, because the
// pipeline read its result from the region index instead: one row in, and
// the nodes its axis emits both out and produced. It returns that count, and
// computes nothing without a collector.
func (ev *Evaluator) AnalyzeSkippedStep(sp *xqplan.StepPlan, it Item) int64 {
	if ev.Stats == nil {
		return 0
	}
	ev.stepPres = xpath.AppendCompiledStep(ev.stepPres[:0], it.D, sp.Axis, sp.CompiledTest(it.D), it.Pre)
	n := int64(len(ev.stepPres))
	ev.Stats.RecordStep(sp, 1, n)
	ev.Stats.RecordProduced(sp, n)
	return n
}

// StandOffStream is the chunked execution handle of a pipelined StandOff
// select step: the per-document residue — region index, candidate sequence,
// pushdown post-filter — resolved once. The executor runs one loop-lifted
// join per chunk of context areas (JoinChunk) and gates emission on the
// candidate-interval watermark.
type StandOffStream struct {
	ev   *Evaluator
	sp   *xqplan.StepPlan
	d    *tree.Doc
	ix   *core.RegionIndex
	cand *core.Candidates
	keep func(int32) bool // the post-filter node test, nil when the candidates apply it
	wide bool

	// The pre buffer handed back to the cursor, recycled across chunks.
	outPres []int32
}

// Doc returns the stream's document (the cursor materialises result items
// from pres against it).
func (s *StandOffStream) Doc() *tree.Doc { return s.d }

// NewStandOffStream resolves one StandOff select step against a single tree,
// the one of d headed by document node root, for chunked execution. A nil
// stream with a nil error means the step is statically or dynamically empty
// for this tree (the node test can never match an area-annotation).
func (ev *Evaluator) NewStandOffStream(sp *xqplan.StepPlan, d *tree.Doc, root int32) (*StandOffStream, error) {
	if ev.IndexFor == nil {
		return nil, errf(codeStandOffIndex, "no region index provider configured")
	}
	ix, cand, keep, err := ev.resolveJoin(sp, d, root, nil)
	if cand == nil {
		return nil, err
	}
	return &StandOffStream{ev: ev, sp: sp, d: d, ix: ix, cand: cand, keep: keep,
		wide: sp.SO.Op == core.SelectWide}, nil
}

// ContextAreas returns the areas among the context nodes pres of the
// stream's tree as the start-sorted context table its chunk joins read:
// each node's regions are looked up here, once.
func (s *StandOffStream) ContextAreas(pres []int32) core.Areas {
	return s.ix.ContextAreas(pres, nil, nil)
}

// NameAreas returns the context table of a predicate-free descendant::N
// step from the stream's document node, N's name id being nameID: the
// region index's by-name view of N, the one candidatesFor reads for a
// by-name step, cut to the tree. The tree step does not run; its elements
// without regions, which could never match, are not in the view.
func (s *StandOffStream) NameAreas(nameID int32) core.Areas {
	return s.ix.Within(s.ix.FilterByName(nameID), 0, s.d.Size(0)).Areas()
}

// JoinChunk runs the step's join over one chunk of context areas and returns
// the matching candidate pres, each once, in no set order (the Loop-Lifted
// join's match step, core.MatchAreas, does not sort; the Basic and naive
// joins of core.JoinAreas come sorted). The returned
// slice is the stream's recycled buffer — valid only until the next JoinChunk
// call. One ANALYZE join invocation is recorded per chunk — the chunked run
// truly executes that many merges.
func (s *StandOffStream) JoinChunk(chunk core.Areas) []int32 {
	var pairs []core.Pair
	if s.ev.Strategy == core.StrategyLoopLifted {
		pairs = core.MatchAreas(s.ix, s.sp.SO.Op, chunk, s.cand, s.ev.JoinCfg)
	} else {
		pairs = core.JoinAreas(s.ix, s.sp.SO.Op, s.ev.Strategy, chunk, 1, s.cand, s.ev.JoinCfg)
	}
	s.ev.countJoin(s.ev.Strategy)
	s.ev.Stats.RecordJoin(s.sp, s.ix, int64(s.cand.Len()), s.ev.Strategy)
	s.ev.Stats.RecordProduced(s.sp, int64(len(pairs)))
	out := s.outPres[:0]
	if cap(out) < len(pairs) {
		out = make([]int32, 0, len(pairs))
	}
	for _, pr := range pairs {
		if s.keep != nil && !s.keep(pr.Pre) {
			continue
		}
		out = append(out, pr.Pre)
	}
	s.outPres = out
	return out
}

// MinPre returns the smallest pre the stream can produce: its candidate
// view's first area (0 for an empty view).
func (s *StandOffStream) MinPre() int32 {
	if areas := s.cand.AreaPres(); len(areas) > 0 {
		return areas[0]
	}
	return 0
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

// Attach equips the evaluator with the pooled arenas of one execution run:
// the join arena and the seq arena (seqarena.go), each kept when one is
// already attached. The owner of the run must call Detach when the run's
// cursor closes.
func (ev *Evaluator) Attach() {
	if ev.JoinCfg.Arena == nil {
		ev.JoinCfg.Arena = core.AcquireJoinArena()
	}
	if ev.seqs == nil {
		ev.seqs = seqArenaPool.Get().(*seqArena)
	}
}

// Detach releases the attached arenas, and every buffer on loan from them,
// back to their pools, dropping any document references the recycled
// buffers still hold. Safe to call repeatedly.
func (ev *Evaluator) Detach() {
	if a := ev.JoinCfg.Arena; a != nil {
		ev.JoinCfg.Arena = nil
		a.Release()
	}
	if a := ev.seqs; a != nil {
		ev.seqs = nil
		a.release()
	}
}
