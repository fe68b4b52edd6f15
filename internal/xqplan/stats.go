package xqplan

import (
	"fmt"
	"strings"

	"soxq/internal/core"
	"soxq/internal/xqast"
)

// ExecStats collects the per-operator runtime counters behind EXPLAIN
// ANALYZE: rows in and out per compiled step, candidates scanned and join
// algorithm actually run per StandOff join, tuple/chunk counts per FLWOR,
// and row counts for the structural operators (paths, filters). One
// ExecStats describes ONE execution — the engine creates a fresh collector
// per analyzed run and hands it to the evaluator; the plan itself stays
// immutable and shareable.
//
// All record methods are safe on a nil receiver (a no-op), so the hot paths
// carry a single nil check per operator. Like the execution it describes, a
// collector is used from one goroutine at a time.
type ExecStats struct {
	// ops maps a *StepPlan or a structural xqast.Expr to its counters.
	ops map[any]*Obs
}

// NewExecStats returns an empty collector for one execution.
func NewExecStats() *ExecStats {
	return &ExecStats{ops: map[any]*Obs{}}
}

// Obs aggregates the observed counters of one operator — a compiled step or
// a structural operator (FLWOR, path, filter) — across its invocations
// within a single execution (a step inside a nested loop body is invoked
// once per outer evaluation; counts accumulate). Every counter but Produced
// is rendered in the operator's plan label.
type Obs struct {
	// Invocations is how many times the operator executed.
	Invocations int64
	// RowsIn and RowsOut are operator-specific row totals: context rows in
	// (iterations × context nodes) and result rows out after predicates and
	// per-iteration dedup for steps, tuples bound (before where) and items
	// out for FLWORs, input and kept rows for filters; a path's RowsIn is
	// zero.
	RowsIn  int64
	RowsOut int64
	// Produced is what a step generated before anything cut it down: the
	// rows a tree axis emitted before predicates and before the
	// per-iteration merge, the pairs a StandOff join returned (summed per
	// chunk when streamed), RowsOut for a step its join reduced. Steps only;
	// not rendered.
	Produced int64
	// Candidates is the candidate-area cardinality the step's StandOff joins
	// scanned: |cand| per iteration under Basic and the naive join, |cand|
	// per call under Loop-Lifted (zero for tree-axis steps).
	Candidates int64
	// Chunks is how many pipeline chunks the operator evaluated: streamed
	// FLWOR chunks, or the chunk joins of a chunk-streamed StandOff step
	// (zero for materialised evaluation).
	Chunks int64
	// Joins renders the StandOff join invocations per algorithm actually
	// run, "name:count" in ascending strategy order, e.g. "basic:1" or
	// "basic:1,looplifted:3" (empty for tree axes and structural operators).
	Joins string
	// DeltaIns and DeltaDead are the annotation write-path delta sizes of
	// the region indexes the step's joins ran on (the largest seen; both
	// zero for a compacted or fresh index): the candidates streamed through
	// the LSM-style delta merge rather than a plain base scan.
	DeltaIns  int
	DeltaDead int
	// ChunkMin and ChunkMax are the smallest and largest chunk a
	// chunk-streamed step actually joined.
	ChunkMin int
	ChunkMax int
	// PendingMax is the peak number of pres the stream held back, waiting
	// for the watermark (zero when every chunk's output was final on
	// arrival).
	PendingMax int

	joins [core.StrategyLoopLifted + 1]int64 // join invocations per core.Strategy
}

// of returns (creating if needed) the counters of key's operator.
func (s *ExecStats) of(key any) *Obs {
	o := s.ops[key]
	if o == nil {
		o = &Obs{}
		s.ops[key] = o
	}
	return o
}

// obs returns a copy of key's counters with Joins rendered, or nil when the
// operator never executed under this collector.
func (s *ExecStats) obs(key any) *Obs {
	if s == nil || s.ops[key] == nil {
		return nil
	}
	o := *s.ops[key]
	var parts []string
	for strat, n := range o.joins {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", core.Strategy(strat), n))
		}
	}
	o.Joins = strings.Join(parts, ",")
	return &o
}

// RecordStep accumulates one step invocation's row counts.
func (s *ExecStats) RecordStep(sp *StepPlan, rowsIn, rowsOut int64) {
	if s == nil {
		return
	}
	o := s.of(sp)
	o.Invocations++
	o.RowsIn += rowsIn
	o.RowsOut += rowsOut
}

// RecordProduced accumulates rows a step generated before predicates and
// dedup cut them down (Obs.Produced).
func (s *ExecStats) RecordProduced(sp *StepPlan, rows int64) {
	if s == nil {
		return
	}
	s.of(sp).Produced += rows
}

// RecordJoin accumulates one StandOff join invocation: the candidates it
// scanned, the algorithm that actually ran, and the delta sizes of the region
// index it ran on.
func (s *ExecStats) RecordJoin(sp *StepPlan, ix *core.RegionIndex, candidates int64, strat core.Strategy) {
	if s == nil {
		return
	}
	ins, del := ix.DeltaStats()
	o := s.of(sp)
	o.Candidates += candidates
	o.joins[strat]++
	o.DeltaIns = max(o.DeltaIns, ins)
	o.DeltaDead = max(o.DeltaDead, del)
}

// RecordStepStream accumulates the chunk counters of one chunk-streamed run
// of a step: chunk joins executed, the smallest/largest chunk joined, and
// the peak number of pres it held pending.
func (s *ExecStats) RecordStepStream(sp *StepPlan, chunks int64, chunkMin, chunkMax, pending int) {
	if s == nil || chunks == 0 {
		return
	}
	o := s.of(sp)
	o.Chunks += chunks
	if o.ChunkMin == 0 || (chunkMin > 0 && chunkMin < o.ChunkMin) {
		o.ChunkMin = chunkMin
	}
	o.ChunkMax = max(o.ChunkMax, chunkMax)
	o.PendingMax = max(o.PendingMax, pending)
}

// RecordOp accumulates one evaluation of a structural operator.
func (s *ExecStats) RecordOp(e xqast.Expr, rowsIn, rowsOut int64) {
	if s == nil {
		return
	}
	o := s.of(e)
	o.Invocations++
	o.RowsIn += rowsIn
	o.RowsOut += rowsOut
}

// RecordChunk accumulates one streamed FLWOR chunk: the tuples it bound and
// the items it produced. Chunked evaluations count rows here instead of
// RecordOp, so streamed and materialised totals stay comparable.
func (s *ExecStats) RecordChunk(e xqast.Expr, tuples, rowsOut int64) {
	if s == nil {
		return
	}
	o := s.of(e)
	o.Chunks++
	o.RowsIn += tuples
	o.RowsOut += rowsOut
}
