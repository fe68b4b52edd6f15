package xqplan

import (
	"fmt"
	"sort"
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
	steps map[*StepPlan]*StepObs
	ops   map[xqast.Expr]*OpObs
}

// NewExecStats returns an empty collector for one execution.
func NewExecStats() *ExecStats {
	return &ExecStats{steps: map[*StepPlan]*StepObs{}, ops: map[xqast.Expr]*OpObs{}}
}

// StepObs aggregates the observed counters of one compiled step across its
// invocations within a single execution (a step inside a nested loop body
// is invoked once per outer evaluation; counts accumulate).
type StepObs struct {
	// Invocations is how many times the step executed.
	Invocations int64
	// RowsIn is the total context rows fed to the step (iterations ×
	// context nodes).
	RowsIn int64
	// RowsOut is the total result rows the step produced, after
	// predicates and per-iteration dedup.
	RowsOut int64
	// Candidates is the total candidate-area cardinality the step's
	// StandOff joins consumed (one candidate-sequence length per join
	// invocation; zero for tree-axis steps).
	Candidates int64
	// Joins counts StandOff join invocations per algorithm actually run.
	Joins map[core.Strategy]int64
	// DeltaIns and DeltaDead are the annotation write-path delta sizes of
	// the region indexes the step's joins ran on (the largest seen; both
	// zero for a compacted or fresh index): the candidates streamed through
	// the LSM-style delta merge rather than a plain base scan.
	DeltaIns  int
	DeltaDead int
	// StreamChunks, ChunkMin and ChunkMax describe a chunk-streamed run of
	// the step: how many chunk joins executed and the smallest/largest chunk
	// actually joined (zero when the step ran in bulk).
	StreamChunks int64
	ChunkMin     int
	ChunkMax     int
}

// OpObs aggregates the observed counters of one structural operator (FLWOR,
// path, filter) within a single execution.
type OpObs struct {
	// Invocations is how many times the operator was evaluated.
	Invocations int64
	// RowsIn is operator-specific: FLWOR tuples after clause expansion
	// (before where), filter input rows. Zero for paths.
	RowsIn int64
	// RowsOut is the total result items produced.
	RowsOut int64
	// Chunks is how many pipeline chunks a streamed FLWOR evaluated; zero
	// when the operator ran through the materialising path.
	Chunks int64
}

// RecordStep accumulates one step invocation's row counts.
func (s *ExecStats) RecordStep(sp *StepPlan, rowsIn, rowsOut int64) {
	if s == nil {
		return
	}
	o := s.steps[sp]
	if o == nil {
		o = &StepObs{}
		s.steps[sp] = o
	}
	o.Invocations++
	o.RowsIn += rowsIn
	o.RowsOut += rowsOut
}

// RecordJoin accumulates one StandOff join invocation: the candidate
// cardinality it scanned, the algorithm that actually ran, and the delta
// sizes of the region index it ran on.
func (s *ExecStats) RecordJoin(sp *StepPlan, ix *core.RegionIndex, candidates int64, strat core.Strategy) {
	if s == nil {
		return
	}
	ins, del := ix.DeltaStats()
	o := s.steps[sp]
	if o == nil {
		o = &StepObs{}
		s.steps[sp] = o
	}
	o.Candidates += candidates
	if o.Joins == nil {
		o.Joins = map[core.Strategy]int64{}
	}
	o.Joins[strat]++
	o.DeltaIns = max(o.DeltaIns, ins)
	o.DeltaDead = max(o.DeltaDead, del)
}

// RecordStepStream accumulates the chunk counters of one chunk-streamed run
// of a step: chunk joins executed and the smallest/largest chunk joined.
func (s *ExecStats) RecordStepStream(sp *StepPlan, chunks int64, chunkMin, chunkMax int) {
	if s == nil || chunks == 0 {
		return
	}
	o := s.steps[sp]
	if o == nil {
		o = &StepObs{}
		s.steps[sp] = o
	}
	o.StreamChunks += chunks
	if o.ChunkMin == 0 || (chunkMin > 0 && chunkMin < o.ChunkMin) {
		o.ChunkMin = chunkMin
	}
	if chunkMax > o.ChunkMax {
		o.ChunkMax = chunkMax
	}
}

// RecordOp accumulates one evaluation of a structural operator.
func (s *ExecStats) RecordOp(e xqast.Expr, rowsIn, rowsOut int64) {
	if s == nil {
		return
	}
	o := s.op(e)
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
	o := s.op(e)
	o.Chunks++
	o.RowsIn += tuples
	o.RowsOut += rowsOut
}

// op returns (creating if needed) the operator entry.
func (s *ExecStats) op(e xqast.Expr) *OpObs {
	o := s.ops[e]
	if o == nil {
		o = &OpObs{}
		s.ops[e] = o
	}
	return o
}

// StepObs returns a copy of the step's observed counters (ok=false when the
// step never executed under this collector).
func (s *ExecStats) StepObs(sp *StepPlan) (StepObs, bool) {
	if s == nil {
		return StepObs{}, false
	}
	o := s.steps[sp]
	if o == nil {
		return StepObs{}, false
	}
	out := *o
	if o.Joins != nil {
		out.Joins = make(map[core.Strategy]int64, len(o.Joins))
		for k, v := range o.Joins {
			out.Joins[k] = v
		}
	}
	return out, true
}

// JoinsString renders the observed join algorithms as "name:count" pairs in
// ascending strategy order, e.g. "basic:1" or "basic:1,looplifted:3" — the
// single source for both the internal plan labels and the public explain.
func (o *StepObs) JoinsString() string {
	if len(o.Joins) == 0 {
		return ""
	}
	strats := make([]core.Strategy, 0, len(o.Joins))
	for k := range o.Joins {
		strats = append(strats, k)
	}
	sort.Slice(strats, func(i, j int) bool { return strats[i] < strats[j] })
	parts := make([]string, len(strats))
	for i, k := range strats {
		parts[i] = fmt.Sprintf("%s:%d", k, o.Joins[k])
	}
	return strings.Join(parts, ",")
}

// OpObs returns a copy of a structural operator's observed counters
// (ok=false when the operator never executed under this collector).
func (s *ExecStats) OpObs(e xqast.Expr) (OpObs, bool) {
	if s == nil {
		return OpObs{}, false
	}
	o := s.ops[e]
	if o == nil {
		return OpObs{}, false
	}
	return *o, true
}
