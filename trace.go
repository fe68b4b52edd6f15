package soxq

import (
	"time"

	"soxq/internal/obs"
	"soxq/internal/xqplan"
)

// QueryTrace is the recorded lifecycle of one traced execution
// (Config.Trace): a span tree of the pipeline phases — parse, compile,
// execution — with per-operator row, candidate, join and chunk counts taken
// from the same collector EXPLAIN ANALYZE uses.
//
// Two renderings exist: String() is fully deterministic (span structure and
// counts only — what golden tests pin), Render(true) appends the measured
// durations and wall-clock start (what the ops endpoints and soxq
// -trace-durations show).
type QueryTrace struct {
	tr *obs.QueryTrace
}

// String renders the deterministic form of the trace.
func (t *QueryTrace) String() string { return t.Render(false) }

// Render renders the trace; live=true includes durations and timestamps.
func (t *QueryTrace) Render(live bool) string {
	if t == nil || t.tr == nil {
		return ""
	}
	return t.tr.Render(live)
}

// Mode returns the execution mode of the traced run ("exec", "stream",
// "analyze").
func (t *QueryTrace) Mode() string {
	if t == nil || t.tr == nil {
		return ""
	}
	return t.tr.Mode
}

// Duration returns the traced run's end-to-end latency.
func (t *QueryTrace) Duration() time.Duration {
	if t == nil || t.tr == nil {
		return 0
	}
	return time.Duration(t.tr.Nanos)
}

// TraceLast returns the most recent traced execution of this prepared
// statement (nil before the first run with Config.Trace). Concurrent traced
// runs race benignly: the last to finish wins.
func (p *Prepared) TraceLast() *QueryTrace {
	tr := p.lastTrace.Load()
	if tr == nil {
		return nil
	}
	return &QueryTrace{tr: tr}
}

// buildTrace assembles the span tree of one traced run from the compile
// timings stored on the Prepared and the run's ExecStats — the trace
// piggybacks on the EXPLAIN ANALYZE collector rather than adding
// instrumentation points, so its counts agree with Analyze's by
// construction.
func (p *Prepared) buildTrace(mode string, start time.Time, nanos int64, st *xqplan.ExecStats) *obs.QueryTrace {
	pe := p.plan.ExplainWith(st)
	root := &obs.Span{Name: "query"}

	parse := root.Child("parse")
	parse.Nanos = p.parseNanos
	compile := root.Child("compile")
	compile.Nanos = p.compileNanos
	if p.compileNanos == 0 {
		compile.Attr("cached", "true")
	}

	exec := root.Child("execute")
	exec.Nanos = nanos - p.compileNanos
	for _, n := range pe.Plan {
		spanFromOp(exec, n)
	}

	return &obs.QueryTrace{Query: p.src, Mode: mode, Start: start, Nanos: nanos, Root: root}
}

// spanFromOp converts one explain operator node into a trace span under
// parent: the span is named after the operator's Name (its line without the
// standoff{} decisions and observed counters), and the observed counters
// attach as explicit span attributes.
func spanFromOp(parent *obs.Span, n *OpNode) {
	s := parent.Child(n.Name)
	if o := n.Obs; o != nil {
		s.AttrInt("in", o.RowsIn)
		s.AttrInt("out", o.RowsOut)
		if n.Step != nil && n.Step.StandOff {
			s.AttrInt("cand", o.Candidates)
			if o.Joins != "" {
				s.Attr("joins", o.Joins)
			}
		}
		if o.Chunks > 0 {
			s.AttrInt("chunks", o.Chunks)
		}
	}
	for _, ch := range n.Children {
		spanFromOp(s, ch)
	}
}
