package soxq

import (
	"io"
	"net/http"
	"time"

	"soxq/internal/obs"
)

// OpsHandler returns the engine's operational HTTP surface, ready to mount
// on any mux or serve standalone:
//
//	/metrics       the metrics registry in Prometheus text format
//	/debug/vars    the same registry as expvar-style JSON
//	/debug/queries recent traces and slow queries (?live=0 for the
//	               deterministic rendering golden tests pin)
//
// The handler is stateless and spawns no goroutines; everything it serves
// renders at request time from the registry, the trace ring and the
// slow-query log.
func (e *Engine) OpsHandler() http.Handler {
	t := e.tel
	if t == nil {
		return http.NotFoundHandler()
	}
	return obs.Handler(t.reg, t.ring, t.slow)
}

// WriteMetrics writes the engine's metrics registry to w in Prometheus text
// exposition format — what OpsHandler serves at /metrics, available without
// an HTTP listener.
func (e *Engine) WriteMetrics(w io.Writer) error {
	t := e.tel
	if t == nil {
		return nil
	}
	return t.reg.WritePrometheus(w)
}

// SlowQuery is one slow-query log entry: a query whose end-to-end latency
// exceeded the configured threshold, captured with its EXPLAIN (ANALYZE when
// the run was traced) operator tree and, for traced runs, the deterministic
// trace rendering.
type SlowQuery struct {
	// Query is the query source text.
	Query string
	// Mode is the execution mode ("exec", "stream", "analyze").
	Mode string
	// Start is when the execution began.
	Start time.Time
	// Duration is the end-to-end latency that tripped the threshold.
	Duration time.Duration
	// Plan is the rendered operator tree.
	Plan string
	// Trace is the deterministic trace rendering (empty when the run was
	// not traced).
	Trace string
}

// SetSlowQueryThreshold sets the latency above which an execution is
// recorded in the slow-query log (and emitted through the logger callback,
// if set). Zero or negative disables slow-query capture — the default.
func (e *Engine) SetSlowQueryThreshold(d time.Duration) {
	if t := e.tel; t != nil {
		t.slow.SetThreshold(d)
	}
}

// SetSlowQueryLogger installs fn as the slow-query sink: it is called
// synchronously, once per slow query, from the goroutine that finished the
// execution — keep it cheap or hand off. A nil fn removes the sink; the
// in-memory ring (see SlowQueries) records entries either way.
func (e *Engine) SetSlowQueryLogger(fn func(SlowQuery)) {
	t := e.tel
	if t == nil {
		return
	}
	if fn == nil {
		t.slow.SetLogger(nil)
		return
	}
	t.slow.SetLogger(func(q obs.SlowQuery) { fn(publicSlowQuery(q)) })
}

// SlowQueries returns the retained slow-query log entries, oldest first.
func (e *Engine) SlowQueries() []SlowQuery {
	t := e.tel
	if t == nil {
		return nil
	}
	entries := t.slow.Snapshot()
	out := make([]SlowQuery, len(entries))
	for i, q := range entries {
		out[i] = publicSlowQuery(q)
	}
	return out
}

// RecentTraces returns the traces retained in the engine's trace ring,
// oldest first. The ring holds the last 64 traced executions engine-wide;
// per-statement access is Prepared.TraceLast.
func (e *Engine) RecentTraces() []*QueryTrace {
	t := e.tel
	if t == nil {
		return nil
	}
	raw := t.ring.Snapshot()
	out := make([]*QueryTrace, len(raw))
	for i, tr := range raw {
		out[i] = &QueryTrace{tr: tr}
	}
	return out
}

func publicSlowQuery(q obs.SlowQuery) SlowQuery {
	return SlowQuery{
		Query:    q.Query,
		Mode:     q.Mode,
		Start:    q.Start,
		Duration: time.Duration(q.Nanos),
		Plan:     q.Plan,
		Trace:    q.Trace,
	}
}
