package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SlowQuery is one slow-query log entry: a query whose end-to-end latency
// crossed the configured threshold, together with the plan the engine can
// attach (the EXPLAIN ANALYZE operator tree when execution collected
// counters, plain EXPLAIN otherwise) and a one-line trace summary.
type SlowQuery struct {
	Query string
	Mode  string
	Start time.Time
	Nanos int64
	// Plan is the rendered operator tree of the query.
	Plan string
	// Trace is the trace-span summary ("" when tracing was off for the
	// run).
	Trace string
}

// String renders the entry as a single structured log line (key=value
// pairs, plan and trace flattened), the default form the pluggable callback
// receives.
func (q SlowQuery) String() string {
	return fmt.Sprintf("slow-query mode=%s dur=%s query=%q plan=%q trace=%q",
		q.Mode, time.Duration(q.Nanos), q.Query, q.Plan, q.Trace)
}

// DefaultSlowLogSize bounds the retained slow-query entries.
const DefaultSlowLogSize = 64

// SlowLog retains queries slower than a configurable threshold in a bounded
// ring and forwards each entry to a pluggable callback (a structured logger,
// a test hook). The zero threshold disables the log entirely — Observe
// becomes two atomic loads — so the always-on engine pays nothing until an
// operator turns it on. Safe for concurrent use; a nil SlowLog no-ops.
type SlowLog struct {
	threshold atomic.Int64 // nanoseconds; 0 = disabled
	fn        atomic.Value // func(SlowQuery); may be unset

	mu   sync.Mutex
	buf  []SlowQuery
	next int
	n    int
}

// NewSlowLog returns a log retaining up to size entries (size <= 0 uses
// DefaultSlowLogSize), disabled until SetThreshold.
func NewSlowLog(size int) *SlowLog {
	if size <= 0 {
		size = DefaultSlowLogSize
	}
	return &SlowLog{buf: make([]SlowQuery, size)}
}

// SetThreshold sets the latency above which queries are logged; 0 disables.
func (l *SlowLog) SetThreshold(d time.Duration) {
	if l != nil {
		l.threshold.Store(int64(d))
	}
}

// SetLogger installs the callback each logged entry is forwarded to
// synchronously (keep it fast or hand off to a channel). nil removes it;
// the ring keeps retaining either way.
func (l *SlowLog) SetLogger(fn func(SlowQuery)) {
	if l == nil {
		return
	}
	l.fn.Store(loggerBox{fn})
}

// loggerBox wraps the callback so atomic.Value accepts a nil function
// (stored values must share one concrete type).
type loggerBox struct{ fn func(SlowQuery) }

// Exceeds reports whether a run of the given duration should be logged —
// the cheap pre-check callers use before building the (allocation-heavy)
// plan rendering an entry carries.
func (l *SlowLog) Exceeds(nanos int64) bool {
	if l == nil {
		return false
	}
	t := l.threshold.Load()
	return t > 0 && nanos >= t
}

// Observe records one entry (the caller has already checked Exceeds) and
// forwards it to the callback.
func (l *SlowLog) Observe(q SlowQuery) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.buf[l.next] = q
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
	if box, ok := l.fn.Load().(loggerBox); ok && box.fn != nil {
		box.fn(q)
	}
}

// Snapshot returns the retained entries, oldest first.
func (l *SlowLog) Snapshot() []SlowQuery {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, 0, l.n)
	start := l.next - l.n
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(start+i+len(l.buf))%len(l.buf)])
	}
	return out
}

// RenderEntries renders slow-query entries for /debug/queries: one block
// per entry, durations only when live.
func RenderEntries(entries []SlowQuery, live bool) string {
	var sb strings.Builder
	for _, q := range entries {
		fmt.Fprintf(&sb, "slow-query mode=%s query=%q\n", q.Mode, q.Query)
		if live {
			fmt.Fprintf(&sb, "  start=%s dur=%s\n", q.Start.Format(time.RFC3339Nano), time.Duration(q.Nanos))
		}
		for _, line := range strings.Split(strings.TrimRight(q.Plan, "\n"), "\n") {
			sb.WriteString("  " + line + "\n")
		}
	}
	return sb.String()
}
