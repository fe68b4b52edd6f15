package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Attr is one key=value annotation on a trace span (row counts, chunk
// counts, join algorithms — never durations; durations live in Span.Nanos so
// renderings can include or omit them as one decision).
type Attr struct {
	Key string
	Val string
}

// Span is one node of a query-lifecycle trace: a pipeline phase (parse,
// compile, execute) or one operator of the executed plan. Attrs carry the
// deterministic annotations (counts, structure); Nanos carries the measured
// duration, zero when the phase was not timed (e.g. compile served from the
// plan cache).
type Span struct {
	Name     string
	Attrs    []Attr
	Nanos    int64
	Children []*Span
}

// Attr appends one annotation.
func (s *Span) Attr(key, val string) *Span {
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
	return s
}

// AttrInt appends one integer annotation.
func (s *Span) AttrInt(key string, val int64) *Span {
	return s.Attr(key, fmt.Sprintf("%d", val))
}

// Child appends (and returns) a child span.
func (s *Span) Child(name string) *Span {
	c := &Span{Name: name}
	s.Children = append(s.Children, c)
	return c
}

// QueryTrace is the recorded lifecycle of one query execution: the query
// text, the execution mode, the wall-clock start, the end-to-end duration
// and the span tree.
type QueryTrace struct {
	Query string
	Mode  string
	Start time.Time
	Nanos int64
	Root  *Span
}

// Render writes the trace as an indented span tree. With live=false the
// output is fully deterministic — span structure and count attributes only —
// which is what golden tests pin; live=true appends the measured durations
// and the wall-clock start, the form the ops endpoints serve.
func (t *QueryTrace) Render(live bool) string {
	if t == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %s\n", t.Query)
	fmt.Fprintf(&sb, "mode: %s\n", t.Mode)
	if live {
		fmt.Fprintf(&sb, "start: %s\n", t.Start.Format(time.RFC3339Nano))
		fmt.Fprintf(&sb, "total: %s\n", time.Duration(t.Nanos))
	}
	if t.Root != nil {
		for _, ch := range t.Root.Children {
			renderSpan(&sb, ch, 1, live)
		}
	}
	return sb.String()
}

func renderSpan(sb *strings.Builder, s *Span, depth int, live bool) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(s.Name)
	for _, a := range s.Attrs {
		fmt.Fprintf(sb, " %s=%s", a.Key, a.Val)
	}
	if live && s.Nanos > 0 {
		fmt.Fprintf(sb, " [%s]", time.Duration(s.Nanos))
	}
	sb.WriteByte('\n')
	for _, ch := range s.Children {
		renderSpan(sb, ch, depth+1, live)
	}
}

// DefaultTraceRingSize bounds the engine's retained traces.
const DefaultTraceRingSize = 64

// TraceRing is a bounded ring buffer of recent query traces: adding beyond
// the capacity overwrites the oldest entry, so a long-running engine retains
// the newest window at fixed memory. Safe for concurrent use; a nil ring
// discards adds.
type TraceRing struct {
	mu   sync.Mutex
	buf  []*QueryTrace
	next int
	n    int
}

// NewTraceRing returns a ring retaining up to size traces (size <= 0 uses
// DefaultTraceRingSize).
func NewTraceRing(size int) *TraceRing {
	if size <= 0 {
		size = DefaultTraceRingSize
	}
	return &TraceRing{buf: make([]*QueryTrace, size)}
}

// Add records one trace, evicting the oldest when full.
func (r *TraceRing) Add(t *QueryTrace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len returns how many traces are retained.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Snapshot returns the retained traces, oldest first.
func (r *TraceRing) Snapshot() []*QueryTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*QueryTrace, 0, r.n)
	start := r.next - r.n
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i+len(r.buf))%len(r.buf)])
	}
	return out
}
