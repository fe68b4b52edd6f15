package main

import (
	"sort"
	"time"
)

// span is one timed call from the harness into a layer's public function.
// Start and End are nanoseconds since the tracer was created; Parent is the
// index of the enclosing span (-1 at top level); Op identifies the workload
// operation the span belongs to (-1 for set-up and layer probes).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; the caller writes them out at exit. A nil
// tracer, or one switched off, records nothing and costs one branch, so the
// same workload code runs traced and untraced. It is used from one
// goroutine; concurrent clients get a tracer each.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), on: true} }

// tracerIf is the op loops' tracer: nil, and so free, unless the run is
// traced.
func tracerIf(traced bool) *tracer {
	if !traced {
		return nil
	}
	return newTracer()
}

// recording reports whether spans begun now are kept.
func (t *tracer) recording() bool { return t != nil && t.on }

// recorded returns the spans so far; nil for a nil tracer.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans
}

// begin opens a span and returns its index, or -1 when not recording.
func (t *tracer) begin(name string, parent, op int) int {
	if !t.recording() {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on = on
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover (children are clipped to the parent
// and overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(spans[k].Start, hi), min(spans[k].End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerRow is one line of the "layer · self ms · share" table.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
	Calls  int     `json:"calls"`
}

// layerTable sums self time by span name over the spans under roots named
// root, as a share of the roots' total duration, largest first.
func layerTable(spans []span, root string) []layerRow {
	self := selfTimes(spans)
	under := make([]bool, len(spans))
	var total int64
	byName := map[string]*layerRow{}
	for i, s := range spans { // parents precede children in recording order
		if s.Name == root && s.Parent < 0 {
			under[i] = true
			total += s.End - s.Start
		} else if s.Parent >= 0 && under[s.Parent] {
			under[i] = true
		}
		if !under[i] {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Layer: s.Name}
			byName[s.Name] = r
		}
		r.SelfMS += float64(self[i]) / 1e6
		r.Calls++
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		r.Share = ratio(r.SelfMS*1e6, float64(total))
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].SelfMS != rows[b].SelfMS {
			return rows[a].SelfMS > rows[b].SelfMS
		}
		return rows[a].Layer < rows[b].Layer
	})
	return rows
}

// appendSpans concatenates two recordings, keeping parent links valid.
func appendSpans(dst, src []span) []span {
	base := len(dst)
	for _, s := range src {
		if s.Parent >= 0 {
			s.Parent += base
		}
		dst = append(dst, s)
	}
	return dst
}
