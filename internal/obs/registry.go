package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Registry holds named metrics and renders them for scraping. Metrics are
// either owned (Counter/Gauge/Histogram handles the instrumented code
// updates directly) or scraped (a callback read at render time — for
// counters that already live elsewhere, like the plan cache's hit count).
//
// A metric name may carry a Prometheus label suffix, e.g.
// `soxq_query_nanos{mode="exec"}`; metrics sharing the part before the
// brace form one family and render under one TYPE/HELP header. Registration
// is idempotent: registering a name again returns the existing handle.
//
// All methods are safe for concurrent use, and safe on a nil Registry
// (registration returns nil handles, which discard updates).
type Registry struct {
	mu     sync.Mutex
	ms     []*metric
	byName map[string]*metric
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type metric struct {
	name   string // full name, label suffix included
	family string // name up to the label brace
	labels string // label list without braces ("" when unlabeled)
	help   string
	kind   metricKind

	c  *Counter
	g  *Gauge
	h  *Histogram
	fn func() int64 // scraped counter/gauge; nil for owned metrics
}

// value reads the metric's current scalar (owned or scraped).
func (m *metric) value() int64 {
	switch {
	case m.fn != nil:
		return m.fn()
	case m.c != nil:
		return m.c.Value()
	case m.g != nil:
		return m.g.Value()
	}
	return 0
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// register adds m under its name, or returns the previously registered
// metric of the same name.
func (r *Registry) register(name, help string, kind metricKind, build func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := build()
	m.name = name
	m.family, m.labels = splitName(name)
	m.help = help
	m.kind = kind
	r.ms = append(r.ms, m)
	r.byName[name] = m
	return m
}

// Counter registers (or returns) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, func() *metric { return &metric{c: &Counter{}} }).c
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, func() *metric { return &metric{g: &Gauge{}} }).g
}

// Histogram registers (or returns) the named log₂-bucketed histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, func() *metric { return &metric{h: &Histogram{}} }).h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for cumulative counts that already live elsewhere in the engine.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounter, func() *metric { return &metric{fn: fn} })
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.register(name, help, kindGauge, func() *metric { return &metric{fn: fn} })
}

// snapshotMetrics copies the metric list under the lock; values are read
// outside it (scrape callbacks may take other locks).
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.ms...)
}

// histExpMin/histExpMax bound the bucket exponents rendered to Prometheus:
// le=2^10 ns (≈1µs) up to le=2^34 ns (≈17s). The histogram still counts
// outliers — they land in the first bucket or +Inf cumulatively.
const (
	histExpMin = 10
	histExpMax = 34
)

// WritePrometheus renders every metric in the Prometheus text exposition
// format, in registration order, one HELP/TYPE header per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	seenFamily := map[string]bool{}
	for _, m := range r.snapshotMetrics() {
		if !seenFamily[m.family] {
			seenFamily[m.family] = true
			if m.help != "" {
				pr("# HELP %s %s\n", m.family, m.help)
			}
			pr("# TYPE %s %s\n", m.family, m.kind)
		}
		if m.kind != kindHistogram {
			pr("%s %d\n", m.name, m.value())
			continue
		}
		var counts [histBuckets]int64
		count, sum := m.h.snapshot(&counts)
		var cum int64
		for exp := 0; exp < histBuckets; exp++ {
			cum += counts[exp]
			if exp < histExpMin || exp > histExpMax {
				continue
			}
			pr("%s_bucket{%sle=\"%d\"} %d\n", m.family, labelPrefix(m.labels), int64(1)<<exp, cum)
		}
		pr("%s_bucket{%sle=\"+Inf\"} %d\n", m.family, labelPrefix(m.labels), count)
		pr("%s_sum%s %d\n", m.family, braced(m.labels), sum)
		pr("%s_count%s %d\n", m.family, braced(m.labels), count)
	}
	return err
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// WriteJSON renders every metric as one flat JSON object (the expvar
// convention: GET /debug/vars returns a JSON map). Scalar metrics map name
// to value; histograms map name to {count, sum, buckets} with only occupied
// buckets listed, keyed by their upper bound.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	ms := r.snapshotMetrics()
	pr("{")
	for i, m := range ms {
		if i > 0 {
			pr(",")
		}
		pr("\n%q: ", m.name)
		if m.kind != kindHistogram {
			pr("%d", m.value())
			continue
		}
		var counts [histBuckets]int64
		count, sum := m.h.snapshot(&counts)
		pr(`{"count": %d, "sum": %d, "buckets": {`, count, sum)
		first := true
		for exp := 0; exp < histBuckets; exp++ {
			if counts[exp] == 0 {
				continue
			}
			if !first {
				pr(", ")
			}
			first = false
			pr(`"%d": %d`, upperBound(exp), counts[exp])
		}
		pr("}}")
	}
	pr("\n}\n")
	return err
}

// upperBound is the exclusive upper value of log₂ bucket exp (observations v
// with bits.Len64(v) == exp satisfy v < 2^exp).
func upperBound(exp int) int64 {
	if exp >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1) << exp
}
