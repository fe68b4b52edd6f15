package obs

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var h *Histogram
	h.Observe(100)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should read 0")
	}

	real := &Counter{}
	real.Inc()
	real.Add(2)
	real.Add(-7) // ignored: counters only go up
	if got := real.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)    // bits.Len64(0) == 0 → bucket 0
	h.Observe(1)    // bucket 1
	h.Observe(1023) // bucket 10
	h.Observe(1024) // bucket 11
	h.Observe(-5)   // ignored
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 0+1+1023+1024 {
		t.Fatalf("sum = %d, want %d", got, 0+1+1023+1024)
	}
	var buckets [histBuckets]int64
	count, _ := h.snapshot(&buckets)
	if count != 4 {
		t.Fatalf("snapshot count = %d, want 4", count)
	}
	for i, want := range map[int]int64{0: 1, 1: 1, 10: 1, 11: 1} {
		if buckets[i] != want {
			t.Errorf("bucket[%d] = %d, want %d", i, buckets[i], want)
		}
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "other help ignored")
	if a != b {
		t.Fatal("re-registering the same counter name should return the same handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Counter("a", "") != nil || r.Gauge("b", "") != nil || r.Histogram("c", "") != nil {
		t.Fatal("nil registry should hand out nil handles")
	}
	r.CounterFunc("d", "", func() int64 { return 1 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatal("nil registry renders nothing")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`q_total{mode="exec"}`, "queries by mode").Add(3)
	r.Counter(`q_total{mode="stream"}`, "").Add(5)
	r.Gauge("entries", "live entries").Set(7)
	r.CounterFunc("scraped_total", "from a callback", func() int64 { return 11 })
	h := r.Histogram("lat_nanos", "latency")
	h.Observe(2000) // bucket 11, cumulative from le=2048 up
	h.Observe(3000) // bucket 12

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP q_total queries by mode\n",
		"# TYPE q_total counter\n",
		`q_total{mode="exec"} 3` + "\n",
		`q_total{mode="stream"} 5` + "\n",
		"entries 7\n",
		"scraped_total 11\n",
		"# TYPE lat_nanos histogram\n",
		`lat_nanos_bucket{le="1024"} 0` + "\n",
		`lat_nanos_bucket{le="2048"} 1` + "\n",
		`lat_nanos_bucket{le="4096"} 2` + "\n",
		`lat_nanos_bucket{le="+Inf"} 2` + "\n",
		"lat_nanos_sum 5000\n",
		"lat_nanos_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// One TYPE header per family, even with two labeled members.
	if got := strings.Count(out, "# TYPE q_total counter"); got != 1 {
		t.Errorf("TYPE header for q_total appears %d times, want 1", got)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Histogram("h_nanos", "").Observe(1500)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"a_total": 2`, `"h_nanos": {"count": 1, "sum": 1500, "buckets": {"2048": 1}}`} {
		if !strings.Contains(out, want) {
			t.Errorf("json output missing %q\n%s", want, out)
		}
	}
}

func TestTraceRingWraparound(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		r.Add(&QueryTrace{Query: fmt.Sprintf("q%d", i)})
	}
	if r.Len() != 3 {
		t.Fatalf("ring len = %d, want 3", r.Len())
	}
	got := r.Snapshot()
	want := []string{"q2", "q3", "q4"}
	for i, tr := range got {
		if tr.Query != want[i] {
			t.Fatalf("snapshot[%d] = %q, want %q", i, tr.Query, want[i])
		}
	}
	var nilRing *TraceRing
	nilRing.Add(&QueryTrace{})
	if nilRing.Len() != 0 || nilRing.Snapshot() != nil {
		t.Fatal("nil ring should no-op")
	}
}

func TestTraceRenderDeterminism(t *testing.T) {
	root := &Span{Name: "query"}
	root.Child("parse").Nanos = 1000
	ex := root.Child("execute")
	ex.Nanos = 5000
	st := ex.Child("step child::a")
	st.AttrInt("in", 2)
	st.AttrInt("out", 4)
	tr := &QueryTrace{Query: "q", Mode: "exec", Start: time.Unix(0, 0), Nanos: 6000, Root: root}

	det := tr.Render(false)
	want := "trace: q\nmode: exec\n  parse\n  execute\n    step child::a in=2 out=4\n"
	if det != want {
		t.Fatalf("deterministic render:\n%q\nwant:\n%q", det, want)
	}
	live := tr.Render(true)
	for _, s := range []string{"total: 6µs", "[1µs]", "[5µs]", "start: "} {
		if !strings.Contains(live, s) {
			t.Errorf("live render missing %q\n%s", s, live)
		}
	}
}

func TestSlowLog(t *testing.T) {
	l := NewSlowLog(2)
	if l.Exceeds(1 << 40) {
		t.Fatal("disabled slow log should never trip")
	}
	l.SetThreshold(time.Millisecond)
	if l.Exceeds(int64(time.Millisecond) - 1) {
		t.Fatal("below threshold should not trip")
	}
	if !l.Exceeds(int64(time.Millisecond)) {
		t.Fatal("at threshold should trip")
	}

	var mu sync.Mutex
	var logged []SlowQuery
	l.SetLogger(func(q SlowQuery) {
		mu.Lock()
		logged = append(logged, q)
		mu.Unlock()
	})
	for i := 0; i < 3; i++ {
		l.Observe(SlowQuery{Query: fmt.Sprintf("q%d", i), Mode: "exec", Nanos: int64(time.Second)})
	}
	mu.Lock()
	n := len(logged)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("logger called %d times, want 3", n)
	}
	snap := l.Snapshot()
	if len(snap) != 2 || snap[0].Query != "q1" || snap[1].Query != "q2" {
		t.Fatalf("snapshot = %+v, want [q1 q2]", snap)
	}
	l.SetLogger(nil) // removable without disabling the ring
	l.Observe(SlowQuery{Query: "q3"})
	if got := len(l.Snapshot()); got != 2 {
		t.Fatalf("ring len after logger removal = %d, want 2", got)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "a counter").Add(9)
	ring := NewTraceRing(4)
	root := &Span{Name: "query"}
	root.Child("parse")
	ring.Add(&QueryTrace{Query: "trace-q", Mode: "exec", Nanos: 100, Root: root})
	slow := NewSlowLog(4)
	slow.Observe(SlowQuery{Query: "slow-q", Mode: "stream", Nanos: int64(time.Second), Plan: "plan:\n  flwor"})

	before := runtime.NumGoroutine()
	h := Handler(reg, ring, slow)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "c_total 9") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, `"c_total": 9`) {
		t.Errorf("/debug/vars: code=%d body=%q", code, body)
	}
	code, body := get("/debug/queries?live=0")
	if code != 200 {
		t.Fatalf("/debug/queries: code=%d", code)
	}
	for _, want := range []string{"# recent traces (1)", "trace: trace-q", "# slow queries (1)", `slow-query mode=stream query="slow-q"`, "  plan:"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/queries missing %q\n%s", want, body)
		}
	}
	if strings.Contains(body, "start=") || strings.Contains(body, "total:") {
		t.Errorf("?live=0 output should omit durations:\n%s", body)
	}
	if code, body := get("/debug/queries"); code != 200 || !strings.Contains(body, "start=") {
		t.Errorf("live /debug/queries should include durations: code=%d\n%s", code, body)
	}
	if code, _ := get("/"); code != 200 {
		t.Errorf("index: code=%d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("unknown path should 404, got %d", code)
	}

	// The handler must not leave goroutines behind.
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew across handler use: before=%d after=%d", before, after)
	}

	// Nil components serve empty forms rather than crashing.
	h = Handler(nil, nil, nil)
	if code, _ := get("/metrics"); code != 200 {
		t.Errorf("nil-component /metrics: code=%d", code)
	}
}
