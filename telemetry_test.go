package soxq

import (
	"bufio"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrapeMetrics GETs /metrics from the engine's ops handler and parses the
// Prometheus text into a name → value map (histogram series included, under
// their rendered names).
func scrapeMetrics(t *testing.T, eng *Engine) map[string]int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	eng.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsEndToEnd runs a scripted workload — prepared Exec, a drained
// Stream, an Analyze, and cached Query calls that
// hit and miss the plan cache — then scrapes the ops handler and checks the
// acceptance-list metrics are exposed with values the workload explains.
func TestMetricsEndToEnd(t *testing.T) {
	eng := figure2Engine(t)
	const query = `for $s in doc("d.xml")//music[@artist = "U2"]/select-narrow::shot
	         return string($s/@id)`
	prep, err := eng.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Exec(Config{}); err != nil {
		t.Fatal(err)
	}
	cur, err := prep.Stream(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep.Analyze(Config{}); err != nil {
		t.Fatal(err)
	}
	// Cached Query path: first call misses and compiles, second hits.
	if _, err := eng.Query(query); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(query); err != nil {
		t.Fatal(err)
	}

	m := scrapeMetrics(t, eng)

	atLeast := func(name string, want int64) {
		t.Helper()
		if got, ok := m[name]; !ok {
			t.Errorf("metric %s not exposed", name)
		} else if got < want {
			t.Errorf("%s = %d, want >= %d", name, got, want)
		}
	}
	atLeast(`soxq_plan_cache_hits_total`, 1)
	atLeast(`soxq_plan_cache_misses_total`, 1)
	atLeast(`soxq_plan_cache_entries`, 1)
	atLeast(`soxq_query_nanos_count{mode="exec"}`, 1)
	atLeast(`soxq_query_nanos_count{mode="stream"}`, 1)
	atLeast(`soxq_query_nanos_count{mode="analyze"}`, 1)
	// Every run drives the one StandOff step through the Loop-Lifted join;
	// 5 joins from exec+stream+analyze+2 cached queries would
	// over-specify, so just demand several.
	atLeast(`soxq_joins_total{algorithm="looplifted"}`, 4)
	atLeast(`soxq_parse_nanos_count`, 1)
	atLeast(`soxq_compile_nanos_count`, 1)
	atLeast(`soxq_documents_loaded`, 1)

	// Present (values are process-wide or workload-dependent).
	for _, name := range []string{
		`soxq_plan_cache_evictions_total{reason="lru"}`,
		`soxq_plan_cache_evictions_total{reason="invalidation"}`,
		`soxq_plan_cache_coalesced_total`,
		`soxq_joins_total{algorithm="basic"}`,
		`soxq_joins_total{algorithm="naive"}`,
		`soxq_arena_pool_hits_total`,
		`soxq_arena_pool_misses_total`,
		`soxq_index_merges_total{scope="layer"}`,
		`soxq_index_merges_total{scope="full"}`,
		`soxq_attr_orders_built_total`,
		`soxq_traces_total`,
		`soxq_slow_queries_total`,
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("metric %s not exposed", name)
		}
	}

	// Invalidation accounting reaches the scrape: a Declare purges the plan
	// cache, moving its entry to the invalidation eviction counter.
	if err := eng.Declare("standoff-type", "xs:integer"); err != nil {
		t.Fatal(err)
	}
	m = scrapeMetrics(t, eng)
	atLeast(`soxq_plan_cache_evictions_total{reason="invalidation"}`, 1)
	if got := m[`soxq_plan_cache_entries`]; got != 0 {
		t.Errorf("plan cache entries after purge = %d, want 0", got)
	}
}

// TestTraceGolden pins the deterministic trace rendering of the Figure 2
// walkthrough query: span structure and counts only, no durations, so the
// golden is stable across machines.
func TestTraceGolden(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`for $s in doc("d.xml")//music[@artist = "U2"]/select-narrow::shot return string($s/@id)`)
	if err != nil {
		t.Fatal(err)
	}
	if prep.TraceLast() != nil {
		t.Fatal("TraceLast before any traced run should be nil")
	}
	res, err := prep.Exec(Config{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != "Intro" {
		t.Fatalf("result = %q, want Intro", got)
	}
	tr := prep.TraceLast()
	if tr == nil {
		t.Fatal("TraceLast nil after traced Exec")
	}
	want := `trace: for $s in doc("d.xml")//music[@artist = "U2"]/select-narrow::shot return string($s/@id)
mode: exec
  parse
  compile
  execute
    flwor in=1 out=1 chunks=1
      for $s in
        path doc("d.xml") in=0 out=1
          step descendant::music[@artist = "U2"] pred{attr} (fused //) in=1 out=1
          step select-narrow::shot in=1 out=1 cand=3 joins=looplifted:1 chunks=1
      return string($s/@id)
`
	if got := tr.String(); got != want {
		t.Fatalf("trace:\n%s\nwant:\n%s", got, want)
	}
	if tr.Render(false) != tr.String() {
		t.Fatal("String must be the deterministic rendering")
	}
	live := tr.Render(true)
	for _, s := range []string{"start: ", "total: ", "["} {
		if !strings.Contains(live, s) {
			t.Errorf("live rendering missing %q:\n%s", s, live)
		}
	}
	if tr.Mode() != "exec" {
		t.Errorf("Mode = %q, want exec", tr.Mode())
	}
	if tr.Duration() <= 0 {
		t.Errorf("Duration = %v, want > 0", tr.Duration())
	}

	// An untraced run must not overwrite the retained trace.
	if _, err := prep.Exec(Config{}); err != nil {
		t.Fatal(err)
	}
	if got := prep.TraceLast().String(); got != want {
		t.Error("untraced Exec overwrote TraceLast")
	}

	// The engine ring retains it too.
	traces := eng.RecentTraces()
	if len(traces) != 1 || traces[0].String() != want {
		t.Fatalf("RecentTraces = %d entries", len(traces))
	}

	// A span is named by the operator, not by cutting its rendered line: a
	// literal that reads like an annotation stays whole.
	lit := New()
	if err := lit.LoadXML("d.xml", []byte(`<r><w v=" (in=x"/></r>`)); err != nil {
		t.Fatal(err)
	}
	prep, err = lit.Prepare(`doc("d.xml")//w[@v = " (in=x"]`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Exec(Config{Trace: true}); err != nil {
		t.Fatal(err)
	}
	step := `    step descendant::w[@v = " (in=x"] pred{attr} (fused //) in=1 out=1` + "\n"
	if got := prep.TraceLast().String(); !strings.Contains(got, step) {
		t.Fatalf("trace:\n%s\nwant the step span:\n%s", got, step)
	}
}

// TestTraceMatchesAnalyze checks the acceptance criterion on a real XMark
// query: every operator counter the trace renders — StandOff candidates and
// join algorithms included — agrees with the EXPLAIN ANALYZE counters of an
// independent run of the same plan.
func TestTraceMatchesAnalyze(t *testing.T) {
	eng := xmarkEngine(t, 0.002)
	for _, q := range []int{1, 2, 7} {
		prep, err := eng.Prepare(xmarkStandOffQuery(q))
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		traced, err := prep.Exec(Config{Trace: true})
		if err != nil {
			t.Fatalf("Q%d traced exec: %v", q, err)
		}
		plain, pe, err := prep.Analyze(Config{})
		if err != nil {
			t.Fatalf("Q%d analyze: %v", q, err)
		}
		if traced.String() != plain.String() {
			t.Fatalf("Q%d: traced and analyzed results differ", q)
		}
		trace := prep.TraceLast().String()
		var walk func(n *OpNode)
		walk = func(n *OpNode) {
			if n.Obs != nil {
				line := n.Name + fmt.Sprintf(" in=%d out=%d", n.Obs.RowsIn, n.Obs.RowsOut)
				if n.Step != nil && n.Step.StandOff {
					line += fmt.Sprintf(" cand=%d joins=%s", n.Obs.Candidates, n.Obs.Joins)
				}
				if !strings.Contains(trace, line) {
					t.Errorf("Q%d: trace disagrees with analyze on %q\ntrace:\n%s", q, line, trace)
				}
			}
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		for _, n := range pe.Plan {
			walk(n)
		}
	}
}

// TestSlowQueryLog: queries over the threshold land in the ring and reach the
// pluggable callback with plan and trace attached; below-threshold and
// disabled configurations record nothing.
func TestSlowQueryLog(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`doc("d.xml")//music/select-narrow::shot`)
	if err != nil {
		t.Fatal(err)
	}

	// Disabled by default: nothing recorded.
	if _, err := prep.Exec(Config{}); err != nil {
		t.Fatal(err)
	}
	if got := eng.SlowQueries(); len(got) != 0 {
		t.Fatalf("slow log with no threshold = %d entries", len(got))
	}

	var mu sync.Mutex
	var logged []SlowQuery
	eng.SetSlowQueryLogger(func(q SlowQuery) {
		mu.Lock()
		logged = append(logged, q)
		mu.Unlock()
	})
	eng.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	if _, err := prep.Exec(Config{Trace: true}); err != nil {
		t.Fatal(err)
	}
	entries := eng.SlowQueries()
	if len(entries) != 1 {
		t.Fatalf("slow log = %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Mode != "exec" || e.Duration <= 0 {
		t.Errorf("entry = mode %q dur %v", e.Mode, e.Duration)
	}
	if !strings.Contains(e.Plan, "plan:") || !strings.Contains(e.Plan, "select-narrow") {
		t.Errorf("entry plan missing operator tree:\n%s", e.Plan)
	}
	if !strings.Contains(e.Trace, "trace: ") {
		t.Errorf("traced slow query should carry its trace:\n%q", e.Trace)
	}
	mu.Lock()
	nLogged := len(logged)
	mu.Unlock()
	if nLogged != 1 {
		t.Fatalf("logger called %d times, want 1", nLogged)
	}

	// An untraced slow query still logs, with an empty trace.
	if _, err := prep.Exec(Config{}); err != nil {
		t.Fatal(err)
	}
	entries = eng.SlowQueries()
	if len(entries) != 2 {
		t.Fatalf("slow log = %d entries, want 2", len(entries))
	}
	if entries[1].Trace != "" {
		t.Errorf("untraced entry carries a trace: %q", entries[1].Trace)
	}

	// /debug/queries?live=0 renders the deterministic report.
	rec := httptest.NewRecorder()
	eng.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries?live=0", nil))
	body := rec.Body.String()
	for _, wantLine := range []string{"# recent traces (1)", "# slow queries (2)", `slow-query mode=exec`} {
		if !strings.Contains(body, wantLine) {
			t.Errorf("/debug/queries missing %q:\n%s", wantLine, body)
		}
	}
	if strings.Contains(body, "dur=") {
		t.Errorf("?live=0 must omit durations:\n%s", body)
	}

	// Threshold zero disables again.
	eng.SetSlowQueryThreshold(0)
	if _, err := prep.Exec(Config{}); err != nil {
		t.Fatal(err)
	}
	if got := eng.SlowQueries(); len(got) != 2 {
		t.Fatalf("disabled slow log still recorded: %d entries", len(got))
	}
}

// TestStreamCloseWithoutDrainFinishes: a cursor abandoned before its stream
// is drained still closes out its telemetry exactly once, via Close.
func TestStreamCloseWithoutDrainFinishes(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`doc("d.xml")//shot`)
	if err != nil {
		t.Fatal(err)
	}
	before := scrapeMetrics(t, eng)[`soxq_query_nanos_count{mode="stream"}`]
	cur, err := prep.Stream(Config{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() { // partial drain
		t.Fatal("expected at least one item")
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	after := scrapeMetrics(t, eng)[`soxq_query_nanos_count{mode="stream"}`]
	if after != before+1 {
		t.Fatalf("stream latency count %d -> %d, want exactly one observation", before, after)
	}
	if prep.TraceLast() == nil {
		t.Fatal("early-closed traced stream should still record a trace")
	}
}

// TestConcurrentStreamTelemetry extends the concurrent-drain contract to the
// telemetry layer: many goroutines drain Stream cursors with tracing
// on while others scrape the ops handler, read TraceLast/RecentTraces, and
// flip the slow-query threshold. Must stay clean under `go test -race`.
func TestConcurrentStreamTelemetry(t *testing.T) {
	eng := New()
	if err := eng.LoadXML("stable.xml", []byte(concurrentDoc)); err != nil {
		t.Fatal(err)
	}
	const query = `for $s in doc("stable.xml")//scene
	 for $i in 1 to 4
	 return string($s/select-narrow::hit/@id)`
	prep, err := eng.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.String()

	eng.SetSlowQueryThreshold(time.Nanosecond)

	const (
		goroutines = 4
		drains     = 30
	)
	var wg, scraperWG sync.WaitGroup
	stop := make(chan struct{})

	// Scraper goroutine: hammers every ops endpoint while queries run.
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		h := eng.OpsHandler()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/debug/vars", "/debug/queries?live=0"} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					t.Errorf("%s status = %d", path, rec.Code)
					return
				}
			}
			prep.TraceLast().Render(false)
			eng.RecentTraces()
			eng.SlowQueries()
			eng.SetSlowQueryThreshold(time.Nanosecond)
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := Config{StreamChunk: g + 1, Trace: true}
			for i := 0; i < drains; i++ {
				cur, err := prep.Stream(cfg)
				if err != nil {
					t.Errorf("Stream: %v", err)
					return
				}
				var sb strings.Builder
				for cur.Next() {
					if sb.Len() > 0 {
						sb.WriteByte(' ')
					}
					sb.WriteString(cur.Value().XML())
				}
				if err := cur.Close(); err != nil {
					t.Errorf("drain: %v", err)
					return
				}
				if got := sb.String(); got != want {
					t.Errorf("concurrent drain = %q, want %q", got, want)
					return
				}
			}
		}(g)
	}
	// Stop the scraper only after the drains are done.
	wg.Wait()
	close(stop)
	scraperWG.Wait()

	m := scrapeMetrics(t, eng)
	wantRuns := int64(goroutines * drains)
	if got := m[`soxq_query_nanos_count{mode="stream"}`]; got != wantRuns {
		// The reference Exec counts under mode=exec.
		t.Errorf("stream run count = %d, want %d", got, wantRuns)
	}
	if got := m[`soxq_traces_total`]; got != wantRuns {
		t.Errorf("traces recorded = %d, want %d", got, wantRuns)
	}
	if got := m[`soxq_slow_queries_total`]; got < 1 {
		t.Errorf("slow queries = %d, want >= 1", got)
	}
	if prep.TraceLast() == nil {
		t.Fatal("TraceLast nil after traced drains")
	}
}
