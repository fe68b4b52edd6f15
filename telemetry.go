package soxq

import (
	"time"

	"soxq/internal/core"
	"soxq/internal/obs"
	"soxq/internal/xqplan"
)

// engineObs is the engine's always-on telemetry state: the metrics registry
// with every handle pre-resolved, the trace ring, and the slow-query log.
// One per engine, built at New; the whole struct is optional — a nil
// *engineObs disables telemetry entirely (the overhead benchmark's
// comparison baseline), and every accessor tolerates it.
type engineObs struct {
	reg  *obs.Registry
	met  *obs.ExecMetrics
	ring *obs.TraceRing
	slow *obs.SlowLog

	parseNanos   *obs.Histogram
	compileNanos *obs.Histogram
	execNanos    *obs.Histogram
	streamNanos  *obs.Histogram
	analyzeNanos *obs.Histogram

	tracesTotal *obs.Counter
	slowTotal   *obs.Counter

	corpusQueries *obs.Counter
	corpusShards  *obs.Counter

	insertsTotal     *obs.Counter
	deletesTotal     *obs.Counter
	regionsWritten   *obs.Counter
	compactionsTotal *obs.Counter
}

// Metric name constants double as the reference list docs/OBSERVABILITY.md
// documents; tests assert the scrape covers them.
const (
	metricQueryNanos     = "soxq_query_nanos"
	metricJoinsTotal     = "soxq_joins_total"
	metricMutationsTotal = "soxq_mutations_total"
)

// newEngineObs builds the registry, resolves every owned handle, and wires
// the scrape-time callbacks into the engine's existing counters (plan cache,
// arena pool, delta merges). Scrape callbacks run only at render time, so
// their locking cost is a scrape concern, never a query-path one.
func newEngineObs(e *Engine) *engineObs {
	r := obs.NewRegistry()
	t := &engineObs{
		reg:  r,
		ring: obs.NewTraceRing(0),
		slow: obs.NewSlowLog(0),

		parseNanos:   r.Histogram("soxq_parse_nanos", "query parse latency, nanoseconds"),
		compileNanos: r.Histogram("soxq_compile_nanos", "query compile latency (parse included), nanoseconds"),
		execNanos:    r.Histogram(metricQueryNanos+`{mode="exec"}`, "end-to-end query latency by execution mode, nanoseconds"),
		streamNanos:  r.Histogram(metricQueryNanos+`{mode="stream"}`, ""),
		analyzeNanos: r.Histogram(metricQueryNanos+`{mode="analyze"}`, ""),

		tracesTotal: r.Counter("soxq_traces_total", "query traces recorded"),
		slowTotal:   r.Counter("soxq_slow_queries_total", "queries over the slow-query threshold"),

		corpusQueries: r.Counter("soxq_corpus_queries_total", "corpus query executions (fan-outs actually run; result-cache hits do not count)"),
		corpusShards:  r.Counter("soxq_corpus_shards_total", "per-document shards executed by corpus queries"),

		insertsTotal:     r.Counter(metricMutationsTotal+`{op="insert"}`, "annotation mutations by operation"),
		deletesTotal:     r.Counter(metricMutationsTotal+`{op="delete"}`, ""),
		regionsWritten:   r.Counter("soxq_mutation_regions_total", "annotation regions written by inserts"),
		compactionsTotal: r.Counter("soxq_compactions_total", "region-index delta compactions"),
	}
	t.met = &obs.ExecMetrics{
		JoinBasic:      r.Counter(metricJoinsTotal+`{algorithm="basic"}`, "StandOff join invocations by algorithm"),
		JoinLoopLifted: r.Counter(metricJoinsTotal+`{algorithm="looplifted"}`, ""),
		JoinNaive:      r.Counter(metricJoinsTotal+`{algorithm="naive"}`, ""),
	}

	// Plan cache: hits/misses/size, the LRU-vs-invalidation eviction split,
	// and singleflight coalesces.
	r.CounterFunc("soxq_plan_cache_hits_total", "plan cache lookups served from cache",
		func() int64 { h, _ := e.plans.Stats(); return int64(h) })
	r.CounterFunc("soxq_plan_cache_misses_total", "plan cache lookups that compiled (or waited on a compile)",
		func() int64 { _, m := e.plans.Stats(); return int64(m) })
	r.GaugeFunc("soxq_plan_cache_entries", "plans currently cached",
		func() int64 { return int64(e.plans.Len()) })
	r.CounterFunc(`soxq_plan_cache_evictions_total{reason="lru"}`, "plans dropped, by cause",
		func() int64 { lru, _ := e.plans.Evictions(); return int64(lru) })
	r.CounterFunc(`soxq_plan_cache_evictions_total{reason="invalidation"}`, "",
		func() int64 { _, inv := e.plans.Evictions(); return int64(inv) })
	r.CounterFunc("soxq_plan_cache_coalesced_total", "concurrent compiles collapsed by the cache's singleflight",
		func() int64 { return int64(e.plans.Coalesced()) })

	// Join-arena pool (process-wide: the pool is package-level in core).
	r.CounterFunc("soxq_arena_pool_hits_total", "join-arena acquires served from the pool (process-wide)",
		func() int64 { h, _ := core.ArenaPoolStats(); return int64(h) })
	r.CounterFunc("soxq_arena_pool_misses_total", "join-arena acquires that allocated (process-wide)",
		func() int64 { _, m := core.ArenaPoolStats(); return int64(m) })

	// Delta-index merges by scope (process-wide, like the arena pool): a
	// named read after a write merges one annotation layer; a full merge
	// touches every row of the index, and is what a slow write or first row
	// paid when this moves.
	r.CounterFunc(`soxq_index_merges_total{scope="layer"}`, "region-index merges by scope: a layer, or a whole table built or merged (process-wide)",
		func() int64 { l, _ := core.IndexMergeStats(); return int64(l) })
	r.CounterFunc(`soxq_index_merges_total{scope="full"}`, "",
		func() int64 { _, f := core.IndexMergeStats(); return int64(f) })
	r.CounterFunc("soxq_attr_orders_built_total", "attribute value orderings built for pushed predicates (process-wide)",
		func() int64 { return int64(core.AttrOrderBuilds()) })

	r.GaugeFunc("soxq_documents_loaded", "documents currently loaded",
		func() int64 { return int64(len(e.Documents())) })

	// Catalog and corpus result cache: the generation every cached corpus
	// result is keyed by, and the cache's hit/miss/size counters — the
	// "did the hot query skip execution" signal soxqd's tests pin.
	r.GaugeFunc("soxq_catalog_generation", "catalog generation (bumped by load/unload/mutation/corpus changes)",
		func() int64 { return int64(e.gen.Load()) })
	r.GaugeFunc("soxq_corpora_defined", "corpora currently defined",
		func() int64 { return int64(len(e.Corpora())) })
	r.CounterFunc("soxq_result_cache_hits_total", "corpus result cache lookups served without executing",
		func() int64 { h, _ := e.results.Stats(); return int64(h) })
	r.CounterFunc("soxq_result_cache_misses_total", "corpus result cache lookups that executed (or waited on an execution)",
		func() int64 { _, m := e.results.Stats(); return int64(m) })
	r.GaugeFunc("soxq_result_cache_entries", "corpus results currently cached",
		func() int64 { return int64(e.results.Len()) })
	r.CounterFunc("soxq_result_cache_coalesced_total", "concurrent corpus executions collapsed by the result cache's singleflight",
		func() int64 { return int64(e.results.Coalesced()) })

	// Pending annotation deltas across all cached region indexes; walks the
	// index map under the read lock at scrape time only.
	r.GaugeFunc("soxq_delta_annotations", "annotation inserts+deletes pending in region-index delta layers",
		func() int64 {
			e.mu.RLock()
			defer e.mu.RUnlock()
			var n int64
			for _, ix := range e.indexes {
				ins, del := ix.DeltaStats()
				n += int64(ins + del)
			}
			return n
		})
	return t
}

// mutation records one annotation write (nil-safe, like every accessor).
func (t *engineObs) mutation(op string, regions int) {
	if t == nil {
		return
	}
	switch op {
	case "insert":
		t.insertsTotal.Inc()
		t.regionsWritten.Add(int64(regions))
	case "delete":
		t.deletesTotal.Inc()
	}
}

// corpusRun records one corpus fan-out and its shard count.
func (t *engineObs) corpusRun(shards int) {
	if t == nil {
		return
	}
	t.corpusQueries.Inc()
	t.corpusShards.Add(int64(shards))
}

// compaction records one region-index delta compaction.
func (t *engineObs) compaction() {
	if t == nil {
		return
	}
	t.compactionsTotal.Inc()
}

// latencyHist maps an execution mode to its end-to-end latency histogram.
func (t *engineObs) latencyHist(mode string) *obs.Histogram {
	switch mode {
	case "exec":
		return t.execNanos
	case "stream":
		return t.streamNanos
	default:
		return t.analyzeNanos
	}
}

// runObs tracks one execution's telemetry from pipeline construction to
// drain end: the latency clock, and the ExecStats collector of an analyzed
// or traced run. With telemetry disabled only Analyze's collector is set,
// and finish no-ops. It lives inline in the run's Cursor, so the
// metrics-only path allocates nothing of its own.
type runObs struct {
	p      *Prepared // nil when telemetry is disabled
	mode   string
	start  time.Time
	st     *xqplan.ExecStats
	traced bool
	done   bool
}

// beginRun starts the telemetry of one execution in the given latency mode.
// The collector is created for Analyze and, with telemetry on, under
// cfg.Trace — tracing rides the same ExecStats machinery as EXPLAIN ANALYZE.
func (p *Prepared) beginRun(cfg Config, mode string) runObs {
	var ro runObs
	if mode == "analyze" || cfg.Trace && p.eng.tel != nil {
		ro.st = xqplan.NewExecStats()
	}
	if p.eng.tel != nil {
		ro.p, ro.mode, ro.start, ro.traced = p, mode, time.Now(), cfg.Trace
	}
	return ro
}

// finish closes out one execution: observes the latency histogram, records
// the trace (when traced), and feeds the slow-query log. Idempotent — Stream
// cursors reach it from both end-of-drain and Close.
func (ro *runObs) finish() {
	if ro.p == nil || ro.done {
		return
	}
	ro.done = true
	t := ro.p.eng.tel
	nanos := time.Since(ro.start).Nanoseconds()
	t.latencyHist(ro.mode).Observe(nanos)
	var tr *obs.QueryTrace
	var st *xqplan.ExecStats // the slow log's plan carries a traced run's counters
	if ro.traced {
		st = ro.st
		tr = ro.p.buildTrace(ro.mode, ro.start, nanos, st)
		ro.p.lastTrace.Store(tr)
		t.ring.Add(tr)
		t.tracesTotal.Inc()
	}
	if t.slow.Exceeds(nanos) {
		t.slowTotal.Inc()
		entry := obs.SlowQuery{
			Query: ro.p.src,
			Mode:  ro.mode,
			Start: ro.start,
			Nanos: nanos,
			Plan:  ro.p.plan.ExplainWith(st).String(),
		}
		if tr != nil {
			entry.Trace = tr.Render(false)
		}
		t.slow.Observe(entry)
	}
}

// observeCompile records one compile's parse and total timings.
func (t *engineObs) observeCompile(parseNs, compileNs int64) {
	if t == nil {
		return
	}
	t.parseNanos.Observe(parseNs)
	t.compileNanos.Observe(compileNs)
}
