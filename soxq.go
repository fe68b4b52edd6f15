// Package soxq is an XQuery engine with native stand-off annotation support,
// implementing Alink, Bhoedjang, de Vries and Boncz, "Efficient XQuery
// Support for Stand-Off Annotation" (XIME-P 2006).
//
// Stand-off annotations are XML elements that carry [start,end] regions
// referring into an external BLOB (a video stream, a text corpus, a disk
// image) instead of containing the annotated content. The engine extends
// XPath with the paper's four StandOff axis steps
//
//	select-narrow::  containment semi-join
//	select-wide::    overlap semi-join
//	reject-narrow::  containment anti-join
//	reject-wide::    overlap anti-join
//
// and evaluates them over a region index with loop-lifted StandOff
// MergeJoins, so that a step inside a for-loop costs one index pass for all
// iterations. The naive and per-iteration algorithms from the paper's
// evaluation are available as execution modes for benchmarking.
//
// The query pipeline is parse (internal/xqparse) → compile (internal/xqplan,
// an immutable cacheable Plan) → execute (internal/xqeval driven through the
// internal/xqexec cursor pipeline). Prepare/Exec expose the compiled form;
// Stream pulls results through bounded-memory cursors; Query/QueryWith ride
// an LRU plan cache. Per StandOff step, a cost model picks the Basic or
// Loop-Lifted join from the region index statistics and the context
// cardinality observed at execution (docs/ARCHITECTURE.md describes the
// stages and the cost-model lifecycle).
//
// Every plan is observable: Prepared.Explain renders the operator tree with
// candidate policies, cost estimates and chosen join strategies, and
// Prepared.Analyze executes while counting per-operator rows, candidates
// and chunks — EXPLAIN and EXPLAIN ANALYZE, documented in docs/EXPLAIN.md.
//
// Quick start:
//
//	eng := soxq.New()
//	eng.LoadXML("sample.xml", []byte(`<doc>
//	  <scene id="s1" start="0" end="99"/>
//	  <hit start="10" end="20"/>
//	</doc>`))
//	res, err := eng.Query(`doc("sample.xml")//scene/select-narrow::hit`)
package soxq

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"soxq/internal/blob"
	"soxq/internal/core"
	"soxq/internal/obs"
	"soxq/internal/plancache"
	"soxq/internal/tree"
	"soxq/internal/xmark"
	"soxq/internal/xmlparse"
	"soxq/internal/xqeval"
	"soxq/internal/xqexec"
	"soxq/internal/xqparse"
	"soxq/internal/xqplan"
)

// Mode selects how StandOff steps are executed. The default, ModeAuto, lets
// the planner's cost model choose Basic vs Loop-Lifted per step from the
// region index statistics; the three named modes force one algorithm for
// every step, mirroring the variants of the paper's section 4.6 experiment.
type Mode int

const (
	// ModeAuto (the default) resolves the join algorithm per step: the
	// cost model compares the step's estimated candidate cardinality
	// against the index statistics, so a query mixing tiny and huge
	// annotation layers gets the right variant for each.
	ModeAuto Mode = iota
	// ModeLoopLifted forces the Loop-Lifted StandOff MergeJoin (the
	// paper's contribution) on every step.
	ModeLoopLifted
	// ModeBasic forces the Basic StandOff MergeJoin, re-run once per loop
	// iteration.
	ModeBasic
	// ModeUDF evaluates StandOff steps as quadratic nested loops — the
	// cost model of the paper's "XQuery Function" baselines.
	ModeUDF
)

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeLoopLifted:
		return "looplifted"
	case ModeBasic:
		return "basic"
	default:
		return "udf"
	}
}

func (m Mode) strategy() core.Strategy {
	switch m {
	case ModeLoopLifted:
		return core.StrategyLoopLifted
	case ModeBasic:
		return core.StrategyBasic
	case ModeUDF:
		return core.StrategyNaive
	default:
		return core.StrategyAuto
	}
}

// Config tunes query execution.
type Config struct {
	// Mode picks the StandOff join algorithm (default ModeLoopLifted).
	Mode Mode
	// NoPushdown disables candidate-sequence pushdown of name tests into
	// StandOff steps; the step then scans all annotations and filters
	// afterwards (section 3.3's optimizer discussion).
	NoPushdown bool
	// HeapActiveList replaces the paper's sorted active list with the
	// max-heap suggested in its section 5 (future work).
	HeapActiveList bool
	// Parallelism is the number of worker goroutines large FLWOR loops are
	// partitioned across, with an order-preserving merge; 0 or 1 runs
	// single-threaded. Loops below the executor's cardinality gate stay
	// single-threaded regardless, so small queries never pay for the
	// pool. Applies to both Exec and Stream.
	Parallelism int
	// StreamChunk is the number of loop tuples a Stream pipeline evaluates
	// per chunk (0 means the default, 1024). Larger chunks amortise the
	// loop-lifted StandOff joins over more iterations; smaller chunks
	// bound peak memory tighter. Exec ignores it: a full drain
	// materialises per operator anyway.
	StreamChunk int
	// Trace records a query-lifecycle trace of this execution: a span tree
	// of parse/compile timings, resolved join strategies and per-operator
	// row, candidate and chunk counts, retained in the engine's bounded
	// trace ring and returned by Prepared.TraceLast. Tracing rides the same
	// per-operator collector as EXPLAIN ANALYZE, so it costs one
	// mutex-protected update per operator evaluation — leave it off on hot
	// paths and sample instead.
	Trace bool
}

// Engine holds loaded documents, their BLOBs, cached region indexes, and a
// bounded LRU cache of compiled query plans. It is safe for concurrent
// queries.
type Engine struct {
	mu      sync.RWMutex
	docs    map[string]*tree.Doc
	blobs   map[string]blob.Store
	indexes map[indexKey]*core.RegionIndex
	options core.Options
	plans   *plancache.Cache[planKey, *xqplan.Plan]

	// corpora names ordered sets of loaded documents; corpus queries fan
	// out one shard per member and merge in this order (see corpus.go).
	corpora map[string][]string

	// gen is the catalog generation: bumped (under e.mu) by every load,
	// unload, annotation mutation, corpus definition, blob attach and
	// Declare — any event after which a cached corpus result could be
	// stale. Compaction does not bump it (results are unchanged). The
	// corpus result cache keys on it, so invalidation is free: a new
	// generation simply never hits old entries.
	gen atomic.Uint64

	// results is the corpus result cache: hot (query, corpus, generation)
	// pairs keep their materialised result, with singleflight on misses so
	// a thundering herd on one hot query executes it once (see corpus.go).
	results *plancache.Cache[resultKey, *Result]

	// compactEvery is the pending-delta size (inserted + deleted
	// annotations) at which a mutation auto-compacts a document's region
	// index; 0 disables auto-compaction (see mutate.go).
	compactEvery int

	// cal is the engine-wide join-cost calibration: EXPLAIN ANALYZE runs
	// feed timed join observations into it, and every strategy decision
	// prices loop-lifted setup with the calibrated value instead of the
	// static default once enough samples accumulate. Internally atomic —
	// shared freely across concurrent queries.
	cal xqplan.Calibration

	// tel is the engine's telemetry: metrics registry, trace ring and
	// slow-query log (see telemetry.go and docs/OBSERVABILITY.md). Always
	// on — instrumentation is atomic counters plus one clock pair per
	// query — and served by OpsHandler/WriteMetrics. Nil only in the
	// instrumentation-overhead benchmark.
	tel *engineObs
}

type indexKey struct {
	doc  *tree.Doc
	opts core.Options
}

// planKey identifies a cached plan: the query text plus the engine options
// in effect when it was compiled (the preamble is part of the text, so two
// engines' defaults never alias).
type planKey struct {
	query string
	opts  core.Options
}

// PlanCacheSize is the default capacity of the engine's plan cache.
const PlanCacheSize = 256

// ResultCacheSize is the capacity of the corpus result cache: it holds the
// hot set of (query, corpus, generation) pairs, not the long tail — stale
// generations age out by LRU.
const ResultCacheSize = 64

// New returns an empty engine with the paper's default stand-off options
// (integer positions in start/end attributes).
func New() *Engine {
	e := &Engine{
		docs:         map[string]*tree.Doc{},
		blobs:        map[string]blob.Store{},
		indexes:      map[indexKey]*core.RegionIndex{},
		options:      core.DefaultOptions(),
		plans:        plancache.New[planKey, *xqplan.Plan](PlanCacheSize),
		corpora:      map[string][]string{},
		results:      plancache.New[resultKey, *Result](ResultCacheSize),
		compactEvery: DefaultCompactThreshold,
	}
	e.tel = newEngineObs(e)
	return e
}

// disableTelemetry turns the engine's telemetry off entirely — no registry,
// no latency clocks. Only the instrumentation-overhead benchmark uses it
// (the "disabled" baseline the <5% guard compares against); call before any
// query runs.
func (e *Engine) disableTelemetry() { e.tel = nil }

// Declare sets an engine-wide default stand-off option (standoff-type,
// standoff-start, standoff-end, standoff-region), as if every query preamble
// declared it. Query preambles still override per query.
func (e *Engine) Declare(option, value string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	known, err := e.options.Set(option, value)
	if err != nil {
		return err
	}
	if !known {
		return fmt.Errorf("soxq: unknown option %q", option)
	}
	// Cached plans embed the effective options they were compiled under;
	// entries for the previous defaults can never be hit again, so drop
	// them. (Prepared statements keep their compile-time options — like a
	// database prepared statement, they are not retroactively re-planned.)
	e.plans.Purge()
	e.gen.Add(1)
	return nil
}

// LoadXML parses data and registers it under name for fn:doc.
func (e *Engine) LoadXML(name string, data []byte) error {
	d, err := xmlparse.Parse(name, data)
	if err != nil {
		return err
	}
	e.mu.Lock()
	// A reload supersedes the document: its cached indexes go with it, or each
	// one would pin the old tree for the life of the engine. Runs and cursors
	// that already resolved the old snapshot keep their own references.
	e.rekeyIndexes(e.docs[name], nil, nil)
	e.docs[name] = d
	e.gen.Add(1)
	e.mu.Unlock()
	return nil
}

// LoadXMLFile reads path and registers the document under name.
func (e *Engine) LoadXMLFile(name, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return e.LoadXML(name, data)
}

// LoadStandOff registers a stand-off annotation document together with the
// BLOB its regions refer into (used by the so:blob-text extension).
func (e *Engine) LoadStandOff(name string, data []byte, store blob.Store) error {
	if err := e.LoadXML(name, data); err != nil {
		return err
	}
	e.mu.Lock()
	e.blobs[name] = store
	e.mu.Unlock()
	return nil
}

// SetBlob attaches (or replaces) the BLOB of an already-loaded document.
func (e *Engine) SetBlob(name string, store blob.Store) {
	e.mu.Lock()
	e.blobs[name] = store
	e.gen.Add(1)
	e.mu.Unlock()
}

// ConvertToStandOff converts a loaded plain XML document into stand-off form
// (text content moved to a BLOB, region attributes added, record elements
// optionally permuted) and registers the result under soName.
func (e *Engine) ConvertToStandOff(name, soName string, permute bool, seed uint64) error {
	e.mu.RLock()
	d, ok := e.docs[name]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("soxq: no document %q", name)
	}
	cfg := xmark.DefaultStandOffConfig()
	cfg.Permute = permute
	cfg.Seed = seed
	res, err := xmark.StandOffize(d, cfg)
	if err != nil {
		return err
	}
	return e.LoadStandOff(soName, res.XML, blob.FromBytes(res.Blob))
}

// Unload removes a document (and its BLOB and cached indexes), and
// invalidates the plan cache. Plans hold no document references — fn:doc
// resolves at execution time — but dropping them keeps an unload a clean
// point-in-time barrier for callers that reload a changed document under
// the same name.
func (e *Engine) Unload(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.docs[name]
	delete(e.docs, name)
	delete(e.blobs, name)
	e.rekeyIndexes(d, nil, nil)
	e.plans.Purge()
	e.gen.Add(1)
}

// Documents returns the names of all loaded documents, sorted. The sort
// makes catalog listings (and everything built on them: soxqd responses,
// goldens, diffs between two listings) deterministic — map iteration order
// would shuffle them per call.
func (e *Engine) Documents() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.docs))
	for n := range e.docs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Prepared is a query compiled against an engine: parsed once, the function
// table built and arity-checked once, the section 3.3 candidate-pushdown
// decisions made statically, and the preamble options resolved against the
// engine defaults in effect at Prepare time. The underlying plan is
// immutable, so one Prepared may Exec from any number of goroutines
// concurrently — the repeated-query scenario the paper's loop-lifting
// targets pays the parse-and-compile cost exactly once.
type Prepared struct {
	eng  *Engine
	plan *xqplan.Plan
	src  string

	// parseNanos/compileNanos are the measured timings of this statement's
	// compile, zero when the plan was served from the plan cache (the
	// compile happened — and was timed — on some earlier statement). Trace
	// span durations come from here.
	parseNanos   int64
	compileNanos int64

	// lastTrace holds the most recent traced execution's span tree
	// (TraceLast); concurrent traced runs race benignly — latest wins.
	lastTrace atomic.Pointer[obs.QueryTrace]
}

// Prepare parses and compiles a query for repeated execution.
func (e *Engine) Prepare(q string) (*Prepared, error) {
	plan, parseNs, compileNs, err := compileTimed(q, e.currentOptions())
	if err != nil {
		return nil, err
	}
	e.tel.observeCompile(parseNs, compileNs)
	return &Prepared{eng: e, plan: plan, src: q, parseNanos: parseNs, compileNanos: compileNs}, nil
}

func (e *Engine) currentOptions() core.Options {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.options
}

// compile runs the parse and compile stages under the given option
// defaults.
func compile(q string, opts core.Options) (*xqplan.Plan, error) {
	m, err := xqparse.Parse(q)
	if err != nil {
		return nil, err
	}
	return xqplan.Compile(m, opts)
}

// compileTimed is compile with the two stages timed for the compile-latency
// histograms and the trace's parse/compile spans. Compiles are cache-miss
// rare, so the clock reads cost nothing in steady state.
func compileTimed(q string, opts core.Options) (plan *xqplan.Plan, parseNs, compileNs int64, err error) {
	t0 := time.Now()
	m, err := xqparse.Parse(q)
	if err != nil {
		return nil, 0, 0, err
	}
	parseNs = time.Since(t0).Nanoseconds()
	plan, err = xqplan.Compile(m, opts)
	compileNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, 0, 0, err
	}
	return plan, parseNs, compileNs, nil
}

// Exec runs the compiled query under the given configuration and returns the
// materialised result. It is a thin drain of the same cursor pipeline Stream
// exposes — built with unbounded chunks, since a full drain materialises per
// operator anyway — so the streaming and materialising paths share one
// engine. It is safe to call concurrently: each call builds a fresh pipeline
// over the shared immutable plan.
func (p *Prepared) Exec(cfg Config) (*Result, error) {
	ro := p.beginRun(cfg, "exec")
	cur, err := p.pipeline(cfg, 0, ro.st)
	if err != nil {
		return nil, err
	}
	items, err := xqexec.DrainAll(cur)
	ro.finish()
	if err != nil {
		return nil, err
	}
	return &Result{items: items}, nil
}

// Analyze executes the compiled query like Exec while collecting the
// per-operator runtime counters, and returns the result together with the
// EXPLAIN ANALYZE plan: the operator tree annotated with observed rows in
// and out, candidates scanned and join algorithms per StandOff step, and
// FLWOR tuple/chunk counts — next to the cost model's estimates, so
// estimated and observed cardinalities compare line by line. Counter
// collection costs one mutex-protected map update per operator evaluation
// (not per row), so Analyze timing is representative; Exec and Stream pay
// only a nil check. With cfg.StreamChunk > 0 the run is chunked like Stream,
// so the chunk counters reflect streamed execution.
func (p *Prepared) Analyze(cfg Config) (*Result, *PlanExplain, error) {
	st := xqplan.NewExecStats()
	st.Cal = &p.eng.cal
	ro := p.beginAnalyze(cfg, st)
	ev := p.evaluator(cfg)
	ev.Stats = st
	chunk := 0
	if cfg.StreamChunk > 0 {
		chunk = cfg.StreamChunk
	}
	cur, err := xqexec.Build(ev, xqexec.Config{ChunkSize: chunk, Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, nil, err
	}
	items, err := xqexec.DrainAll(cur)
	ro.finish()
	if err != nil {
		return nil, nil, err
	}
	return &Result{items: items}, p.explainWith(st), nil
}

// evaluator builds the per-run evaluator state for one execution of the
// plan. Document and index resolution go through a fresh runView, so the run
// drains one consistent snapshot generation even while mutations land.
func (p *Prepared) evaluator(cfg Config) *xqeval.Evaluator {
	return p.evaluatorWith(cfg, &runView{eng: p.eng, opts: p.plan.Options()})
}

// evaluatorWith is evaluator with the caller supplying the run view — the
// corpus shard path seeds the view so the corpus URI resolves to one member
// document (see corpus.go).
func (p *Prepared) evaluatorWith(cfg Config, rv *runView) *xqeval.Evaluator {
	e := p.eng
	return &xqeval.Evaluator{
		Plan:     p.plan,
		Resolver: rv.resolve,
		IndexFor: rv.indexFor,
		BlobFor:  e.blobFor,
		Strategy: cfg.Mode.strategy(),
		JoinCfg:  core.JoinConfig{UseHeap: cfg.HeapActiveList},
		Pushdown: !cfg.NoPushdown,
		Cal:      &e.cal,
		Met:      e.met(),
	}
}

// Query runs an XQuery with the default configuration, reusing a cached
// plan when the same query text was compiled before.
func (e *Engine) Query(q string) (*Result, error) {
	return e.QueryWith(q, Config{})
}

// QueryWith runs an XQuery under the given configuration. Plans are cached
// in a bounded LRU keyed by query text + effective engine options, so a
// repeated query costs one cache lookup plus execution — within measurement
// noise of holding a Prepared statement (see BenchmarkQueryCached).
func (e *Engine) QueryWith(q string, cfg Config) (*Result, error) {
	p, err := e.preparedCached(q)
	if err != nil {
		return nil, err
	}
	return p.Exec(cfg)
}

// preparedCached returns a Prepared for q, consulting the plan cache. The
// options snapshot taken here keys the cache AND seeds the compile, so a
// concurrent Declare can never associate a plan with the wrong key.
// Concurrent misses on the same key are collapsed: one compile serves every
// waiter (the cache's singleflight).
func (e *Engine) preparedCached(q string) (*Prepared, error) {
	opts := e.currentOptions()
	key := planKey{query: q, opts: opts}
	var parseNs, compileNs int64
	plan, err := e.plans.GetOrCompute(key, func() (*xqplan.Plan, error) {
		p, pNs, cNs, err := compileTimed(q, opts)
		if err != nil {
			return nil, err
		}
		parseNs, compileNs = pNs, cNs
		e.tel.observeCompile(pNs, cNs)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	// Cache hits (and coalesced waiters) leave the timings zero: their
	// compile happened on an earlier statement's clock.
	return &Prepared{eng: e, plan: plan, src: q, parseNanos: parseNs, compileNanos: compileNs}, nil
}

// PlanCacheStats reports the plan cache's cumulative hit and miss counts
// and its current size.
func (e *Engine) PlanCacheStats() (hits, misses uint64, size int) {
	hits, misses = e.plans.Stats()
	return hits, misses, e.plans.Len()
}

func (e *Engine) resolve(uri string) (*tree.Doc, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d, ok := e.docs[uri]
	if !ok {
		return nil, fmt.Errorf("document %q is not loaded", uri)
	}
	return d, nil
}

func (e *Engine) blobFor(d *tree.Doc) blob.Store {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.blobs[d.Name]
}

// indexFor returns the cached region index of d under opts, building it on
// first use (the paper's pre-created per-document index, section 3.3).
func (e *Engine) indexFor(d *tree.Doc, opts core.Options) (*core.RegionIndex, error) {
	key := indexKey{doc: d, opts: opts}
	e.mu.RLock()
	ix, ok := e.indexes[key]
	e.mu.RUnlock()
	if ok {
		return ix, nil
	}
	ix, err := core.BuildIndex(d, opts)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := e.indexes[key]; ok {
		return prev, nil
	}
	// Cache only indexes of current documents: a run pinned to a superseded
	// snapshot builds its index privately (memoised per run by its runView),
	// so the engine map never resurrects an old generation.
	if d.Fragment || e.docs[d.Name] == d {
		e.indexes[key] = ix
	}
	return ix, nil
}

// BuildIndex eagerly builds (and caches) the region index for a loaded
// document under the engine's current options, so that the first query does
// not pay for index construction.
func (e *Engine) BuildIndex(name string) error {
	d, err := e.resolve(name)
	if err != nil {
		return err
	}
	e.mu.RLock()
	opts := e.options
	e.mu.RUnlock()
	_, err = e.indexFor(d, opts)
	return err
}

// Result is an evaluated query result: a sequence of values.
type Result struct {
	items []xqeval.Item
}

// Len returns the number of items.
func (r *Result) Len() int { return len(r.items) }

// Value returns item i.
func (r *Result) Value(i int) Value { return Value{it: r.items[i]} }

// Values returns all items.
func (r *Result) Values() []Value {
	out := make([]Value, len(r.items))
	for i := range r.items {
		out[i] = Value{it: r.items[i]}
	}
	return out
}

// String renders the whole sequence, items separated by spaces, nodes as
// XML.
func (r *Result) String() string {
	var buf []byte
	for i := range r.items {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = Value{it: r.items[i]}.AppendXML(buf)
	}
	return string(buf)
}

// Strings returns the string value of every item.
func (r *Result) Strings() []string {
	out := make([]string, len(r.items))
	for i, it := range r.items {
		out[i] = it.StringValue()
	}
	return out
}

// Value is one item of a query result.
type Value struct {
	it xqeval.Item
}

// IsNode reports whether the value is a node (element, attribute, text...).
func (v Value) IsNode() bool { return v.it.IsNode() }

// String returns the item's string value (text content for nodes).
func (v Value) String() string { return v.it.StringValue() }

// XML renders a node as XML markup; atomic values render as their string
// value and attribute nodes as name="value".
func (v Value) XML() string {
	var buf [128]byte // most result rows fit: one allocation, the string
	return string(v.AppendXML(buf[:0]))
}

// AppendXML appends what XML returns to dst and returns the extended slice;
// a caller serialising many values reuses one buffer and allocates nothing
// per value.
func (v Value) AppendXML(dst []byte) []byte {
	switch v.it.Kind {
	case xqeval.KNode:
		return v.it.D.AppendXML(dst, v.it.Pre)
	case xqeval.KAttr:
		return v.it.D.AppendAttrXML(dst, v.it.Att)
	default:
		return append(dst, v.it.StringValue()...)
	}
}
