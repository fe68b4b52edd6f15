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
// internal/xqexec cursor pipeline). Prepare compiles through an LRU plan
// cache; Prepared.Run executes through bounded-memory cursors under the
// caller's context, and Exec, Stream and Analyze are its drained, streamed
// and instrumented forms (docs/ARCHITECTURE.md describes the stages).
//
// Every plan is observable: Prepared.Explain renders the operator tree with
// candidate policies, and Prepared.Analyze executes while counting
// per-operator rows, candidates, join algorithms and chunks — EXPLAIN and
// EXPLAIN ANALYZE, documented in docs/EXPLAIN.md.
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
	"context"
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
	"soxq/internal/xqparse"
	"soxq/internal/xqplan"
)

// Mode selects how StandOff steps are executed. The default, ModeAuto, runs
// the Loop-Lifted StandOff MergeJoin; ModeBasic and ModeUDF force the
// baselines of the paper's section 4.6 experiment on every step.
type Mode int

const (
	// ModeAuto (the zero value) runs the Loop-Lifted StandOff MergeJoin,
	// exactly like ModeLoopLifted.
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
	case ModeBasic:
		return core.StrategyBasic
	case ModeUDF:
		return core.StrategyNaive
	default:
		return core.StrategyLoopLifted
	}
}

// Config tunes query execution.
type Config struct {
	// Mode picks the StandOff join algorithm. The zero value runs
	// Loop-Lifted; ModeBasic and ModeUDF force the paper's baselines.
	Mode Mode
	// NoPushdown disables candidate-sequence pushdown of name tests and
	// [@attr op literal] predicates into StandOff steps; the step then scans
	// all annotations and filters afterwards (section 3.3's optimizer
	// discussion).
	NoPushdown bool
	// Parallelism is ignored: every run executes on its caller's goroutine.
	// Concurrency comes from running several queries at once.
	//
	// Deprecated: ignored; the field goes at the next API change.
	Parallelism int
	// StreamChunk is the number of loop tuples a run's pipeline evaluates
	// per chunk, and the number of context areas a streamed StandOff select
	// step joins per chunk (0 means the default, 1024). The size is fixed
	// for the whole run. Larger chunks amortise the loop-lifted StandOff
	// joins over more iterations; smaller chunks bound peak memory tighter.
	// Every entry point honours it: Exec, ExecCorpus and Analyze drain the
	// same chunked pipeline Stream returns.
	StreamChunk int
	// Trace records a query-lifecycle trace of this execution: a span tree
	// of parse/compile timings and per-operator row, candidate, join and
	// chunk counts, retained in the engine's bounded
	// trace ring and returned by Prepared.TraceLast. Tracing rides the same
	// per-operator collector as EXPLAIN ANALYZE, so it costs one map update
	// per operator evaluation — leave it off on hot paths and sample instead.
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

// Prepare parses and compiles a query for repeated execution through the
// engine's LRU plan cache, keyed by query text + effective engine options,
// so a repeated query costs one lookup (see BenchmarkQueryCached). The
// options snapshot taken here keys the cache AND seeds the compile, and
// concurrent misses on one key share one compile (singleflight).
func (e *Engine) Prepare(q string) (*Prepared, error) {
	opts := e.currentOptions()
	var parseNs, compileNs int64
	plan, err := e.plans.GetOrCompute(planKey{query: q, opts: opts}, func() (*xqplan.Plan, error) {
		// Both stages are timed for the compile histograms and the trace's
		// spans; compiles are cache-miss rare.
		t0 := time.Now()
		m, err := xqparse.Parse(q)
		if err != nil {
			return nil, err
		}
		parseNs = time.Since(t0).Nanoseconds()
		plan, err := xqplan.Compile(m, opts)
		if err != nil {
			return nil, err
		}
		compileNs = time.Since(t0).Nanoseconds()
		e.tel.observeCompile(parseNs, compileNs)
		return plan, nil
	})
	if err != nil {
		return nil, err
	}
	// Cache hits (and coalesced waiters) leave the timings zero: their
	// compile happened on an earlier statement's clock.
	return &Prepared{eng: e, plan: plan, src: q, parseNanos: parseNs, compileNanos: compileNs}, nil
}

func (e *Engine) currentOptions() core.Options {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.options
}

// Exec runs the compiled query under the given configuration and returns the
// materialised result: a drain of the pipeline Run returns, chunked by
// cfg.StreamChunk, so its working memory is bounded like Stream's and only
// the result itself is whole. It is safe to call concurrently: each call
// builds a fresh pipeline over the shared immutable plan.
func (p *Prepared) Exec(cfg Config) (*Result, error) {
	return drain(p.run(context.Background(), "", cfg, "exec"))
}

// Analyze executes the compiled query like Exec while collecting the
// per-operator runtime counters, and returns the result together with the
// EXPLAIN ANALYZE plan: the operator tree annotated with observed rows in
// and out, candidates scanned, join algorithms and delta merges per
// StandOff step, and FLWOR tuple/chunk counts. Counter collection costs one
// map update per operator evaluation (not per row), so Analyze timing is
// representative; Exec and Stream pay only a nil check. The run is chunked
// by cfg.StreamChunk like every other, so the chunk counters are those of
// Exec and Stream under the same configuration.
func (p *Prepared) Analyze(cfg Config) (*Result, *PlanExplain, error) {
	c, err := p.run(context.Background(), "", cfg, "analyze")
	res, err := drain(c, err)
	if err != nil {
		return nil, nil, err
	}
	return res, p.plan.ExplainWith(c.ro.st), nil
}

// Query runs an XQuery with the default configuration, reusing a cached
// plan when the same query text was compiled before.
func (e *Engine) Query(q string) (*Result, error) {
	p, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Exec(Config{})
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
	// Cache only indexes of current named documents: a run pinned to a
	// superseded snapshot, or querying a constructed fragment, builds its
	// index privately (memoised per run by its runView), so the engine map
	// never resurrects an old generation nor grows with every run.
	if err != nil {
		return nil, err
	}
	if d.Fragment {
		return ix, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := e.indexes[key]; ok {
		return prev, nil
	}
	if e.docs[d.Name] == d {
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
	_, err = e.indexFor(d, e.currentOptions())
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

// AppendJSON appends the JSON string literal of what XML returns to dst,
// byte for byte what encoding/json writes for v.XML() with HTML escaping on,
// in one pass.
func (v Value) AppendJSON(dst []byte) []byte {
	switch v.it.Kind {
	case xqeval.KNode:
		return v.it.D.AppendXMLJSON(dst, v.it.Pre)
	case xqeval.KAttr:
		return v.it.D.AppendAttrXMLJSON(dst, v.it.Att)
	default:
		return tree.AppendJSONString(dst, v.it.StringValue())
	}
}
