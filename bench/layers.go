package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"soxq"
	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xmlparse"
	"soxq/internal/xqparse"
	"soxq/internal/xqplan"
)

// The layer probes call one layer's public function at a time, on the
// workload's own inputs, each call under a span named after the layer. They
// run in the traced run only. Where a layer cannot be called alone (the
// cursor pipeline under serialisation, the server under the wire), its time
// is the difference of two measured passes; the README lists which.

// prober times probe calls and keeps the first error.
type prober struct {
	tr     *tracer
	budget time.Duration // how long a probe repeats for its median
	err    error
}

// time runs fn under a span until it has run minReps times and the budget
// has passed, giving up on minReps once 4x the budget is spent. It returns
// the median duration and run count.
func (p *prober) time(name string, minReps int, fn func() error) (time.Duration, int) {
	return p.repeat(name, minReps, p.budget, fn)
}

// exactly is time with a fixed run count, for probes whose count shows in a
// counter that must repeat.
func (p *prober) exactly(name string, reps int, fn func() error) (time.Duration, int) {
	return p.repeat(name, reps, 0, fn)
}

func (p *prober) repeat(name string, minReps int, budget time.Duration, fn func() error) (time.Duration, int) {
	if p.err != nil {
		return 0, 0
	}
	runtime.GC() // so that no collection of an earlier probe's garbage lands in this one
	var ds []float64
	start := time.Now()
	for len(ds) < minReps || time.Since(start) < budget {
		id := p.tr.begin(name, -1, -1)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		p.tr.end(id)
		if err != nil {
			p.err = fmt.Errorf("%s: %w", name, err)
			return 0, 0
		}
		ds = append(ds, float64(d))
		if budget > 0 && time.Since(start) > 4*budget {
			break // a slow probe runs once, not minReps times
		}
	}
	return time.Duration(median(ds)), len(ds)
}

// probeBudget is prober.budget at the frozen input size.
const probeBudget = 300 * time.Millisecond

// joinInput is the primary StandOff step of one document, ready for
// core.Join.
type joinInput struct {
	ix     *core.RegionIndex
	ctx    []core.CtxNode
	nIters int32
	cand   *core.Candidates
}

func joinInputs(fx *fixture, docs []*tree.Doc, ixs []*core.RegionIndex) ([]joinInput, error) {
	var out []joinInput
	for i, d := range docs {
		ctxID, ok1 := d.Dict().Lookup(fx.ctxElem)
		candID, ok2 := d.Dict().Lookup(fx.candElem)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("%s has no %s or %s elements", fx.docs[i].name, fx.ctxElem, fx.candElem)
		}
		in := joinInput{ix: ixs[i], nIters: 1, cand: ixs[i].Filter(d.ElementsByName(candID))}
		for j, pre := range d.ElementsByName(ctxID) {
			cn := core.CtxNode{Pre: pre}
			if fx.iterPerCtx {
				cn.Iter = int32(j)
				in.nIters = int32(j + 1)
			}
			in.ctx = append(in.ctx, cn)
		}
		out = append(out, in)
	}
	return out, nil
}

// joinAll runs the step on every document, as one corpus query would, and
// returns the pairs produced.
func joinAll(ins []joinInput, strat core.Strategy) int {
	arena := core.AcquireJoinArena()
	defer arena.Release()
	pairs := 0
	for _, in := range ins {
		pairs += len(core.Join(in.ix, core.SelectNarrow, strat, in.ctx, in.nIters, in.cand, core.JoinConfig{Arena: arena}))
	}
	return pairs
}

func parseAndIndex(p *prober, fx *fixture, reps int) (docs []*tree.Doc, ixs []*core.RegionIndex, parse, build time.Duration) {
	parse, _ = p.time("xmlparse.Parse", reps, func() error {
		docs = docs[:0]
		for _, d := range fx.docs {
			doc, err := xmlparse.Parse(d.name, d.xml)
			if err != nil {
				return err
			}
			docs = append(docs, doc)
		}
		return nil
	})
	build, _ = p.time("core.BuildIndex", reps, func() error {
		ixs = ixs[:0]
		for _, d := range docs {
			ix, err := core.BuildIndex(d, core.DefaultOptions())
			if err != nil {
				return err
			}
			ixs = append(ixs, ix)
		}
		return nil
	})
	return docs, ixs, parse, build
}

// probeEngine is an engine over a fixture with its primary query prepared.
type probeEngine struct {
	fx   *fixture
	eng  *soxq.Engine
	prep *soxq.Prepared
}

func newProbeEngine(fx *fixture) (*probeEngine, error) {
	eng, err := oracle(fx)
	if err != nil {
		return nil, err
	}
	for _, d := range fx.docs {
		if err := eng.BuildIndex(d.name); err != nil {
			return nil, err
		}
	}
	prep, err := eng.Prepare(fx.primary)
	if err != nil {
		return nil, err
	}
	return &probeEngine{fx, eng, prep}, nil
}

func (e *probeEngine) exec(cfg soxq.Config) (*soxq.Result, error) {
	if e.fx.corpus != "" {
		return e.prep.ExecCorpus(e.fx.corpus, cfg)
	}
	return e.prep.Exec(cfg)
}

func (e *probeEngine) stream(cfg soxq.Config) (*soxq.Cursor, error) {
	if e.fx.corpus != "" {
		return e.prep.StreamCorpus(e.fx.corpus, cfg)
	}
	return e.prep.Stream(cfg)
}

// drain pulls the primary query's stream to its end; each calls per row.
func (e *probeEngine) drain(cfg soxq.Config, each func(*soxq.Cursor)) (rows int, first time.Duration, err error) {
	t0 := time.Now()
	cur, err := e.stream(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer cur.Close()
	for cur.Next() {
		if rows == 0 {
			first = time.Since(t0)
		}
		rows++
		if each != nil {
			each(cur)
		}
	}
	return rows, first, cur.Err()
}

// memDelta is TotalAlloc bytes and Mallocs across fn.
func memDelta(fn func() error) (bytes, mallocs float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc), float64(b.Mallocs - a.Mallocs), err
}

// readPath is what the read-side probes hand on to the layer table.
type readPath struct {
	joinLL           time.Duration // core.Join, loop-lifted, primary step
	parseUS, planUS  float64       // per query text
	drain, drainXML  time.Duration // bare drain; drain calling Value().XML()
	wire, httpMedian time.Duration
	rows             int
}

// layerProbes measures every per-layer metric on fx (and, for what is
// quadratic or needs two sizes, on its tenth-size twin small). srv serves
// fx's documents. It returns the layer table of the primary request.
func layerProbes(tr *tracer, budget time.Duration, fx, small *fixture, srv *serverProc, nproc int, out *metricSet) ([]layerRow, error) {
	p := &prober{tr: tr, budget: budget}
	arenaHits0, arenaMiss0 := core.ArenaPoolStats()
	var rp readPath
	// Each stage drops what it built before the next starts, so a large
	// document's heap is not marked again and again under later timings.
	for _, stage := range []func() error{
		func() error { return kernelProbes(p, fx, small, &rp, out) },
		func() error { return textProbes(p, fx, &rp, out) },
		func() error { return engineProbes(p, fx, small, srv, nproc, &rp, out) },
		func() error { return mutationProbes(p, fx, out) },
	} {
		if err := stage(); err != nil {
			return nil, err
		}
		if p.err != nil {
			return nil, p.err
		}
	}
	hits, miss := core.ArenaPoolStats()
	dh, dm := float64(hits-arenaHits0), float64(miss-arenaMiss0)
	out.set("core.arena_hit_ratio", ratio(dh, dh+dm), "ratio", 0)

	// The primary request, layer by layer. The passes nest the way the code
	// does (request > drain+serialise > cursor pipeline > join kernel), so a
	// layer's self time is its pass minus the pass it contains.
	table := []layerRow{
		{Layer: "soxqd wire (JSON framing, HTTP write, client read)", SelfMS: ms(rp.wire)},
		{Layer: "soxq serialise (Value.XML per row)", SelfMS: ms(rp.drainXML - rp.drain)},
		{Layer: "xqexec+xqeval (cursor pipeline, shard merge)", SelfMS: ms(rp.drain - rp.joinLL)},
		{Layer: "core join kernel (primary step, loop-lifted)", SelfMS: ms(rp.joinLL)},
		{Layer: "xqplan compile (plan-cache miss only)", SelfMS: rp.planUS / 1e3},
		{Layer: "xqparse parse (plan-cache miss only)", SelfMS: rp.parseUS / 1e3},
	}
	for i := range table {
		table[i].Share = ratio(table[i].SelfMS, ms(rp.httpMedian))
	}
	return table, nil
}

// kernelProbes: xmlparse, core index build, the join kernel on the primary
// step per strategy, and the tree serialiser.
func kernelProbes(p *prober, fx, small *fixture, rp *readPath, out *metricSet) error {
	docs, ixs, parse, build := parseAndIndex(p, fx, 3)
	if p.err != nil {
		return p.err
	}
	regions := 0
	for _, ix := range ixs {
		regions += ix.NumRegions()
	}
	out.set("xmlparse.parse_ms", ms(parse), "ms", 3)
	out.set("xmlparse.mb_per_s", ratio(float64(fx.bytes())/1e6, parse.Seconds()), "MB/s", 3)
	out.set("core.index_build_ms", ms(build), "ms", 3)
	out.set("core.index_regions", float64(regions), "count", 0)

	ins, err := joinInputs(fx, docs, ixs)
	if err != nil {
		return err
	}
	pairs := 0
	ll, n := p.time("core.Join.looplifted", 5, func() error { pairs = joinAll(ins, core.StrategyLoopLifted); return nil })
	rp.joinLL = ll
	out.set("core.join_ll_ms", ms(ll), "ms", n)
	out.set("core.join_pairs", float64(pairs), "count", 0)
	basic, n := p.time("core.Join.basic", 1, func() error {
		if got := joinAll(ins, core.StrategyBasic); got != pairs {
			return fmt.Errorf("basic join gives %d pairs, loop-lifted %d", got, pairs)
		}
		return nil
	})
	out.set("core.join_basic_ms", ms(basic), "ms", n)
	out.set("core.basic_over_ll", ratio(float64(basic), float64(ll)), "ratio", 0)

	candID, _ := docs[0].Dict().Lookup(fx.candElem)
	nodes := docs[0].ElementsByName(candID)
	xmlString, n := p.time("tree.XMLString", 5, func() error {
		for _, pre := range nodes {
			_ = docs[0].XMLString(pre)
		}
		return nil
	})
	out.set("tree.xmlstring_ns_per_node", ratio(float64(xmlString), float64(len(nodes))), "ns", n*len(nodes))

	// The quadratic UDF join runs on the tenth-size twin, against
	// loop-lifted on the same input.
	docs, ixs, ins = nil, nil, nil
	sp := &prober{budget: p.budget} // the twin's parse and build are not layer spans
	sdocs, sixs, _, _ := parseAndIndex(sp, small, 1)
	if sp.err != nil {
		return sp.err
	}
	sins, err := joinInputs(small, sdocs, sixs)
	if err != nil {
		return err
	}
	spairs := 0
	sll, _ := p.time("core.Join.looplifted.small", 5, func() error { spairs = joinAll(sins, core.StrategyLoopLifted); return nil })
	udf, n := p.time("core.Join.naive.small", 1, func() error {
		if got := joinAll(sins, core.StrategyNaive); got != spairs {
			return fmt.Errorf("naive join gives %d pairs, loop-lifted %d", got, spairs)
		}
		return nil
	})
	out.set("core.join_udf_ms", ms(udf), "ms", n)
	out.set("core.udf_over_ll", ratio(float64(udf), float64(sll)), "ratio", 0)
	return nil
}

// textProbes: xqparse and xqplan on every query text of the workload, cold.
func textProbes(p *prober, fx *fixture, rp *readPath, out *metricSet) error {
	const reps = 20
	var parseNs, compileNs []float64
	for rep := 0; rep < reps; rep++ {
		var pn, cn time.Duration
		for _, q := range fx.texts {
			id := p.tr.begin("xqparse.Parse", -1, -1)
			t0 := time.Now()
			m, err := xqparse.Parse(q)
			pn += time.Since(t0)
			p.tr.end(id)
			if err != nil {
				return fmt.Errorf("xqparse.Parse %q: %w", q, err)
			}
			id = p.tr.begin("xqplan.Compile", -1, -1)
			t0 = time.Now()
			_, err = xqplan.Compile(m, core.DefaultOptions())
			cn += time.Since(t0)
			p.tr.end(id)
			if err != nil {
				return fmt.Errorf("xqplan.Compile %q: %w", q, err)
			}
		}
		parseNs, compileNs = append(parseNs, float64(pn)), append(compileNs, float64(cn))
	}
	rp.parseUS = median(parseNs) / 1e3 / float64(len(fx.texts))
	rp.planUS = median(compileNs) / 1e3 / float64(len(fx.texts))
	out.set("xqparse.parse_us", rp.parseUS, "us", reps*len(fx.texts))
	out.set("xqplan.compile_us", rp.planUS, "us", reps*len(fx.texts))
	return nil
}

// engineProbes: the primary query through the public API, under each forced
// strategy (xqeval), as a bare cursor drain (xqexec), with serialisation
// (soxq), and over HTTP (soxqd).
func engineProbes(p *prober, fx, small *fixture, srv *serverProc, nproc int, rp *readPath, out *metricSet) error {
	pe, err := newProbeEngine(fx)
	if err != nil {
		return err
	}
	execAs := func(e *probeEngine, name string, m soxq.Mode, minReps int) (time.Duration, int) {
		return p.time("soxq.Exec."+name, minReps, func() error { _, err := e.exec(soxq.Config{Mode: m}); return err })
	}
	execLL, n := execAs(pe, "looplifted", soxq.ModeLoopLifted, 5)
	out.set("xqeval.ll_ms", ms(execLL), "ms", n)
	execAuto, _ := execAs(pe, "auto", soxq.ModeAuto, 5)
	out.set("xqplan.auto_over_ll", ratio(float64(execAuto), float64(execLL)), "ratio", 0)
	execBasic, n := execAs(pe, "basic", soxq.ModeBasic, 1)
	out.set("xqeval.basic_ms", ms(execBasic), "ms", n)
	allocB, _, err := memDelta(func() error { _, err := pe.exec(soxq.Config{}); return err })
	if err != nil {
		return err
	}
	out.set("xqeval.exec_alloc_mb", allocB/1e6, "MB", 1)

	// Bare drain: rows pulled, values untouched; sequential, then nproc
	// workers.
	var firsts []float64
	bare := func() error {
		var first time.Duration
		var err error
		rp.rows, first, err = pe.drain(soxq.Config{}, nil)
		firsts = append(firsts, ms(first))
		return err
	}
	rp.drain, n = p.time("xqexec.drain", 5, bare)
	if p.err != nil {
		return p.err
	}
	if rp.rows == 0 {
		return fmt.Errorf("primary query %q streams no rows", fx.primary)
	}
	out.set("xqexec.stream_drain_ms", ms(rp.drain), "ms", n)
	out.set("xqexec.first_row_ms", median(firsts), "ms", n)
	out.set("xqexec.stream_over_exec", ratio(float64(rp.drain), float64(execAuto)), "ratio", 0)
	bareB, bareMallocs, _ := memDelta(bare)
	out.set("xqexec.stream_alloc_mb", bareB/1e6, "MB", 1)
	par, n := p.time("xqexec.drain.parallel", 5, func() error {
		_, _, err := pe.drain(soxq.Config{Parallelism: nproc}, nil)
		return err
	})
	out.set("xqexec.merge_par_ms", ms(par), "ms", n)
	out.set("xqexec.shard_speedup", ratio(float64(rp.drain), float64(par)), "ratio", 0)

	// Serialisation: the same drain calling Value().XML() per row, and
	// through Cursor.WriteXML; each minus the bare drain.
	withXML := func() error {
		got, _, err := pe.drain(soxq.Config{}, func(c *soxq.Cursor) { _ = c.Value().XML() })
		if err == nil && got != rp.rows {
			err = fmt.Errorf("%d rows, bare drain had %d", got, rp.rows)
		}
		return err
	}
	rp.drainXML, n = p.time("soxq.drain+serialize", 5, withXML)
	_, xmlMallocs, _ := memDelta(withXML)
	out.set("soxq.serialize_ms", ms(rp.drainXML-rp.drain), "ms", n)
	out.set("soxq.serialize_allocs_per_row", (xmlMallocs-bareMallocs)/float64(rp.rows), "1/row", 1)
	writeXML, n := p.time("soxq.Cursor.WriteXML", 5, func() error {
		cur, err := pe.stream(soxq.Config{})
		if err != nil {
			return err
		}
		defer cur.Close()
		return cur.WriteXML(io.Discard)
	})
	out.set("soxq.writexml_ms", ms(writeXML-rp.drain), "ms", n)

	if err := serverProbes(p, fx, pe, srv, rp, out); err != nil {
		return err
	}

	// The tenth-size twin: UDF, which is quadratic, and the scaling
	// exponent of loop-lifted evaluation between the two sizes.
	pe = nil
	spe, err := newProbeEngine(small)
	if err != nil {
		return err
	}
	smallLL, _ := execAs(spe, "looplifted.small", soxq.ModeLoopLifted, 5)
	execUDF, n := execAs(spe, "udf.small", soxq.ModeUDF, 1)
	out.set("xqeval.udf_ms", ms(execUDF), "ms", n)
	out.set("xqeval.scale_exponent", math.Log10(ratio(float64(execLL), float64(smallLL))), "exponent", 0)
	return nil
}

// mutationProbes times the write path on a private engine over docs[0]:
// single inserts and deletes, the delta merge a first read pays, one
// compaction of a 4095-annotation delta, and bursts that cross the default
// auto-compaction threshold.
func mutationProbes(p *prober, fx *fixture, out *metricSet) error {
	one := *fx
	one.docs, one.corpus = fx.docs[:1], ""
	one.primary = fmt.Sprintf(`doc(%q)//%s/select-narrow::mark`, fx.docs[0].name, fx.ctxElem)
	pe, err := newProbeEngine(&one)
	if err != nil {
		return err
	}
	doc := fx.docs[0].name
	timed := func(name string, fn func() error) (float64, error) {
		id := p.tr.begin(name, -1, -1)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		p.tr.end(id)
		return float64(d), err
	}
	k := 0
	insert := func() (float64, error) {
		st, en := markAt(k, fx.span)
		k++
		return timed("soxq.InsertAnnotation", func() error {
			return pe.eng.InsertAnnotation(doc, "mark", soxq.Region{Start: st, End: en})
		})
	}
	deleted := 0
	remove := func() (float64, error) {
		st, en := markAt(deleted, fx.span)
		deleted++
		return timed("soxq.DeleteAnnotation", func() error {
			n, err := pe.eng.DeleteAnnotation(doc, "mark", st, en)
			if err == nil && n != 1 {
				err = fmt.Errorf("delete of mark [%d,%d] removed %d", st, en, n)
			}
			return err
		})
	}

	const pending = soxq.DefaultCompactThreshold - 1
	pe.eng.SetAutoCompactThreshold(0)
	var ins []float64
	for k < pending {
		d, err := insert()
		if err != nil {
			return err
		}
		ins = append(ins, d)
	}
	out.set("soxq.insert_us", median(ins)/1e3, "us", len(ins))
	// The first read of a delta index merges the delta into the base
	// orderings; the second read of the same snapshot does not.
	d1, err := timed("soxq.drain.first_after_write", func() error { _, _, err := pe.drain(soxq.Config{}, nil); return err })
	if err != nil {
		return err
	}
	d2, err := timed("soxq.drain.second", func() error { _, _, err := pe.drain(soxq.Config{}, nil); return err })
	if err != nil {
		return err
	}
	out.set("core.delta_materialize_ms", (d1-d2)/1e6, "ms", 1)
	compact, err := timed("soxq.CompactAnnotations", func() error { return pe.eng.CompactAnnotations(doc) })
	if err != nil {
		return err
	}
	out.set("core.compact_ms", compact/1e6, "ms", 1)
	const deletes = 40
	var dels []float64
	for deleted < deletes {
		d, err := remove()
		if err != nil {
			return err
		}
		dels = append(dels, d)
	}
	out.set("soxq.delete_us", median(dels)/1e3, "us", len(dels))

	// Bursts as annotate-burst writes them. A delete costs a merge of the
	// whole delta, so a run has time for a dozen bursts, not the thousand a
	// p99 needs: the pending delta is filled so that the default threshold
	// is crossed exactly once, half-way, and the slowest burst is the
	// compaction stall a writer sees.
	const bursts = 12
	const perBurst = burstInserts + burstDeletes
	for fill := soxq.DefaultCompactThreshold - deletes - bursts/2*perBurst; fill > 0; fill-- {
		if _, err := insert(); err != nil {
			return err
		}
	}
	pe.eng.SetAutoCompactThreshold(soxq.DefaultCompactThreshold)
	before, err := engineCounter(pe.eng, "soxq_compactions_total")
	if err != nil {
		return err
	}
	var bs []float64
	for b := 0; b < bursts; b++ {
		id := p.tr.begin("op.burst", -1, -1)
		t0 := time.Now()
		for i := 0; i < burstInserts; i++ {
			if _, err := insert(); err != nil {
				return err
			}
		}
		for i := 0; i < burstDeletes; i++ {
			if _, err := remove(); err != nil {
				return err
			}
		}
		bs = append(bs, ms(time.Since(t0)))
		p.tr.end(id)
	}
	after, err := engineCounter(pe.eng, "soxq_compactions_total")
	if err != nil {
		return err
	}
	out.set("core.compactions", after-before, "count", 0)
	out.set("e2e.write_burst_p50_ms", median(bs), "ms", len(bs))
	out.set("e2e.write_burst_max_ms", slices.Max(bs), "ms", len(bs))
	return nil
}

// promCounters parses Prometheus text exposition into name{labels} -> value.
func promCounters(text []byte) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

func engineCounter(eng *soxq.Engine, name string) (float64, error) {
	var buf bytes.Buffer
	if err := eng.WriteMetrics(&buf); err != nil {
		return 0, err
	}
	v, ok := promCounters(buf.Bytes())[name]
	if !ok {
		return 0, fmt.Errorf("engine metrics have no %s", name)
	}
	return v, nil
}

// serverState is the server's counters at one moment.
type serverState struct {
	prom     map[string]float64
	admitted float64
	rejected float64
}

func serverCounters(srv *serverProc) (serverState, error) {
	var st serverState
	text, err := srv.scrape("/metrics")
	if err != nil {
		return st, err
	}
	st.prom = promCounters(text)
	health, err := srv.scrape("/healthz")
	if err != nil {
		return st, err
	}
	var h struct{ Admitted, Rejected float64 }
	if err := json.Unmarshal(health, &h); err != nil {
		return st, fmt.Errorf("/healthz: %w", err)
	}
	st.admitted, st.rejected = h.Admitted, h.Rejected
	return st, nil
}

// cacheMetrics reports the plan and result cache behaviour between two
// scrapes of the server.
func cacheMetrics(a, b serverState, out *metricSet) {
	d := func(name string) float64 { return b.prom[name] - a.prom[name] }
	ph, pm := d("soxq_plan_cache_hits_total"), d("soxq_plan_cache_misses_total")
	rh, rm := d("soxq_result_cache_hits_total"), d("soxq_result_cache_misses_total")
	out.set("plancache.plan_hit_ratio", ratio(ph, ph+pm), "ratio", 0)
	out.set("plancache.result_hit_ratio", ratio(rh, rh+rm), "ratio", 0)
	out.set("plancache.plan_evictions", d(`soxq_plan_cache_evictions_total{reason="lru"}`), "count", 0)
	out.set("soxqd.admitted", b.admitted-a.admitted, "count", 0)
	out.set("soxqd.rejected", b.rejected-a.rejected, "count", 0)
}

// serverProbes measures the wire: the primary query over HTTP against the
// in-process drain-and-serialise of the same rows, and the fixed cost of a
// request from a query that does nothing.
func serverProbes(p *prober, fx *fixture, pe *probeEngine, srv *serverProc, rp *readPath, out *metricSet) error {
	c := newClient()
	defer c.close()
	params := ""
	if fx.corpus != "" {
		params = "&corpus=" + fx.corpus
	}
	url := srv.queryURL(fx.primary, params)
	var r reply
	httpP50, n := p.exactly("soxqd.request", 5, func() error { // so that soxqd.admitted repeats
		var err error
		r, err = c.query(url)
		if err == nil && r.rows != rp.rows {
			err = fmt.Errorf("server streams %d rows, engine %d", r.rows, rp.rows)
		}
		return err
	})
	if p.err != nil {
		return p.err
	}
	rp.httpMedian, rp.wire = httpP50, httpP50-rp.drainXML
	wire := rp.wire
	out.set("soxqd.wire_ms", ms(wire), "ms", n)
	out.set("soxqd.bytes_per_row", ratio(float64(r.bytes), float64(r.rows)), "B/row", 0)
	out.set("soxqd.wire_share", ratio(float64(wire), float64(httpP50)), "ratio", 0)

	const pings = 2000 // p99 with 20 samples beyond it
	one := srv.queryURL("1", "")
	var overHTTP, inProcess []float64
	for i := 0; i < pings; i++ {
		r, err := c.query(one)
		if err != nil {
			return fmt.Errorf("q=1: %w", err)
		}
		overHTTP = append(overHTTP, us(r.total))
		t0 := time.Now()
		if _, err := pe.eng.Query("1"); err != nil {
			return err
		}
		inProcess = append(inProcess, us(time.Since(t0)))
	}
	p99, err := percentile(overHTTP, 99)
	if err != nil {
		return err
	}
	out.set("soxqd.request_overhead_us", median(overHTTP)-median(inProcess), "us", pings)
	out.set("soxqd.request_p99_us", p99, "us", pings)
	return nil
}
