package soxq

import (
	"fmt"
	"strings"
	"testing"

	"soxq/internal/xmark"
)

// xmarkEngine generates a small stand-off XMark corpus (the benchmark
// documents of the paper's Figure 6) and loads it as "xmark-so.xml".
func xmarkEngine(t *testing.T, scale float64) *Engine {
	t.Helper()
	data, err := xmark.GenerateBytes(xmark.Config{Scale: scale, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	eng := New()
	if err := eng.LoadXML("xmark.xml", data); err != nil {
		t.Fatal(err)
	}
	if err := eng.ConvertToStandOff("xmark.xml", "xmark-so.xml", true, 5); err != nil {
		t.Fatal(err)
	}
	return eng
}

func xmarkStandOffQuery(q int) string { return xmark.StandOffQuery(q, "xmark-so.xml") }

// figure2Doc is the sample document of the paper's Figure 1/2 walkthrough.
const figure2Doc = `<doc>
  <music artist="U2" start="0" end="31"/>
  <music artist="Bach" start="52" end="94"/>
  <shot id="Intro" start="0" end="8"/>
  <shot id="Interview" start="8" end="64"/>
  <shot id="Outro" start="64" end="94"/>
</doc>`

func figure2Engine(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	if err := eng.LoadXML("d.xml", []byte(figure2Doc)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestExplainGoldenAxisQuery pins the rendered plan of the Figure 2 example
// in its axis form, before and after execution: the stand-off step reads
// strategy=auto with no estimate until an auto-mode Exec resolves it against
// the document's region index (one context row — nothing to loop-lift, so
// Basic — with the cost-model record rendered beside the decision).
func TestExplainGoldenAxisQuery(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`for $s in doc("d.xml")//music[@artist = "U2"]/select-narrow::shot
	         return string($s/@id)`)
	if err != nil {
		t.Fatal(err)
	}
	wantBefore := `options: type=xs:integer start=@start end=@end
folds: 0
plan:
  flwor
    for $s in
      path doc("d.xml")
        step descendant-or-self::node()
        step child::music[@artist = "U2"] pred{attr}
        step select-narrow::shot standoff{op=select-narrow push=by-name(shot) nopush=all+filter strategy=auto}
    return string($s/@id)
stream:
  flwor [pipelined] for $s tuples stream in chunks; loop body loop-lifted per chunk; work-stealing parallel eligible
    path [pipelined] final StandOff step select-narrow streams per context chunk through an ordered dedup merge when the context is single-document
`
	if got := prep.Explain().String(); got != wantBefore {
		t.Fatalf("explain before exec:\n%s\nwant:\n%s", got, wantBefore)
	}
	res, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != "Intro" {
		t.Fatalf("result = %q, want Intro", got)
	}
	wantAfter := strings.Replace(wantBefore, "strategy=auto}",
		"strategy=auto(basic)} est{cand=3 ctx=1 out=3 basic=4 ll=36}", 1)
	if got := prep.Explain().String(); got != wantAfter {
		t.Fatalf("explain after exec:\n%s\nwant:\n%s", got, wantAfter)
	}
}

// TestExplainAnalyzeGolden pins the EXPLAIN ANALYZE rendering: the same tree
// annotated with the observed per-operator counters of the run Analyze
// performed — estimated and observed cardinalities side by side.
func TestExplainAnalyzeGolden(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`for $s in doc("d.xml")//music[@artist = "U2"]/select-narrow::shot
	         return string($s/@id)`)
	if err != nil {
		t.Fatal(err)
	}
	res, pe, err := prep.Analyze(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != "Intro" {
		t.Fatalf("result = %q, want Intro", got)
	}
	if !pe.Analyzed {
		t.Fatal("Analyzed = false on an Analyze explain")
	}
	want := `options: type=xs:integer start=@start end=@end
folds: 0
plan:
  flwor (tuples=1 out=1 chunks=1)
    for $s in
      path doc("d.xml") (out=1)
        step descendant-or-self::node() (in=1 out=13)
        step child::music[@artist = "U2"] pred{attr} (in=13 out=1)
        step select-narrow::shot standoff{op=select-narrow push=by-name(shot) nopush=all+filter strategy=auto(basic)} est{cand=3 ctx=1 out=3 basic=4 ll=36} (in=1 out=1 cand=3 joins=basic:1 stream{chunks=1 chunk=1..1})
    return string($s/@id)
stream:
  flwor [pipelined] for $s tuples stream in chunks; loop body loop-lifted per chunk; work-stealing parallel eligible
    path [pipelined] final StandOff step select-narrow streams per context chunk through an ordered dedup merge when the context is single-document
`
	if got := pe.String(); got != want {
		t.Fatalf("analyze:\n%s\nwant:\n%s", got, want)
	}
}

// TestAnalyzeChunkedCountsChunks: an Analyze run with a stream chunk size
// reports the chunked execution (the streaming path's counters), and the
// observed totals match the unchunked run.
func TestAnalyzeChunkedCountsChunks(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`for $i in 1 to 100 return $i * 2`)
	if err != nil {
		t.Fatal(err)
	}
	res, pe, err := prep.Analyze(Config{StreamChunk: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 100 {
		t.Fatalf("result len = %d, want 100", res.Len())
	}
	flwor := pe.Plan[0]
	if flwor.Kind != "flwor" || flwor.Obs == nil {
		t.Fatalf("top operator = %+v, want analyzed flwor", flwor)
	}
	if flwor.Obs.Chunks != 7 { // ceil(100/16)
		t.Fatalf("chunks = %d, want 7", flwor.Obs.Chunks)
	}
	if flwor.Obs.RowsIn != 100 || flwor.Obs.RowsOut != 100 {
		t.Fatalf("tuples=%d out=%d, want 100/100", flwor.Obs.RowsIn, flwor.Obs.RowsOut)
	}
}

// TestAnalyzeNestedFLWORCounts is the regression test for the nested-loop
// counter bug: the chunked pipeline used to count only first-level tuples
// (4 here), so whenever a nested loop crossed the fallback boundary into the
// materialising evaluator — which counts tuples after full clause expansion
// (12 here) — the same FLWOR reported different totals, multiplying per
// nesting level. The chunk counter now records post-expansion tuples, so
// every execution style reports the one true count.
func TestAnalyzeNestedFLWORCounts(t *testing.T) {
	eng := figure2Engine(t)
	const q = `for $i in 1 to 4 for $j in 1 to 3 return $j * $i`
	for _, tc := range []struct {
		cfg    Config
		chunks int64 // 0 = don't pin (parallel partitioning varies)
	}{
		{Config{}, 1},                               // Exec-style drain: one chunk
		{Config{StreamChunk: 2}, 8},                 // 2 outer chunks x (2+1) inner... 4 children x 2 chunks
		{Config{StreamChunk: 2, Parallelism: 4}, 8}, // below the gate: same sequential path
		{Config{StreamChunk: 100}, 4},               // one outer chunk, 4 child cursors x 1 chunk
	} {
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, pe, err := prep.Analyze(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 12 {
			t.Fatalf("cfg %+v: result len = %d, want 12", tc.cfg, res.Len())
		}
		fl := pe.Plan[0]
		if fl.Kind != "flwor" || fl.Obs == nil {
			t.Fatalf("cfg %+v: top operator = %+v, want analyzed flwor", tc.cfg, fl)
		}
		if fl.Obs.Invocations != 1 {
			t.Errorf("cfg %+v: invocations = %d, want 1 (no double-count)", tc.cfg, fl.Obs.Invocations)
		}
		if fl.Obs.RowsIn != 12 || fl.Obs.RowsOut != 12 {
			t.Errorf("cfg %+v: tuples=%d out=%d, want 12/12 (post-expansion count in every mode)",
				tc.cfg, fl.Obs.RowsIn, fl.Obs.RowsOut)
		}
		if tc.chunks != 0 && fl.Obs.Chunks != tc.chunks {
			t.Errorf("cfg %+v: chunks = %d, want %d", tc.cfg, fl.Obs.Chunks, tc.chunks)
		}
	}

	// The materialising reference: the same nested FLWOR evaluated inside an
	// aggregate reports the identical totals.
	prep, err := eng.Prepare(`count(for $i in 1 to 4 for $j in 1 to 3 return $j * $i)`)
	if err != nil {
		t.Fatal(err)
	}
	_, pe, err := prep.Analyze(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var fl *OpNode
	var walk func(ns []*OpNode)
	walk = func(ns []*OpNode) {
		for _, n := range ns {
			if n.Kind == "flwor" && fl == nil {
				fl = n
			}
			walk(n.Children)
		}
	}
	walk(pe.Plan)
	if fl == nil || fl.Obs == nil {
		t.Fatal("no analyzed flwor under the aggregate")
	}
	if fl.Obs.RowsIn != 12 || fl.Obs.RowsOut != 12 || fl.Obs.Invocations != 1 {
		t.Fatalf("materialised nested flwor: inv=%d tuples=%d out=%d, want 1/12/12",
			fl.Obs.Invocations, fl.Obs.RowsIn, fl.Obs.RowsOut)
	}
}

// TestExplainGoldenNestedStream pins the stream section of a nested FLWOR
// (the flwor-nested cursor-valued-binding line docs/EXPLAIN.md documents):
// the streamable inner for renders as a child operator of the streamed
// loop, while a StandOff inner binding stays off the nested path.
func TestExplainGoldenNestedStream(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`for $m in doc("d.xml")//music for $i in 1 to 3 return ($m/@artist, $i)`)
	if err != nil {
		t.Fatal(err)
	}
	got := prep.Explain().String()
	wantStream := `stream:
  flwor [pipelined] for $m tuples stream in chunks; loop body loop-lifted per chunk; work-stealing parallel eligible
    path [pipelined] final step descendant::music streams per context node when context subtrees are disjoint
    flwor-nested [pipelined] inner for $i binds a child cursor per parent tuple under bounded chunks; inner tuples stream in chunks of their own
      range [pipelined] integers generated on demand
`
	if !strings.HasSuffix(got, wantStream) {
		t.Fatalf("nested stream section:\n%s\nwant suffix:\n%s", got, wantStream)
	}

	// A StandOff inner binding keeps the expanded (loop-lifted) path: no
	// flwor-nested line.
	prep, err = eng.Prepare(`for $m in doc("d.xml")//music for $s in $m/select-narrow::shot return $s`)
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.Explain().String(); strings.Contains(got, "flwor-nested") {
		t.Fatalf("StandOff inner binding must not stream as a child cursor:\n%s", got)
	}
}

// TestExplainGoldenUDFQuery pins the plan of the Figure 2 library-function
// form: the function declaration rendered above the body, both //
// abbreviations compiled into fused descendant steps, and the FLWOR/filter
// structure visible inside the function body.
func TestExplainGoldenUDFQuery(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`
declare function local:select-narrow($input) {
  (for $q in $input
   for $p in root($q)//*
   where $p/@start >= $q/@start
     and $p/@end <= $q/@end
   return $p)/.
};
for $s in local:select-narrow(doc("d.xml")//music)/self::shot
return string($s/@id)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Exec(Config{}); err != nil {
		t.Fatal(err)
	}
	want := `options: type=xs:integer start=@start end=@end
folds: 0
plan:
  declare function local:select-narrow#1
    path
      flwor
        for $q in $input
        for $p in
          path root($q)
            step descendant::* (fused //)
        where $p/@start >= $q/@start and $p/@end <= $q/@end
        return $p
      step self::node()
  flwor
    for $s in
      path
        function local:select-narrow#1
          path doc("d.xml")
            step descendant::music (fused //)
        step self::shot
    return string($s/@id)
stream:
  flwor [pipelined] for $s tuples stream in chunks; loop body loop-lifted per chunk; work-stealing parallel eligible
    path [pipelined] final step self::shot streams per context node when context subtrees are disjoint
`
	if got := prep.Explain().String(); got != want {
		t.Fatalf("explain:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainGlobalVariableDeclaration: a StandOff step inside a global
// variable initializer stays visible in the plan tree (declarations render
// before the body), with its strategy resolved after execution.
func TestExplainGlobalVariableDeclaration(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(
		`declare variable $shots := doc("d.xml")//music/select-narrow::shot; count($shots)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Exec(Config{}); err != nil {
		t.Fatal(err)
	}
	got := prep.Explain().String()
	if !strings.Contains(got, "declare variable $shots :=") {
		t.Fatalf("explain lacks the variable declaration:\n%s", got)
	}
	if !strings.Contains(got, "select-narrow::shot standoff{") ||
		!strings.Contains(got, "strategy=auto(basic)") {
		t.Fatalf("explain lacks the initializer's resolved StandOff step:\n%s", got)
	}
}

// TestExplainAbsoluteAttributePath: /@id must render as /@id, not //@id (a
// semantically different XPath).
func TestExplainAbsoluteAttributePath(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`for $s in doc("d.xml")//shot return /@id`)
	if err != nil {
		t.Fatal(err)
	}
	got := prep.Explain().String()
	if !strings.Contains(got, "return /@id") || strings.Contains(got, "//@id") {
		t.Fatalf("absolute attribute path rendered wrong:\n%s", got)
	}
}

// TestExplainFoldCount: the fold counter surfaces in Explain.
func TestExplainFoldCount(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`concat("a", "b"), 1 + 2, if (true()) then 1 else 2`)
	if err != nil {
		t.Fatal(err)
	}
	if got := prep.Explain().Folds; got != 3 {
		t.Fatalf("Folds = %d, want 3", got)
	}
}

// bigStandoffEngine loads a document whose dense layer exceeds the cost
// model's crossover while the sparse layer stays below it.
func bigStandoffEngine(t *testing.T, dense, sparse int) *Engine {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < dense; i++ {
		fmt.Fprintf(&sb, `<word start="%d" end="%d"/>`, i*10, i*10+9)
	}
	for i := 0; i < sparse; i++ {
		fmt.Fprintf(&sb, `<chapter start="%d" end="%d"/>`, i*1000, i*1000+999)
	}
	sb.WriteString("</doc>")
	eng := New()
	if err := eng.LoadXML("d.xml", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	return eng
}

// soStrategies collects the strategy strings of the plan's stand-off steps
// in discovery order.
func soStrategies(prep *Prepared) []string {
	var out []string
	for _, p := range prep.Explain().Paths {
		for _, s := range p.Steps {
			if s.StandOff {
				out = append(out, s.Strategy)
			}
		}
	}
	return out
}

// soStrategy extracts the strategy string of the single stand-off step.
func soStrategy(t *testing.T, prep *Prepared) string {
	t.Helper()
	ss := soStrategies(prep)
	if len(ss) != 1 {
		t.Fatalf("plan has %d stand-off steps, want 1", len(ss))
	}
	return ss[0]
}

// TestStrategyFlipsPerLayer: the same query shape resolves to different
// join strategies depending on which annotation layer it targets — the
// per-step decision a single per-query knob cannot make. The sparse case
// pins the context side of cost model v2: one context row means there is no
// loop to lift, so the huge candidate layer still runs Basic.
func TestStrategyFlipsPerLayer(t *testing.T) {
	eng := bigStandoffEngine(t, 500, 5)
	dense, err := eng.Prepare(`doc("d.xml")//chapter/select-narrow::word`)
	if err != nil {
		t.Fatal(err)
	}
	single, err := eng.Prepare(`doc("d.xml")//chapter[1]/select-narrow::word`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dense.Exec(Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Exec(Config{}); err != nil {
		t.Fatal(err)
	}
	// Five chapters feed the dense-layer join: 5 iterations × 500
	// candidates amortise the loop-lifted machinery.
	if got := soStrategy(t, dense); got != "auto(looplifted)" {
		t.Fatalf("dense-layer step strategy = %q, want auto(looplifted)", got)
	}
	// One chapter feeds the same join: a single-iteration Basic merge beats
	// the loop-lifted bookkeeping no matter how many candidates there are
	// (the v1 fixed-64 threshold would have picked Loop-Lifted here).
	if got := soStrategy(t, single); got != "auto(basic)" {
		t.Fatalf("single-context step strategy = %q, want auto(basic)", got)
	}
}

// TestStrategyFlipsWithContextCardinality is the cost-model-v2 acceptance
// case end to end: two queries against the SAME five-candidate layer — so
// the v1 threshold (5 <= 64: Basic) would answer Basic for both — flip
// between Basic and Loop-Lifted purely on observed context cardinality.
func TestStrategyFlipsWithContextCardinality(t *testing.T) {
	eng := bigStandoffEngine(t, 500, 5)
	small, err := eng.Prepare(`doc("d.xml")//word[1]/select-wide::chapter`)
	if err != nil {
		t.Fatal(err)
	}
	big, err := eng.Prepare(`doc("d.xml")//word/select-wide::chapter`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Exec(Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := big.Exec(Config{}); err != nil {
		t.Fatal(err)
	}
	if got := soStrategy(t, small); got != "auto(basic)" {
		t.Fatalf("1 context row: strategy = %q, want auto(basic)", got)
	}
	if got := soStrategy(t, big); got != "auto(looplifted)" {
		t.Fatalf("500 context rows: strategy = %q, want auto(looplifted)", got)
	}
}

// TestModeOverrideWins: a forced mode bypasses the cost model — the step
// stays unresolved after a forced Exec and only resolves under ModeAuto.
func TestModeOverrideWins(t *testing.T) {
	eng := bigStandoffEngine(t, 500, 5)
	prep, err := eng.Prepare(`doc("d.xml")//chapter/select-narrow::word`)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeLoopLifted, ModeBasic, ModeUDF} {
		if _, err := prep.Exec(Config{Mode: mode}); err != nil {
			t.Fatal(err)
		}
		if got := soStrategy(t, prep); got != "auto" {
			t.Fatalf("after forced %v run: strategy = %q, want auto (unresolved)", mode, got)
		}
	}
	if _, err := prep.Exec(Config{Mode: ModeAuto}); err != nil {
		t.Fatal(err)
	}
	if got := soStrategy(t, prep); got != "auto(looplifted)" {
		t.Fatalf("after auto run: strategy = %q", got)
	}
}

// TestAnalyzeReportsForcedJoins: Analyze under a forced mode records the
// algorithm that actually ran, even though the memoized auto choice stays
// untouched — observed truth versus planned estimate.
func TestAnalyzeReportsForcedJoins(t *testing.T) {
	eng := bigStandoffEngine(t, 100, 4)
	prep, err := eng.Prepare(`doc("d.xml")//chapter/select-narrow::word`)
	if err != nil {
		t.Fatal(err)
	}
	_, pe, err := prep.Analyze(Config{Mode: ModeBasic})
	if err != nil {
		t.Fatal(err)
	}
	var step *OpNode
	var walk func(ns []*OpNode)
	walk = func(ns []*OpNode) {
		for _, n := range ns {
			if n.Step != nil && n.Step.StandOff {
				step = n
			}
			walk(n.Children)
		}
	}
	walk(pe.Plan)
	if step == nil || step.Obs == nil {
		t.Fatalf("no analyzed stand-off step in plan:\n%s", pe.String())
	}
	if step.Obs.Joins != "basic:1" {
		t.Fatalf("observed joins = %q, want basic:1", step.Obs.Joins)
	}
	if step.Step.Strategy != "auto" {
		t.Fatalf("memoized strategy = %q, want auto (forced run must not resolve it)", step.Step.Strategy)
	}
}

// TestAutoMatchesForcedModes: whatever the cost model picks, the answer is
// identical to every forced mode.
func TestAutoMatchesForcedModes(t *testing.T) {
	eng := bigStandoffEngine(t, 100, 4)
	q := `for $c in doc("d.xml")//chapter return count($c/select-narrow::word)`
	ref, err := eng.QueryWith(q, Config{Mode: ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeLoopLifted, ModeBasic, ModeUDF} {
		res, err := eng.QueryWith(q, Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if res.String() != ref.String() {
			t.Fatalf("mode %v: %q != auto %q", mode, res.String(), ref.String())
		}
	}
}

// TestCostModelDivergesFromFixedThreshold runs a StandOff XMark benchmark
// query and pins that cost model v2 chooses a different strategy than the
// old fixed 64-candidate threshold would: Q6's per-site select-narrow::item
// step scans hundreds of item candidates (v1: Loop-Lifted) from a single
// regions context row (v2: Basic — there is no loop to lift).
func TestCostModelDivergesFromFixedThreshold(t *testing.T) {
	eng := xmarkEngine(t, 0.004)
	prep, err := eng.Prepare(xmarkStandOffQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	_, pe, err := prep.Analyze(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var itemStep *OpNode
	var walk func(ns []*OpNode)
	walk = func(ns []*OpNode) {
		for _, n := range ns {
			if n.Step != nil && n.Step.StandOff && n.Step.Test == "item" {
				itemStep = n
			}
			walk(n.Children)
		}
	}
	walk(pe.Plan)
	if itemStep == nil {
		t.Fatalf("no select-narrow::item step in plan:\n%s", pe.String())
	}
	if itemStep.Est == nil {
		t.Fatalf("item step has no cost estimate:\n%s", itemStep.Label)
	}
	// The divergence needs candidates past the old threshold; the 0.004
	// scale generates a few hundred items.
	if itemStep.Est.Candidates <= 64 {
		t.Fatalf("item candidates = %d, want > 64 (old threshold) for the divergence case",
			itemStep.Est.Candidates)
	}
	if itemStep.Est.Strategy != "basic" {
		t.Fatalf("item step strategy = %q, want basic (ctx=%d, old threshold would say looplifted)",
			itemStep.Est.Strategy, itemStep.Est.CtxRows)
	}
	if itemStep.Obs == nil || itemStep.Obs.Joins != "basic:1" {
		t.Fatalf("observed joins = %+v, want basic:1", itemStep.Obs)
	}
}
