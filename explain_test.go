package soxq

import (
	"fmt"
	"regexp"
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
// in its axis form. EXPLAIN shows only what compilation knows, so an
// execution leaves it unchanged.
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
        step select-narrow::shot standoff{op=select-narrow push=by-name(shot) nopush=all+filter}
    return string($s/@id)
stream:
  flwor [pipelined] for $s tuples stream in chunks; loop body loop-lifted per chunk
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
	if got := prep.Explain().String(); got != wantBefore {
		t.Fatalf("explain after exec:\n%s\nwant:\n%s", got, wantBefore)
	}
}

// TestExplainAnalyzeGolden pins the EXPLAIN ANALYZE rendering: the same tree
// annotated with the observed per-operator counters of the run Analyze
// performed.
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
        step select-narrow::shot standoff{op=select-narrow push=by-name(shot) nopush=all+filter} (in=1 out=1 cand=3 joins=looplifted:1 stream{chunks=1 chunk=1..1})
    return string($s/@id)
stream:
  flwor [pipelined] for $s tuples stream in chunks; loop body loop-lifted per chunk
    path [pipelined] final StandOff step select-narrow streams per context chunk through an ordered dedup merge when the context is single-document
`
	if got := pe.String(); got != want {
		t.Fatalf("analyze:\n%s\nwant:\n%s", got, want)
	}
}

// TestAttrPushdownExplain: a leading attribute predicate of a by-name
// StandOff step renders as pushed (attr→cand), and ANALYZE's cand= counts the
// candidates it left — the name's areas only under NoPushdown's post-filter.
func TestAttrPushdownExplain(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`doc("d.xml")//music/select-narrow::shot[@id >= "O"][1]`)
	if err != nil {
		t.Fatal(err)
	}
	const step = `step select-narrow::shot[@id >= "O"][1] pred{attr→cand,pos→join} standoff{op=select-narrow push=by-name(shot) nopush=all+filter}`
	if got := prep.Explain().String(); !strings.Contains(got, step+"\n") {
		t.Fatalf("explain:\n%s\nwant the line\n%s", got, step)
	}
	for cfg, obs := range map[Config]string{
		{}:                 " (in=2 out=1 cand=1 joins=looplifted:1)",
		{NoPushdown: true}: " (in=2 out=1 cand=5 joins=looplifted:1)",
	} {
		res, pe, err := prep.Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.String(); got != `<shot id="Outro" start="64" end="94"/>` {
			t.Fatalf("%+v: result %s", cfg, got)
		}
		if got := pe.String(); !strings.Contains(got, step+obs+"\n") {
			t.Fatalf("%+v: analyze:\n%s\nwant the line\n%s", cfg, got, step+obs)
		}
	}
}

// TestExplainGoldenXMarkReduced pins EXPLAIN ANALYZE of the stand-off XMark
// queries whose joins reduce their matches: Q2's [1] is applied by the join
// (pred{pos→join}), Q6's and Q7's count arguments are counted by it
// (out{count}). The observed counters are those of the unreduced evaluation:
// a reduced step's out is the rows after [1], or the sum of the counts.
func TestExplainGoldenXMarkReduced(t *testing.T) {
	eng := xmarkEngine(t, 0.002)
	const so = `standoff{op=select-narrow push=by-name(%[1]s) nopush=all+filter}`
	step := func(name string) string { return fmt.Sprintf("select-narrow::%[1]s "+so, name) }
	head := "options: type=xs:integer start=@start end=@end\nfolds: 0\nplan:\n"
	site := `      path doc("xmark-so.xml") (out=%d)
        step descendant::site (fused //) (in=1 out=1)
`
	for q, want := range map[int]string{
		2: head + `  flwor (tuples=24 out=24 chunks=1)
    for $b in
` + fmt.Sprintf(site, 24) + `        step ` + step("open_auctions") + ` (in=1 out=1 cand=1 joins=looplifted:1 stream{chunks=1 chunk=1..1})
        step ` + step("open_auction") + ` (in=1 out=24 cand=24 joins=looplifted:1 stream{chunks=1 chunk=1..1})
    return
      element <increase>
        path $b (out=23)
          step select-narrow::bidder[1] pred{pos→join} ` + fmt.Sprintf(so, "bidder") + ` (in=24 out=23 cand=116 joins=looplifted:1)
          step ` + step("increase") + ` (in=23 out=23 cand=116 joins=looplifted:1)
stream:
  flwor [pipelined] for $b tuples stream in chunks; loop body loop-lifted per chunk
    path [pipelined] final StandOff step select-narrow streams per context chunk through an ordered dedup merge when the context is single-document; 1 StandOff prefix step(s) stream through composed pres-based stages
`,
		6: head + `  flwor (tuples=1 out=1 chunks=1)
    for $b in
` + fmt.Sprintf(site, 1) + `        step ` + step("regions") + ` (in=1 out=1 cand=1 joins=looplifted:1 stream{chunks=1 chunk=1..1})
    return
      function count#1
        path $b (out=43)
          step select-narrow::item out{count} ` + fmt.Sprintf(so, "item") + ` (in=1 out=43 cand=43 joins=looplifted:1)
stream:
  flwor [pipelined] for $b tuples stream in chunks; loop body loop-lifted per chunk
    path [pipelined] final StandOff step select-narrow streams per context chunk through an ordered dedup merge when the context is single-document
`,
		7: head + `  flwor (tuples=1 out=1 chunks=1)
    for $p in
` + fmt.Sprintf(site, 1) + `    return
      op "+"
        op "+"
          function count#1
            path $p (out=88)
              step select-narrow::description out{count} ` + fmt.Sprintf(so, "description") + ` (in=1 out=88 cand=88 joins=looplifted:1)
          function count#1
            path $p (out=43)
              step select-narrow::annotation out{count} ` + fmt.Sprintf(so, "annotation") + ` (in=1 out=43 cand=43 joins=looplifted:1)
        function count#1
          path $p (out=51)
            step select-narrow::emailaddress out{count} ` + fmt.Sprintf(so, "emailaddress") + ` (in=1 out=51 cand=51 joins=looplifted:1)
stream:
  flwor [pipelined] for $p tuples stream in chunks; loop body loop-lifted per chunk
    path [materialised] final step descendant::site runs in bulk
`,
	} {
		prep, err := eng.Prepare(xmarkStandOffQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		_, pe, err := prep.Analyze(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := pe.String(); got != want {
			t.Errorf("Q%d analyze:\n%s\nwant:\n%s", q, got, want)
		}
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

// scenesDoc has five scenes, each containing one hit, and two hits no scene
// contains (h6 crosses s1/s2, h7 lies past the last scene).
const scenesDoc = `<doc>
  <scene id="s1" start="0" end="9"/>
  <scene id="s2" start="10" end="19"/>
  <scene id="s3" start="20" end="29"/>
  <scene id="s4" start="30" end="39"/>
  <scene id="s5" start="40" end="49"/>
  <hit id="h1" start="2" end="3"/>
  <hit id="h2" start="12" end="13"/>
  <hit id="h3" start="22" end="23"/>
  <hit id="h4" start="32" end="33"/>
  <hit id="h5" start="42" end="43"/>
  <hit id="h6" start="8" end="12"/>
  <hit id="h7" start="60" end="70"/>
</doc>`

// reversedScenesDoc is scenesDoc with its hits in reverse region order: a
// permuted layer, whose chunk outputs the stream's merge must hold back.
const reversedScenesDoc = `<doc>
  <scene id="s1" start="0" end="9"/>
  <scene id="s2" start="10" end="19"/>
  <scene id="s3" start="20" end="29"/>
  <scene id="s4" start="30" end="39"/>
  <scene id="s5" start="40" end="49"/>
  <hit id="h7" start="60" end="70"/>
  <hit id="h5" start="42" end="43"/>
  <hit id="h4" start="32" end="33"/>
  <hit id="h3" start="22" end="23"/>
  <hit id="h2" start="12" end="13"/>
  <hit id="h6" start="8" end="12"/>
  <hit id="h1" start="2" end="3"/>
</doc>`

// analyzeScenes runs q over doc under Analyze and returns the result's ids
// and the rendered explain.
func analyzeScenes(t *testing.T, doc, q string, cfg Config) (string, string) {
	t.Helper()
	eng := New()
	if err := eng.LoadXML("r.xml", []byte(doc)); err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, pe, err := prep.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range regexp.MustCompile(`id="([^"]*)"`).FindAllStringSubmatch(res.String(), -1) {
		ids = append(ids, m[1])
	}
	return strings.Join(ids, " "), pe.String()
}

// TestAnalyzeChunkSchedule pins the chunk schedule of a chunked select step:
// five context areas in chunks of two join as 2+2+1, and ANALYZE reports the
// smallest and largest chunk actually joined. Where document order follows
// region order every chunk's output is final on arrival; over the reversed
// layer the merge holds back every row, one run per chunk, and says so.
func TestAnalyzeChunkSchedule(t *testing.T) {
	for _, tc := range []struct{ doc, ids, stream string }{
		{scenesDoc, "h1 h2 h3 h4 h5", "stream{chunks=3 chunk=1..2}"},
		{reversedScenesDoc, "h5 h4 h3 h2 h1", "stream{chunks=3 chunk=1..2 pending≤5 runs≤3}"},
	} {
		ids, got := analyzeScenes(t, tc.doc, `doc("r.xml")//scene/select-narrow::hit`, Config{StreamChunk: 2})
		if ids != tc.ids {
			t.Fatalf("result ids = %q", ids)
		}
		want := `options: type=xs:integer start=@start end=@end
folds: 0
plan:
  path doc("r.xml") (out=5)
    step descendant::scene (fused //) (in=1 out=5)
    step select-narrow::hit standoff{op=select-narrow push=by-name(hit) nopush=all+filter} (in=5 out=5 cand=21 joins=looplifted:3 ` + tc.stream + `)
stream:
  path [pipelined] final StandOff step select-narrow streams per context chunk through an ordered dedup merge when the context is single-document
`
		if got != want {
			t.Fatalf("analyze:\n%s\nwant:\n%s", got, want)
		}
	}
}

// TestAnalyzeRejectRunsInBulk pins ANALYZE of a final reject step: it runs in
// bulk, one join over the whole context, so its line carries no stream{}
// group (it once printed the unbounded chunk size as its chunk range).
func TestAnalyzeRejectRunsInBulk(t *testing.T) {
	ids, got := analyzeScenes(t, scenesDoc, `doc("r.xml")//scene/reject-narrow::hit`, Config{})
	if ids != "h6 h7" {
		t.Fatalf("result ids = %q", ids)
	}
	want := `options: type=xs:integer start=@start end=@end
folds: 0
plan:
  path doc("r.xml") (out=2)
    step descendant::scene (fused //) (in=1 out=5)
    step reject-narrow::hit standoff{op=reject-narrow push=by-name(hit) nopush=all+filter} (in=5 out=2 cand=7 joins=looplifted:1)
stream:
  path [materialised] final StandOff step reject-narrow is an anti-join over the whole context and runs in bulk
`
	if got != want {
		t.Fatalf("analyze:\n%s\nwant:\n%s", got, want)
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
		chunks int64
	}{
		{Config{}, 1},                 // Exec-style drain: one chunk
		{Config{StreamChunk: 2}, 8},   // 2 outer chunks x (2+1) inner... 4 children x 2 chunks
		{Config{StreamChunk: 100}, 4}, // one outer chunk, 4 child cursors x 1 chunk
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
		if fl.Obs.Chunks != tc.chunks {
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
  flwor [pipelined] for $m tuples stream in chunks; loop body loop-lifted per chunk
    path [materialised] final step descendant::music runs in bulk
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
  flwor [pipelined] for $s tuples stream in chunks; loop body loop-lifted per chunk
    path [materialised] final step self::shot runs in bulk
`
	if got := prep.Explain().String(); got != want {
		t.Fatalf("explain:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainGlobalVariableDeclaration: a StandOff step inside a global
// variable initializer stays visible in the plan tree (declarations render
// before the body).
func TestExplainGlobalVariableDeclaration(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(
		`declare variable $shots := doc("d.xml")//music/select-narrow::shot; count($shots)`)
	if err != nil {
		t.Fatal(err)
	}
	got := prep.Explain().String()
	if !strings.Contains(got, "declare variable $shots :=") {
		t.Fatalf("explain lacks the variable declaration:\n%s", got)
	}
	if !strings.Contains(got, "select-narrow::shot standoff{") {
		t.Fatalf("explain lacks the initializer's StandOff step:\n%s", got)
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

// bigStandoffEngine loads a document with a dense word layer and a sparse
// chapter layer.
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

// soStep returns the single analyzed stand-off step of a plan.
func soStep(t *testing.T, pe *PlanExplain) *OpNode {
	t.Helper()
	var step *OpNode
	var walk func(ns []*OpNode)
	walk = func(ns []*OpNode) {
		for _, n := range ns {
			if n.Step != nil && n.Step.StandOff {
				if step != nil {
					t.Fatalf("plan has more than one stand-off step:\n%s", pe.String())
				}
				step = n
			}
			walk(n.Children)
		}
	}
	walk(pe.Plan)
	if step == nil || step.Obs == nil {
		t.Fatalf("no analyzed stand-off step in plan:\n%s", pe.String())
	}
	return step
}

// TestDefaultModeRunsLoopLifted: the zero Config runs the Loop-Lifted join
// even on the Figure 2 query's single context row, where there is no loop
// to lift.
func TestDefaultModeRunsLoopLifted(t *testing.T) {
	eng := figure2Engine(t)
	prep, err := eng.Prepare(`for $s in doc("d.xml")//music[@artist = "U2"]/select-narrow::shot
	         return string($s/@id)`)
	if err != nil {
		t.Fatal(err)
	}
	_, pe, err := prep.Analyze(Config{})
	if err != nil {
		t.Fatal(err)
	}
	step := soStep(t, pe)
	if step.Obs.RowsIn != 1 || step.Obs.Joins != "looplifted:1" {
		t.Fatalf("observed in=%d joins=%q, want in=1 joins=looplifted:1", step.Obs.RowsIn, step.Obs.Joins)
	}
	if !strings.Contains(step.Label, "joins=looplifted:1") {
		t.Fatalf("label lacks joins=looplifted:1: %s", step.Label)
	}
}

// TestModeOverrideWins: every mode runs exactly its algorithm — ModeAuto
// and ModeLoopLifted the Loop-Lifted join, the forced modes their baseline.
func TestModeOverrideWins(t *testing.T) {
	eng := bigStandoffEngine(t, 500, 5)
	prep, err := eng.Prepare(`doc("d.xml")//chapter/select-narrow::word`)
	if err != nil {
		t.Fatal(err)
	}
	for mode, want := range map[Mode]string{
		ModeAuto:       "looplifted:1",
		ModeLoopLifted: "looplifted:1",
		ModeBasic:      "basic:1",
		ModeUDF:        "naive:1",
	} {
		_, pe, err := prep.Analyze(Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if got := soStep(t, pe).Obs.Joins; got != want {
			t.Fatalf("mode %v: observed joins = %q, want %q", mode, got, want)
		}
	}
}

// TestAnalyzeReportsForcedJoins: Analyze under a forced mode records the
// algorithm that actually ran.
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
	if got := soStep(t, pe).Obs.Joins; got != "basic:1" {
		t.Fatalf("observed joins = %q, want basic:1", got)
	}
}

// TestAutoMatchesForcedModes: the default mode's answer is identical to
// every forced mode.
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
