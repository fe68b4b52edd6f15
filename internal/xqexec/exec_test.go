package xqexec

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"soxq/internal/core"
	"soxq/internal/spawncheck"
	"soxq/internal/tree"
	"soxq/internal/xmlparse"
	"soxq/internal/xqeval"
	"soxq/internal/xqparse"
	"soxq/internal/xqplan"
)

// testDoc mixes plain structure with stand-off annotations: scenes and hits
// carry regions, speech nests under scenes, and a second document exercises
// cross-document contexts.
const testDoc = `<doc>
  <meta><title>corpus</title><title>alt</title></meta>
  <scene id="s1" start="0" end="99"><speech who="a">first</speech><speech who="b">second</speech></scene>
  <scene id="s2" start="100" end="199"><speech who="a">third</speech></scene>
  <scene id="s3" start="200" end="299"/>
  <hit id="h1" start="10" end="20"/>
  <hit id="h2" start="110" end="120"/>
  <hit id="h3" start="150" end="260"/>
  <hit id="h4" start="500" end="600"/>
</doc>`

const otherDoc = `<lib><book id="b1"><au>x</au></book><book id="b2"><au>y</au><au>z</au></book></lib>`

// permutedDoc is a stand-off document whose record order deliberately
// disagrees with region order (the paper's permuted conversion): the
// streaming merge of a chunked StandOff final step must re-establish
// document order across chunks through its heap, so every equivalence run
// over this document exercises the watermark logic, not just the
// already-ordered fast case. The span layer overlaps itself and crosses
// block boundaries; one word is annotated twice (w3/w3b share a region).
const permutedDoc = `<corpus>
  <word id="w9" start="80" end="89"/>
  <word id="w2" start="10" end="19"/>
  <block id="b2" start="50" end="99"/>
  <word id="w5" start="40" end="49"/>
  <span id="s2" start="45" end="85"/>
  <word id="w1" start="0" end="9"/>
  <block id="b1" start="0" end="49"/>
  <word id="w7" start="60" end="69"/>
  <span id="s1" start="5" end="55"/>
  <word id="w3" start="20" end="29"/>
  <word id="w3b" start="20" end="29"/>
  <span id="s3" start="90" end="99"/>
  <word id="w8" start="70" end="79"/>
  <word id="w4" start="30" end="39"/>
  <word id="w6" start="50" end="59"/>
  <word id="w0" start="95" end="99"/>
</corpus>`

// corpus is the query corpus every execution style must agree on. It covers
// the pipelined operators (FLWOR with for/let/where/at, paths with
// streamable and non-streamable final steps, sequences, ranges) and the
// fallback forms (order by, aggregates, constructors, quantifieds,
// conditionals), plus StandOff steps inside and outside loops.
var corpus = []string{
	// Pipelined FLWOR shapes.
	`for $s in doc("t.xml")//scene return $s`,
	`for $s in doc("t.xml")//scene return string($s/@id)`,
	`for $s in doc("t.xml")//scene where $s/@start > 50 return $s/@id`,
	`for $s at $p in doc("t.xml")//scene return $p * 10`,
	`for $s in doc("t.xml")//scene for $w in $s/speech return string($w/@who)`,
	`for $s in doc("t.xml")//scene let $n := count($s/speech) where $n > 0 return $n`,
	`let $d := doc("t.xml") for $h in $d//hit return string($h/@id)`,
	`for $i in 1 to 37 return $i * $i`,
	`for $i at $p in 3 to 40 return $p - $i`,
	`for $i in 1 to 10 for $j in 1 to $i return $j`,
	`for $i in 1 to 5 return <n v="{$i}">{$i + 1}</n>`,
	`for $s in doc("t.xml")//scene return <scene>{$s/speech}</scene>`,
	// StandOff steps inside loops (the paper's workload).
	`for $s in doc("t.xml")//scene return $s/select-narrow::hit`,
	`for $s in doc("t.xml")//scene return count($s/select-wide::hit)`,
	`for $s in doc("t.xml")//scene return $s/reject-narrow::hit`,
	`for $h in doc("t.xml")//hit return $h/reject-wide::scene/@id`,
	// Paths: streamable final steps, nested contexts, attributes.
	`doc("t.xml")//speech`,
	`doc("t.xml")//scene/speech`,
	`doc("t.xml")/doc/meta/title`,
	`doc("t.xml")//scene/@id`,
	`doc("t.xml")//scene/descendant-or-self::node()`,
	`doc("t.xml")//speech/ancestor::scene`,
	`doc("t.xml")//scene[speech]/speech[2]`,
	`doc("t.xml")//scene/select-wide::hit`,
	`(doc("t.xml")//scene, doc("o.xml")//book)/child::*`,
	// Chunked StandOff final steps over the permuted document: the merge
	// heap must reorder across chunks and dedup the doubly-annotated word.
	`doc("p.xml")//block/select-narrow::word`,
	`doc("p.xml")//span/select-wide::word`,
	`doc("p.xml")//span/select-narrow::word/@id`,
	`doc("p.xml")//word/select-wide::span`,
	`(doc("t.xml")//scene, doc("p.xml")//block)/select-narrow::hit`,
	`for $b in doc("p.xml")//block return count($b/select-wide::span)`,
	// Rejects beside chained select stages: a bulk reject in the prefix
	// restarts the chain after it, and a reject after select stages runs in
	// bulk over their drained output.
	`doc("p.xml")//span/reject-narrow::word`,
	`doc("p.xml")//span/reject-narrow::word/select-wide::block`,
	`doc("p.xml")//block/select-wide::span/reject-wide::word`,
	`doc("p.xml")//word/reject-wide::span/select-narrow::word/select-wide::span`,
	`doc("p.xml")//block/select-narrow::word/reject-narrow::span/select-wide::word`,
	// Nested FLWOR loops over streamable bindings (cursor-valued bindings).
	`for $s in doc("t.xml")//scene for $w in $s/speech where $w/@who = "a" return string($w)`,
	`for $i in 1 to 9 for $j in 1 to $i for $k in $j to $i return $i * 100 + $j * 10 + $k`,
	`for $i at $p in 1 to 4 for $j at $q in 0 to $i return ($p, $q)`,
	`for $s in doc("t.xml")//scene for $h in $s/select-narrow::hit return ($s/@id, $h/@id)`,
	`for $b in doc("p.xml")//block for $w in doc("p.xml")//word where $w/@start >= $b/@start return ($b/@id, $w/@id)`,
	// Sequences, ranges, fallbacks.
	`(1, 2, doc("t.xml")//hit/@id, "x")`,
	`(doc("t.xml")//scene, doc("t.xml")//hit)`,
	`1 to 20`,
	`(5 to 4)`,
	`count(doc("t.xml")//hit)`,
	`sum(for $i in 1 to 100 return $i)`,
	`for $s in doc("t.xml")//scene order by $s/@id descending return $s/@id`,
	`some $h in doc("t.xml")//hit satisfies $h/@start > 400`,
	`if (count(doc("t.xml")//hit) > 2) then "many" else "few"`,
	`declare variable $g := doc("t.xml")//scene;
	 for $s in $g return count($s/select-narrow::hit)`,
	`declare function local:f($x) { $x + 1 };
	 for $i in 1 to 30 return local:f($i)`,
	// Empty results and errors.
	`for $s in doc("t.xml")//nosuch return $s`,
	`doc("t.xml")//scene/nosuch`,
	`for $i in 1 to 5 return $i div 0`,
	`doc("missing.xml")//x`,
}

type testEnv struct {
	docs    map[string]*tree.Doc
	mu      sync.Mutex
	indexes map[*tree.Doc]*core.RegionIndex
}

func newTestEnv(t testing.TB) *testEnv {
	t.Helper()
	env := &testEnv{docs: map[string]*tree.Doc{}, indexes: map[*tree.Doc]*core.RegionIndex{}}
	for name, data := range map[string]string{"t.xml": testDoc, "o.xml": otherDoc, "p.xml": permutedDoc} {
		d, err := xmlparse.Parse(name, []byte(data))
		if err != nil {
			t.Fatal(err)
		}
		env.docs[name] = d
	}
	return env
}

func (env *testEnv) resolve(uri string) (*tree.Doc, error) {
	d, ok := env.docs[uri]
	if !ok {
		return nil, fmt.Errorf("document %q is not loaded", uri)
	}
	return d, nil
}

func (env *testEnv) indexFor(d *tree.Doc) (*core.RegionIndex, error) {
	env.mu.Lock()
	defer env.mu.Unlock()
	if ix, ok := env.indexes[d]; ok {
		return ix, nil
	}
	ix, err := core.BuildIndex(d, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	env.indexes[d] = ix
	return ix, nil
}

func (env *testEnv) evaluator(t testing.TB, q string) *xqeval.Evaluator {
	t.Helper()
	m, err := xqparse.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	plan, err := xqplan.Compile(m, core.DefaultOptions())
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	return &xqeval.Evaluator{
		Plan:     plan,
		Resolver: env.resolve,
		IndexFor: env.indexFor,
		Strategy: core.StrategyLoopLifted,
		Pushdown: true,
	}
}

// render flattens an outcome for comparison: the error string, or every item
// rendered on its own line.
func render(items []xqeval.Item, err error) string {
	if err != nil {
		return "ERROR: " + err.Error()
	}
	var sb strings.Builder
	for _, it := range items {
		sb.WriteString(it.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// equivalenceMatrix is the configuration grid every equivalence test runs:
// chunk sizes from degenerate (1) through the default (0) to one chunk that
// holds everything (1 << 20). One grid, shared by the internal and public
// matrix tests, replaces the ad-hoc per-test config lists that used to
// drift apart.
func equivalenceMatrix() []Config {
	var cfgs []Config
	for _, chunk := range []int{1, 2, 7, 64, 0, 1 << 20} {
		cfgs = append(cfgs, Config{ChunkSize: chunk})
	}
	return cfgs
}

// TestPipelineEquivalence is the central property test of the subsystem:
// for every corpus query and every chunk size of the matrix,
// the cursor pipeline drains to exactly the sequence the materialising
// evaluator produces, or fails with exactly the same error — whether it is
// drained whole (DrainAll), row by row (Reader) or batch by batch.
func TestPipelineEquivalence(t *testing.T) {
	env := newTestEnv(t)
	cfgs := equivalenceMatrix()
	drains := []struct {
		name  string
		drain func(Cursor) ([]xqeval.Item, error)
	}{{"all", DrainAll}, {"rows", drainRows}, {"batches", drainBatches}}
	for _, q := range corpus {
		want := render(env.evaluator(t, q).Run())
		for _, cfg := range cfgs {
			for _, d := range drains {
				cur, err := Build(context.Background(), env.evaluator(t, q), cfg)
				var got string
				if err != nil {
					got = render(nil, err)
				} else {
					got = render(d.drain(cur))
				}
				if got != want {
					t.Errorf("query %q cfg %+v drain %s:\n got %q\nwant %q", q, cfg, d.name, got, want)
				}
			}
		}
	}
}

func runPipeline(ev *xqeval.Evaluator, cfg Config) ([]xqeval.Item, error) {
	cur, err := Build(context.Background(), ev, cfg)
	if err != nil {
		return nil, err
	}
	return DrainAll(cur)
}

// DrainAll exhausts a cursor into a slice, closing it.
func DrainAll(c Cursor) ([]xqeval.Item, error) {
	defer c.Close()
	out := appendAll(nil, c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// drainRows drains c one row at a time through a Reader.
func drainRows(c Cursor) ([]xqeval.Item, error) {
	rows := NewReader(c)
	defer rows.Close()
	var out []xqeval.Item
	for rows.Next() {
		out = append(out, rows.Item())
	}
	return out, rows.Err()
}

// drainBatches drains c by NextBatch, copying each batch out before the
// next call (the end of its validity) and checking that it holds exactly
// one of the two row forms.
func drainBatches(c Cursor) ([]xqeval.Item, error) {
	defer c.Close()
	var out []xqeval.Item
	for b := c.NextBatch(); b.Len() > 0; b = c.NextBatch() {
		if (b.D != nil) != (len(b.Pres) > 0) || (b.D != nil) == (len(b.Items) > 0) {
			return nil, fmt.Errorf("malformed batch: D=%v, %d pres, %d items", b.D != nil, len(b.Pres), len(b.Items))
		}
		for i := range b.Len() {
			out = append(out, b.Item(i))
		}
	}
	return out, c.Err()
}

// TestEarlyClose verifies that abandoning a stream mid-way releases the
// pipeline, starts no goroutine, and that Close is idempotent.
func TestEarlyClose(t *testing.T) {
	env := newTestEnv(t)
	queries := []string{
		`for $i in 1 to 2048 return $i`,
		// Nested loops: the child cursor chain must tear down too.
		`for $i in 1 to 2048 for $j in 1 to 100 return $j`,
		// Chunked StandOff final step mid-merge.
		`doc("p.xml")//span/select-wide::word`,
	}
	cfg := Config{ChunkSize: 16}
	for _, q := range queries {
		spawncheck.Run(func(started func() int) {
			cur, err := Build(context.Background(), env.evaluator(t, q), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rows := NewReader(cur)
			for i := 0; i < 5; i++ {
				if !rows.Next() {
					t.Fatalf("%q: stream ended after %d items", q, i)
				}
			}
			cur.Close()
			cur.Close() // idempotent
			if cur.NextBatch().Len() > 0 {
				t.Fatalf("%q: Next after Close", q)
			}
			if n := started(); n != 0 {
				t.Fatalf("%q: %d goroutines started by the run alive after Close", q, n)
			}
		})
	}
}

// TestCloseBeforeNext: Close on a never-started cursor must terminate it —
// a later Next must not run init or re-evaluate a path (the database/sql.Rows
// contract).
func TestCloseBeforeNext(t *testing.T) {
	env := newTestEnv(t)
	for _, tc := range []struct {
		q   string
		cfg Config
	}{
		{`for $i in 1 to 100000 return $i`, Config{ChunkSize: 16}},
		{`doc("t.xml")//speech`, Config{ChunkSize: 16}},
		{`count(doc("t.xml")//hit)`, Config{}},
	} {
		spawncheck.Run(func(started func() int) {
			cur, err := Build(context.Background(), env.evaluator(t, tc.q), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cur.Close()
			if cur.NextBatch().Len() > 0 {
				t.Errorf("%q cfg %+v: NextBatch after pre-drain Close returned rows", tc.q, tc.cfg)
			}
			if cur.Err() != nil {
				t.Errorf("%q: Err after Close = %v", tc.q, cur.Err())
			}
			if n := started(); n != 0 {
				t.Errorf("%q cfg %+v: %d goroutines leaked by Next-after-Close", tc.q, tc.cfg, n)
			}
		})
	}
}

// TestGatePathRespectsChunkSize: a loop evaluates in ChunkSize slices — the
// memory bound holds for every chunk, including the partial last one.
func TestGatePathRespectsChunkSize(t *testing.T) {
	env := newTestEnv(t)
	const n = 246
	q := fmt.Sprintf(`for $i in 1 to %d return $i`, n)
	cur, err := Build(context.Background(), env.evaluator(t, q), Config{ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	fl := unwrapRoot(cur).(*flworCursor)
	got := 0
	for rows := NewReader(fl); rows.Next(); {
		got++
		if len(fl.chunk) > 8 {
			t.Fatalf("evaluated a %d-tuple chunk, ChunkSize 8", len(fl.chunk))
		}
	}
	if err := fl.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("drained %d items, want %d", got, n)
	}
	fl.Close()
}

// TestPathStreamingModes pins how tree-axis final steps run: in bulk, over
// disjoint and nested contexts alike, agreeing with the reference and
// handing the whole result over as one batch.
func TestPathStreamingModes(t *testing.T) {
	env := newTestEnv(t)
	disjoint := `doc("t.xml")//scene/speech`
	nested := `doc("t.xml")//scene/descendant-or-self::node()/self::node()`
	for _, q := range []string{disjoint, nested} {
		want := render(env.evaluator(t, q).Run())
		got := render(runPipeline(env.evaluator(t, q), Config{ChunkSize: 4}))
		if got != want {
			t.Errorf("query %q:\n got %q\nwant %q", q, got, want)
		}
	}
	cur, err := Build(context.Background(), env.evaluator(t, disjoint), Config{ChunkSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	pc := unwrapRoot(cur).(*pathCursor)
	if n := pc.NextBatch().Len(); n != 3 {
		t.Fatalf("first batch holds %d speeches, want all 3", n)
	}
	if pc.soc != nil || pc.NextBatch().Len() != 0 {
		t.Fatal("tree-axis final step did not run in bulk")
	}
	pc.Close()
}

// TestDescribeShapes sanity-checks the plan's pipeline shape, the one Build
// walks and EXPLAIN renders, against the operator forms.
func TestDescribeShapes(t *testing.T) {
	env := newTestEnv(t)
	shape := func(q string) *xqplan.StreamOp { return env.evaluator(t, q).Plan.Explain().Stream }
	cases := []struct {
		q         string
		kind      string
		pipelined bool
		detail    string // the whole Detail line, when pinned
	}{
		{`for $s in doc("t.xml")//scene return $s`, "flwor", true, ""},
		{`for $s in doc("t.xml")//scene order by $s/@id return $s`, "flwor", false, ""},
		// Leading lets bind before the first for clause, which still streams.
		{`let $d := doc("t.xml") for $s in $d//scene return $s`, "flwor", true,
			"for $s tuples stream in chunks; loop body loop-lifted per chunk"},
		{`doc("t.xml")//speech`, "path", false, "final step descendant::speech runs in bulk"},
		{`doc("t.xml")//scene/select-narrow::hit`, "path", true, ""},
		{`doc("t.xml")//scene/reject-narrow::hit`, "path", false,
			"final StandOff step reject-narrow is an anti-join over the whole context and runs in bulk"},
		{`doc("t.xml")//scene/select-wide::hit/@id`, "path", false,
			"final step attribute::id runs in bulk; 1 StandOff prefix step(s) stream through composed pres-based stages" +
				"; context descendant::scene read from the region index by name when the path head is one document node"},
		// The chain restarts after a bulk reject: only the steps after it
		// stream, and here that is just the final select step.
		{`doc("t.xml")//scene/reject-narrow::hit/select-wide::scene`, "path", true,
			"final StandOff step select-wide streams per context chunk through a watermark-gated pending-pre set when the context is single-document"},
		{`(1, 2)`, "seq", true, ""},
		{`1 to 9`, "range", true, ""},
		{`count(doc("t.xml")//hit)`, "materialise", false, ""},
	}
	for _, c := range cases {
		op := shape(c.q)
		if op.Op != c.kind || op.Pipelined != c.pipelined || (c.detail != "" && op.Detail != c.detail) {
			t.Errorf("shape(%q) = %s/pipelined=%v (%s), want %s/pipelined=%v (%s)",
				c.q, op.Op, op.Pipelined, op.Detail, c.kind, c.pipelined, c.detail)
		}
	}

	// Which paths read the context of their first streamed stage by name:
	// a predicate-free by-name descendant step right before the cut, fused
	// or not.
	for q, want := range map[string]bool{
		`doc("t.xml")//scene/select-narrow::hit`:                       true,
		`doc("t.xml")/descendant::scene/select-wide::hit`:              true,
		`doc("t.xml")/play//scene/select-narrow::hit/select-wide::hit`: true,
		`doc("t.xml")//scene/select-wide::hit/@id`:                     true,
		`doc("t.xml")//scene[@id = "s1"]/select-narrow::hit`:           false,
		`doc("t.xml")//*/select-narrow::hit`:                           false,
		`doc("t.xml")//scene/child::act/select-narrow::hit`:            false,
		`doc("t.xml")/descendant-or-self::scene/select-narrow::hit`:    false,
		`doc("t.xml")//scene/reject-narrow::hit/select-wide::scene`:    false,
		`doc("t.xml")//scene/select-narrow::hit[1]`:                    false,
		`doc("t.xml")//scene/select-narrow::hit/select-narrow::hit[1]`: true,
		`doc("t.xml")//scene`:                                          false,
	} {
		if got := env.evaluator(t, q).Plan.Stream().ByName(); got != want {
			t.Errorf("ByName(%q) = %v, want %v", q, got, want)
		}
	}

	ops := func(op *xqplan.StreamOp) []string {
		var out []string
		for _, ch := range op.Children {
			out = append(out, ch.Op)
		}
		return out
	}
	for _, c := range []struct {
		q    string
		want []string // the top flwor's children
	}{
		// A nested streamable for clause shows up as a flwor-nested child; a
		// nested StandOff binding must not (it keeps the loop-lifted
		// expansion).
		{`for $s in doc("t.xml")//scene for $w in $s/speech return $w`, []string{"path", "flwor-nested"}},
		{`for $s in doc("t.xml")//scene for $h in $s/select-narrow::hit return $h`, []string{"path"}},
		// Three levels: each nested level is its own child, in clause order.
		{`for $s in doc("t.xml")//scene for $w in $s/speech for $i in 1 to 2 return $i`,
			[]string{"path", "flwor-nested", "flwor-nested"}},
		// A for bound to a FLWOR streams that FLWOR as its binding.
		{`for $x in (for $s in doc("t.xml")//scene return $s) return $x`, []string{"flwor"}},
		{`for $i in 1 to 2 for $x in (for $s in doc("t.xml")//scene return $s) return $x`,
			[]string{"range", "flwor-nested"}},
	} {
		if got := ops(shape(c.q)); !slices.Equal(got, c.want) {
			t.Errorf("shape(%q) children = %v, want %v", c.q, got, c.want)
		}
	}
	three := shape(`for $s in doc("t.xml")//scene for $w in $s/speech for $i in 1 to 2 return $i`)
	if got := ops(three.Children[2]); !slices.Equal(got, []string{"range"}) {
		t.Errorf("third level's binding = %v, want [range]", got)
	}
	bound := shape(`for $i in 1 to 2 for $x in (for $s in doc("t.xml")//scene return $s) return $x`)
	if inner := bound.Children[1].Children[0]; inner.Op != "flwor" || !inner.Pipelined {
		t.Errorf("FLWOR binding = %s/pipelined=%v, want a pipelined flwor", inner.Op, inner.Pipelined)
	}
}

// TestStandoffCursorStreams pins the routing of StandOff final steps: a
// select step over a single-document context takes the chunked cursor, the
// permuted document drains in document order with the duplicate annotation
// removed, and a multi-document context falls back to the bulk step.
func TestStandoffCursorStreams(t *testing.T) {
	env := newTestEnv(t)
	build := func(q string, chunk int) *pathCursor {
		cur, err := Build(context.Background(), env.evaluator(t, q), Config{ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		pc, ok := unwrapRoot(cur).(*pathCursor)
		if !ok {
			t.Fatalf("expected pathCursor for %q, got %T", q, cur)
		}
		return pc
	}

	// The chunked cursor's batches are pre runs of the one document, in
	// document order across batches.
	pc := build(`doc("p.xml")//span/select-wide::word`, 2)
	b := pc.NextBatch()
	if b.Len() == 0 {
		t.Fatal("empty stream")
	}
	soc := pc.soc
	if soc == nil {
		t.Fatal("select final step over one document did not take the chunked cursor")
	}
	if soc.chunk != 2 {
		t.Fatalf("chunked cursor joins chunks of %d context areas, want the configured 2", soc.chunk)
	}
	var last int32 = -1
	for ; b.Len() > 0; b = pc.NextBatch() {
		if b.D == nil {
			t.Fatalf("chunked cursor batch is not a pre run: %d items", len(b.Items))
		}
		for _, pre := range b.Pres {
			if pre <= last {
				t.Fatalf("stream out of document order: pre %d after %d", pre, last)
			}
			last = pre
		}
	}
	pc.Close()

	// The doubly-annotated word (w3/w3b share a region) appears once per
	// node, deduplicated across chunks.
	pc = build(`doc("p.xml")//block/select-narrow::word`, 1)
	seen := map[int32]bool{}
	for rows := NewReader(pc); rows.Next(); {
		it := rows.Item()
		if seen[it.Pre] {
			t.Fatalf("duplicate node pre=%d in chunked stream", it.Pre)
		}
		seen[it.Pre] = true
	}
	pc.Close()

	// Multi-document context: the chunked cursor refuses and the bulk step
	// answers (soc stays nil, result still correct via materialised items).
	pc = build(`(doc("t.xml")//scene, doc("p.xml")//block)/select-narrow::hit`, 2)
	for pc.NextBatch().Len() > 0 {
	}
	if pc.soc != nil {
		t.Fatal("multi-document context must fall back to the bulk step")
	}
	pc.Close()
}

// TestNestedCursorEngages pins the cursor-valued-binding decision: a
// streamable inner for clause binds a child cursor, and a StandOff inner
// binding always stays expanded.
func TestNestedCursorEngages(t *testing.T) {
	env := newTestEnv(t)
	pin := func(q string, chunk int, wantNested bool) {
		t.Helper()
		cur, err := Build(context.Background(), env.evaluator(t, q), Config{ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		fl, ok := unwrapRoot(cur).(*flworCursor)
		if !ok {
			t.Fatalf("expected flworCursor, got %T", cur)
		}
		for fl.NextBatch().Len() > 0 {
		}
		if err := fl.Err(); err != nil {
			t.Fatal(err)
		}
		if (len(fl.nested) > 0) != wantNested {
			t.Errorf("%q chunk=%d: nested=%v, want %v", q, chunk, len(fl.nested) > 0, wantNested)
		}
		fl.Close()
	}
	pin(`for $s in doc("t.xml")//scene for $w in $s/speech return $w`, 4, true)
	pin(`for $i in 1 to 10 for $j in 1 to $i return $j`, 4, true)
	pin(`for $s in doc("t.xml")//scene for $h in $s/select-narrow::hit return $h`, 4, false)
	pin(`for $s in doc("t.xml")//scene let $n := count($s/speech) for $w in $s/speech return $n`, 4, false)
}

// unwrapRoot strips the arena-scoping pipeline wrapper so tests can inspect
// the concrete root cursor Build produced.
func unwrapRoot(c Cursor) Cursor {
	if p, ok := c.(*pipelineCursor); ok {
		return p.Cursor
	}
	return c
}
