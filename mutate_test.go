package soxq

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soxq/internal/core"
)

// Engine-level tests of the annotation write path: InsertAnnotation /
// DeleteAnnotation / CompactAnnotations land delta layers on the cached
// region indexes instead of rebuilding them, and every read path — Exec,
// Stream, the plan cache — must serve the post-write
// state while in-flight cursors keep their pre-write snapshot.

const mutateDoc = `<doc>
  <scene id="s1" start="0" end="99"/>
  <scene id="s2" start="100" end="199"/>
  <hit id="h1" start="10" end="20"/>
  <hit id="h2" start="110" end="120"/>
</doc>`

func mutateEngine(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	if err := eng.LoadXML("m.xml", []byte(mutateDoc)); err != nil {
		t.Fatal(err)
	}
	// Build the index up front so mutations exercise the delta derivation
	// path rather than a lazy post-write rebuild.
	if err := eng.BuildIndex("m.xml"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// assertMatchesOracle compares the mutated engine against a fresh engine
// loaded with the expected document text — the full-rebuild oracle — for
// both execution styles.
func assertMatchesOracle(t *testing.T, eng *Engine, wantXML string, queries ...string) {
	t.Helper()
	oracle := New()
	if err := oracle.LoadXML("m.xml", []byte(wantXML)); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		ref, err := oracle.Query(q)
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		want := ref.String()
		res, err := eng.Query(q)
		if err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
		if got := res.String(); got != want {
			t.Fatalf("%q:\nexec   %q\noracle %q", q, got, want)
		}
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := prep.Stream(Config{StreamChunk: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainStream(cur)
		if err != nil {
			t.Fatalf("stream %q: %v", q, err)
		}
		if got != want {
			t.Fatalf("%q:\nstream %q\noracle %q", q, got, want)
		}
	}
}

var mutateQueries = []string{
	`doc("m.xml")//scene/select-narrow::hit/@start`,
	`count(doc("m.xml")//scene/select-narrow::hit)`,
	`doc("m.xml")//scene/select-narrow::mark`,
	`for $s in doc("m.xml")//scene return count($s/select-wide::hit)`,
	`doc("m.xml")//hit/reject-narrow::mark/@start`,
	`count(doc("m.xml")//mark)`,
}

// TestInsertAnnotationVisible: an insert is visible to Exec and Stream on
// the next run — for an existing layer and for a brand-new one — and matches
// a fresh engine over the equivalent document.
func TestInsertAnnotationVisible(t *testing.T) {
	eng := mutateEngine(t)
	if err := eng.InsertAnnotation("m.xml", "hit", Region{Start: 30, End: 40}); err != nil {
		t.Fatal(err)
	}
	withHit := strings.Replace(mutateDoc, "</doc>", `<hit start="30" end="40"/></doc>`, 1)
	assertMatchesOracle(t, eng, withHit, mutateQueries...)

	// A layer name the document has never seen.
	if err := eng.InsertAnnotation("m.xml", "mark", Region{Start: 15, End: 18}); err != nil {
		t.Fatal(err)
	}
	withMark := strings.Replace(withHit, "</doc>", `<mark start="15" end="18"/></doc>`, 1)
	assertMatchesOracle(t, eng, withMark, mutateQueries...)
}

// TestInsertAnnotationErrors pins the validation surface.
func TestInsertAnnotationErrors(t *testing.T) {
	eng := mutateEngine(t)
	for name, call := range map[string]func() error{
		"empty element": func() error { return eng.InsertAnnotation("m.xml", "") },
		"no regions":    func() error { return eng.InsertAnnotation("m.xml", "hit") },
		"inverted":      func() error { return eng.InsertAnnotation("m.xml", "hit", Region{Start: 9, End: 3}) },
		"unknown doc":   func() error { return eng.InsertAnnotation("nope.xml", "hit", Region{Start: 1, End: 2}) },
		"multi-region in attribute mode": func() error {
			return eng.InsertAnnotation("m.xml", "hit", Region{Start: 1, End: 2}, Region{Start: 5, End: 7})
		},
	} {
		if err := call(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// The failed inserts must not have perturbed the document.
	assertMatchesOracle(t, eng, mutateDoc, mutateQueries...)
}

// TestInsertAnnotationRejectsBadNames: an element name the XML parser would
// not read back is refused with the typed error before anything is interned
// or appended, so the snapshot keeps serialising to well-formed XML.
func TestInsertAnnotationRejectsBadNames(t *testing.T) {
	eng := mutateEngine(t)
	for _, elem := range []string{"", "a b", "<x", "1st", "-x", "a>b", `a"b`, "a/b", "x y='1'"} {
		err := eng.InsertAnnotation("m.xml", elem, Region{Start: 1, End: 2})
		if !errors.Is(err, ErrInvalidAnnotationName) {
			t.Errorf("InsertAnnotation(%q) = %v, want ErrInvalidAnnotationName", elem, err)
		}
	}
	for _, elem := range []string{"mark", "_m", "ns:mark", "m-1.b", "märk"} {
		if err := eng.InsertAnnotation("m.xml", elem, Region{Start: 1, End: 2}); err != nil {
			t.Errorf("InsertAnnotation(%q): %v", elem, err)
		}
	}
	// What the engine now serialises parses back to the same document.
	res, err := eng.Query(`doc("m.xml")`)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, eng, res.String(), mutateQueries...)
}

// TestInsertAnnotationMultiRegion: with standoff-region declared, one insert
// carries several regions as nested region elements.
func TestInsertAnnotationMultiRegion(t *testing.T) {
	eng := New()
	for opt, v := range map[string]string{
		"standoff-region": "region", "standoff-start": "from", "standoff-end": "to",
	} {
		if err := eng.Declare(opt, v); err != nil {
			t.Fatal(err)
		}
	}
	doc := `<doc>` +
		`<scene id="s1"><region><from>0</from><to>99</to></region></scene>` +
		`<hit id="h1"><region><from>10</from><to>20</to></region></hit>` +
		`</doc>`
	if err := eng.LoadXML("m.xml", []byte(doc)); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex("m.xml"); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertAnnotation("m.xml", "hit", Region{Start: 30, End: 40}, Region{Start: 50, End: 60}); err != nil {
		t.Fatal(err)
	}
	// The annotation element itself may not reuse the region element name.
	if err := eng.InsertAnnotation("m.xml", "region", Region{Start: 1, End: 2}); err == nil {
		t.Fatal("inserting an annotation named like the region element succeeded")
	}
	want := strings.Replace(doc, "</doc>",
		`<hit><region><from>30</from><to>40</to></region><region><from>50</from><to>60</to></region></hit></doc>`, 1)
	oracle := New()
	for opt, v := range map[string]string{
		"standoff-region": "region", "standoff-start": "from", "standoff-end": "to",
	} {
		if err := oracle.Declare(opt, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := oracle.LoadXML("m.xml", []byte(want)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`count(doc("m.xml")//scene/select-wide::hit)`,
		`doc("m.xml")//scene/select-narrow::hit/@id`,
	} {
		ref, err := oracle.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.String() != ref.String() {
			t.Fatalf("%q: got %q, oracle %q", q, res.String(), ref.String())
		}
	}
}

// TestDeleteAnnotationVisible: deletes by exact covering bounds, reports the
// removed count, and the removed layer disappears from every read path.
func TestDeleteAnnotationVisible(t *testing.T) {
	eng := mutateEngine(t)
	n, err := eng.DeleteAnnotation("m.xml", "hit", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("deleted %d, want 1", n)
	}
	without := strings.Replace(mutateDoc, `<hit id="h1" start="10" end="20"/>`, "", 1)
	assertMatchesOracle(t, eng, without, mutateQueries...)

	// Gone means gone: the same delete now matches nothing.
	if n, err := eng.DeleteAnnotation("m.xml", "hit", 10, 20); err != nil || n != 0 {
		t.Fatalf("re-delete = %d, %v; want 0, nil", n, err)
	}
	// Unknown layers and bounds are a no-op, not an error.
	if n, err := eng.DeleteAnnotation("m.xml", "nothere", 0, 1); err != nil || n != 0 {
		t.Fatalf("unknown layer delete = %d, %v; want 0, nil", n, err)
	}
	if _, err := eng.DeleteAnnotation("gone.xml", "hit", 0, 1); err == nil {
		t.Fatal("delete on an unloaded document succeeded")
	}

	// Insert two identical annotations, delete both with one call.
	for i := 0; i < 2; i++ {
		if err := eng.InsertAnnotation("m.xml", "mark", Region{Start: 5, End: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := eng.DeleteAnnotation("m.xml", "mark", 5, 8); err != nil || n != 2 {
		t.Fatalf("duplicate delete = %d, %v; want 2, nil", n, err)
	}
	assertMatchesOracle(t, eng, without, mutateQueries...)
}

// TestMutationSnapshotCursor pins the snapshot contract: a cursor that has
// started draining keeps its pre-write generation to the end, while the next
// execution sees the post-write state.
func TestMutationSnapshotCursor(t *testing.T) {
	eng := mutateEngine(t)
	const q = `for $s in doc("m.xml")//scene return $s/select-narrow::hit/@id`
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.String()

	cur, err := prep.Stream(Config{StreamChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() { // resolve the document: the run is now pinned
		t.Fatal("empty stream")
	}
	got := cur.Value().XML()

	// Writes land mid-drain.
	if err := eng.InsertAnnotation("m.xml", "hit", Region{Start: 120, End: 130}); err != nil {
		t.Fatal(err)
	}
	if n, err := eng.DeleteAnnotation("m.xml", "hit", 110, 120); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}

	for cur.Next() {
		got += " " + cur.Value().XML()
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("in-flight cursor drifted:\ngot  %q\nwant %q", got, want)
	}

	// The next run of the very same Prepared sees the new generation.
	mutated := strings.Replace(mutateDoc, `<hit id="h2" start="110" end="120"/>`,
		``, 1)
	mutated = strings.Replace(mutated, "</doc>", `<hit start="120" end="130"/></doc>`, 1)
	oracle := New()
	if err := oracle.LoadXML("m.xml", []byte(mutated)); err != nil {
		t.Fatal(err)
	}
	wantRes, err := oracle.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != wantRes.String() {
		t.Fatalf("post-write exec = %q, want %q", res.String(), wantRes.String())
	}
}

// TestMutationKeepsPlanCacheFresh is the plan-cache layer of the
// invalidation matrix: cached plans stay cached across writes (they resolve
// documents at execution time), yet a cached re-execution never serves
// pre-write rows.
func TestMutationKeepsPlanCacheFresh(t *testing.T) {
	eng := mutateEngine(t)
	const q = `count(doc("m.xml")//scene/select-narrow::hit)`
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses, size := eng.PlanCacheStats(); hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("warm-up stats = %d/%d/%d, want 1/1/1", hits, misses, size)
	}
	if err := eng.InsertAnnotation("m.xml", "hit", Region{Start: 30, End: 40}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != "3" {
		t.Fatalf("cached query after insert = %q, want 3 (stale result served)", got)
	}
	if hits, _, size := eng.PlanCacheStats(); hits != 2 || size != 1 {
		t.Fatalf("post-write stats = hits %d size %d, want the plan still cached (2, 1)", hits, size)
	}
}

// TestAnalyzeReportsDeltaMerge: an analyzed StandOff step reports the delta
// layers of the index its join ran on — merge{+ins= -del=} beside the
// observed candidate count — and nothing once compaction folds them.
func TestAnalyzeReportsDeltaMerge(t *testing.T) {
	eng := mutateEngine(t)
	prep, err := eng.Prepare(`doc("m.xml")//scene/select-narrow::hit`)
	if err != nil {
		t.Fatal(err)
	}
	analyze := func() string {
		t.Helper()
		_, pe, err := prep.Analyze(Config{})
		if err != nil {
			t.Fatal(err)
		}
		return pe.String()
	}
	before := analyze()
	if !strings.Contains(before, "cand=2 ") || strings.Contains(before, "merge{") {
		t.Fatalf("pre-write analyze: want cand=2 and no delta merge:\n%s", before)
	}

	for _, r := range []Region{{Start: 30, End: 40}, {Start: 50, End: 60}} {
		if err := eng.InsertAnnotation("m.xml", "hit", r); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := eng.DeleteAnnotation("m.xml", "hit", 10, 20); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	after := analyze()
	if !strings.Contains(after, "cand=3 ") || !strings.Contains(after, " merge{+ins=2 -del=1}") {
		t.Fatalf("post-write analyze: want cand=3 and merge{+ins=2 -del=1}:\n%s", after)
	}

	if err := eng.CompactAnnotations("m.xml"); err != nil {
		t.Fatal(err)
	}
	compacted := analyze()
	if !strings.Contains(compacted, "cand=3 ") || strings.Contains(compacted, "merge{") {
		t.Fatalf("post-compaction analyze: want cand=3 and no delta merge:\n%s", compacted)
	}
}

// TestExplainGoldenDeltaMerge pins the full EXPLAIN ANALYZE rendering of a
// delta-heavy plan: the stand-off step's observed counters carry the LSM
// merge operator, and a compaction removes it.
func TestExplainGoldenDeltaMerge(t *testing.T) {
	eng := figure2Engine(t)
	if err := eng.BuildIndex("d.xml"); err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(`for $s in doc("d.xml")//music[@artist = "U2"]/select-narrow::shot
	         return string($s/@id)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Region{{Start: 0, End: 5}, {Start: 70, End: 90}} {
		if err := eng.InsertAnnotation("d.xml", "shot", r); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := eng.DeleteAnnotation("d.xml", "shot", 8, 64); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	_, pe, err := prep.Analyze(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := `options: type=xs:integer start=@start end=@end
plan:
  flwor (tuples=2 out=2 chunks=1)
    for $s in
      path doc("d.xml") (out=2)
        step descendant::music[@artist = "U2"] pred{attr} (fused //) (in=1 out=1)
        step select-narrow::shot standoff{op=select-narrow push=by-name(shot) nopush=all+filter} (in=1 out=2 cand=4 joins=looplifted:1 merge{+ins=2 -del=1} stream{chunks=1 chunk=1..1})
    return string($s/@id)
stream:
  flwor [pipelined] for $s tuples stream in chunks; loop body loop-lifted per chunk
    path [pipelined] final StandOff step select-narrow streams per context chunk through a watermark-gated pending-pre set when the context is single-document
`
	if got := pe.String(); got != want {
		t.Fatalf("delta analyze:\n%s\nwant:\n%s", got, want)
	}
	if err := eng.CompactAnnotations("d.xml"); err != nil {
		t.Fatal(err)
	}
	if _, pe, err = prep.Analyze(Config{}); err != nil {
		t.Fatal(err)
	}
	if got := pe.String(); strings.Contains(got, "merge{") {
		t.Fatalf("post-compaction analyze still renders a merge:\n%s", got)
	}
}

// deltaStatsFor reads the pending delta size of the engine's cached index
// for document name (0, 0 after compaction or for a fresh base).
func deltaStatsFor(t testing.TB, eng *Engine, name string) (ins, del int) {
	t.Helper()
	eng.mu.RLock()
	defer eng.mu.RUnlock()
	d := eng.docs[name]
	for k, ix := range eng.indexes {
		if k.doc == d {
			return ix.DeltaStats()
		}
	}
	t.Fatalf("no cached index for %q", name)
	return 0, 0
}

// TestAutoCompaction: once the pending delta reaches the configured
// threshold, the mutation that crossed it folds the delta into a fresh base.
func TestAutoCompaction(t *testing.T) {
	eng := mutateEngine(t)
	eng.SetAutoCompactThreshold(3)
	for i, r := range []Region{{Start: 30, End: 40}, {Start: 50, End: 60}} {
		if err := eng.InsertAnnotation("m.xml", "hit", r); err != nil {
			t.Fatal(err)
		}
		if ins, del := deltaStatsFor(t, eng, "m.xml"); ins != i+1 || del != 0 {
			t.Fatalf("after %d inserts: delta = %d/%d", i+1, ins, del)
		}
	}
	// The third mutation crosses the threshold and auto-compacts.
	if n, err := eng.DeleteAnnotation("m.xml", "hit", 30, 40); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if ins, del := deltaStatsFor(t, eng, "m.xml"); ins != 0 || del != 0 {
		t.Fatalf("auto-compaction did not fold the delta: %d/%d", ins, del)
	}
	want := strings.Replace(mutateDoc, "</doc>", `<hit start="50" end="60"/></doc>`, 1)
	assertMatchesOracle(t, eng, want, mutateQueries...)

	// Threshold 0 disables: deltas accumulate indefinitely.
	eng.SetAutoCompactThreshold(0)
	for i := 0; i < 6; i++ {
		if err := eng.InsertAnnotation("m.xml", "mark", Region{Start: int64(i), End: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if ins, _ := deltaStatsFor(t, eng, "m.xml"); ins != 6 {
		t.Fatalf("disabled auto-compaction still compacted: ins = %d", ins)
	}
}

// TestMutationTelemetry: the write path's counters and the pending-delta
// gauge reach the ops scrape.
func TestMutationTelemetry(t *testing.T) {
	eng := mutateEngine(t)
	for _, r := range []Region{{Start: 30, End: 40}, {Start: 50, End: 60}} {
		if err := eng.InsertAnnotation("m.xml", "hit", r); err != nil {
			t.Fatal(err)
		}
	}
	m := scrapeMetrics(t, eng)
	for name, want := range map[string]int64{
		`soxq_mutations_total{op="insert"}`: 2,
		`soxq_mutations_total{op="delete"}`: 0,
		`soxq_mutation_regions_total`:       2,
		`soxq_compactions_total`:            0,
		`soxq_delta_annotations`:            2,
	} {
		if got, ok := m[name]; !ok {
			t.Errorf("metric %s not exposed", name)
		} else if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Which merge a read-after-write paid: a named step merges its layer,
	// once per snapshot; only a wildcard step merges the whole index, into
	// the base's table, which its first use builds; the delete merges
	// nothing; a compaction merges no table, only the layer of each written
	// name a delta version has read, which the new base keeps (hit, the
	// first time; the second lineage reads no name).
	const layerMerges, fullMerges = `soxq_index_merges_total{scope="layer"}`, `soxq_index_merges_total{scope="full"}`
	run := func(q string) {
		t.Helper()
		if _, err := eng.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	run(`doc("m.xml")//scene/select-narrow::hit`)
	run(`doc("m.xml")//scene/select-wide::hit`)
	m1 := scrapeMetrics(t, eng)
	if l, f := m1[layerMerges]-m[layerMerges], m1[fullMerges]-m[fullMerges]; l != 1 || f != 0 {
		t.Errorf("named reads after a write: %d layer / %d full merges, want 1 / 0", l, f)
	}
	run(`doc("m.xml")//scene/select-narrow::*`)
	m2 := scrapeMetrics(t, eng)
	if l, f := m2[layerMerges]-m1[layerMerges], m2[fullMerges]-m1[fullMerges]; l != 0 || f != 2 {
		t.Errorf("wildcard read after a write: %d layer / %d full merges, want 0 / 2", l, f)
	}
	if n, err := eng.DeleteAnnotation("m.xml", "hit", 30, 40); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	m3 := scrapeMetrics(t, eng)
	if l, f := m3[layerMerges]-m2[layerMerges], m3[fullMerges]-m2[fullMerges]; l != 0 || f != 0 {
		t.Errorf("delete: %d layer / %d full merges, want none", l, f)
	}
	if err := eng.CompactAnnotations("m.xml"); err != nil {
		t.Fatal(err)
	}
	m = scrapeMetrics(t, eng)
	if l, f := m[layerMerges]-m3[layerMerges], m[fullMerges]-m3[fullMerges]; l != 1 || f != 0 {
		t.Errorf("compact: %d layer / %d full merges, want 1 / 0", l, f)
	}
	for name, want := range map[string]int64{
		`soxq_mutations_total{op="delete"}`: 1,
		`soxq_compactions_total`:            1,
		`soxq_delta_annotations`:            0,
	} {
		if got := m[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if err := eng.InsertAnnotation("m.xml", "hit", Region{Start: 70, End: 80}); err != nil {
		t.Fatal(err)
	}
	run(`doc("m.xml")//scene/select-narrow::*`)
	m4 := scrapeMetrics(t, eng)
	if err := eng.CompactAnnotations("m.xml"); err != nil {
		t.Fatal(err)
	}
	m = scrapeMetrics(t, eng)
	if l, f := m[layerMerges]-m4[layerMerges], m[fullMerges]-m4[fullMerges]; l != 0 || f != 0 {
		t.Errorf("compact after a wildcard read: %d layer / %d full merges, want none", l, f)
	}
}

// TestAttrPushdownUnderDeltas: a StandOff step whose attribute predicates
// narrow its candidates reads a delta index right — the base's value
// ordering minus the tombstones, plus the live inserts tested one by one —
// matching a fresh engine over the serialised snapshot and the compacted
// index, across the execution matrix. Writes and delta reads build no value
// ordering; a compaction starts with none.
func TestAttrPushdownUnderDeltas(t *testing.T) {
	var doc strings.Builder
	doc.WriteString(`<doc><scene id="s1" start="0" end="1000"/><scene id="s2" start="300" end="700"/>`)
	for i := 0; i < 40; i++ {
		s := i * 23 % 900
		fmt.Fprintf(&doc, `<mark id="k%d" start="%d" end="%d"/>`, i, s, s+5+i%40)
	}
	doc.WriteString(`</doc>`)
	eng := New()
	if err := eng.LoadXML("m.xml", []byte(doc.String())); err != nil {
		t.Fatal(err)
	}
	var queries []string
	for _, n := range []int{0, 150, 400, 460, 905, 2000} {
		queries = append(queries,
			fmt.Sprintf(`doc("m.xml")//scene/select-narrow::mark[@start < %d]`, n),
			fmt.Sprintf(`doc("m.xml")//scene/select-wide::mark[@end >= %d]`, n),
			fmt.Sprintf(`for $s in doc("m.xml")//scene return $s/select-narrow::mark[@start >= %d][@end < %d][1]`, n, n+300),
			fmt.Sprintf(`doc("m.xml")//scene[@id = "s2"]/reject-wide::mark[@end >= %d]`, n))
	}
	results := func(e *Engine) []string {
		t.Helper()
		var out []string
		for _, q := range queries {
			prep, err := e.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []Config{{}, {NoPushdown: true}, {Mode: ModeBasic}, {StreamChunk: 2}} {
				res, err := prep.Exec(cfg)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				out = append(out, q+" => "+res.String())
			}
		}
		return out
	}
	results(eng) // the base builds the (mark, start) and (mark, end) orderings
	built := core.AttrOrderBuilds()
	for i := 0; i < 12; i++ {
		if err := eng.InsertAnnotation("m.xml", "mark", Region{Start: int64(i * 71 % 950), End: int64(i*71%950 + 20)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][2]int64{{23, 29}, {115, 125}, {71, 91}, {710, 730}} { // base and inserted marks
		if n, err := eng.DeleteAnnotation("m.xml", "mark", r[0], r[1]); err != nil || n == 0 {
			t.Fatalf("delete %v = %d, %v", r, n, err)
		}
	}
	got := results(eng)
	if b := core.AttrOrderBuilds(); b != built {
		t.Fatalf("writes and delta reads built %d value orderings, want none", b-built)
	}
	snap, err := eng.Query(`doc("m.xml")/*`)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New()
	if err := fresh.LoadXML("m.xml", []byte(snap.String())); err != nil {
		t.Fatal(err)
	}
	want := results(fresh)
	if err := eng.CompactAnnotations("m.xml"); err != nil {
		t.Fatal(err)
	}
	built = core.AttrOrderBuilds()
	compacted := results(eng)
	if b := core.AttrOrderBuilds(); b != built+2 {
		t.Fatalf("reads after compaction built %d value orderings, want 2", b-built)
	}
	for i := range want {
		if got[i] != want[i] || compacted[i] != want[i] {
			t.Fatalf("delta    %s\ncompacted %s\nfresh    %s", got[i], compacted[i], want[i])
		}
	}
}

// TestConcurrentMutationsAndStreams races the write path against readers:
// writer goroutines insert, delete and compact a churn layer while reader
// goroutines drain Exec and Stream runs of a query over an untouched layer —
// whose result must never move — plus a count over the churned layer, which
// may be any snapshot's answer but must parse and never error. Must stay
// clean under `go test -race`.
func TestConcurrentMutationsAndStreams(t *testing.T) {
	eng := mutateEngine(t)
	eng.SetAutoCompactThreshold(4) // compactions land mid-flight, often
	const stable = `doc("m.xml")//scene/select-narrow::hit/@id`
	prep, err := eng.Prepare(stable)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.String()
	if want != `id="h1" id="h2"` {
		t.Fatalf("reference = %q", want)
	}
	churn, err := eng.Prepare(`count(doc("m.xml")//scene/select-narrow::mark)`)
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers    = 6
		iterations = 150
	)
	var workers, writer sync.WaitGroup
	stop := make(chan struct{})
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := int64((i % 90) + 1)
			if err := eng.InsertAnnotation("m.xml", "mark", Region{Start: s, End: s + 2}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			if i%3 == 0 {
				if _, err := eng.DeleteAnnotation("m.xml", "mark", s, s+2); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
			if i%7 == 0 {
				if err := eng.CompactAnnotations("m.xml"); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()

	var drains atomic.Int64
	for g := 0; g < readers; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			cfg := Config{StreamChunk: g + 1}
			for i := 0; i < iterations; i++ {
				res, err := prep.Exec(Config{})
				if err != nil {
					t.Errorf("exec: %v", err)
					return
				}
				if got := res.String(); got != want {
					t.Errorf("stable layer moved under mutation: %q", got)
					return
				}
				cur, err := prep.Stream(cfg)
				if err != nil {
					t.Errorf("stream: %v", err)
					return
				}
				got, err := drainStream(cur)
				if err != nil {
					t.Errorf("drain: %v", err)
					return
				}
				if got != want {
					t.Errorf("streamed stable layer moved: %q", got)
					return
				}
				if _, err := churn.Exec(Config{}); err != nil {
					t.Errorf("churn count: %v", err)
					return
				}
				drains.Add(1)
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	writer.Wait()
	if t.Failed() {
		return
	}
	if drains.Load() != readers*iterations {
		t.Fatalf("completed %d reader rounds, want %d", drains.Load(), readers*iterations)
	}
}

// TestStreamEarlyCloseDuringMutations: long streams abandoned after a few
// items while writes and compactions land concurrently — no deadlock, no
// goroutine leak, Err stays nil. Extends the TestStreamEarlyClose contract
// to a mutating engine.
func TestStreamEarlyCloseDuringMutations(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for s := 0; s < 300; s++ {
		base := s * 100
		fmt.Fprintf(&sb, `<scene id="s%d" start="%d" end="%d"/>`, s, base, base+99)
		for h := 0; h < 8; h++ {
			fmt.Fprintf(&sb, `<hit start="%d" end="%d"/>`, base+h, base+h+1)
		}
	}
	sb.WriteString("</doc>")
	eng := New()
	if err := eng.LoadXML("m.xml", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex("m.xml"); err != nil {
		t.Fatal(err)
	}
	eng.SetAutoCompactThreshold(8)
	prep, err := eng.Prepare(`doc("m.xml")//scene/select-narrow::hit`)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := int64(i%29000 + 1)
			if err := eng.InsertAnnotation("m.xml", "mark", Region{Start: s, End: s + 1}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()

	// The baseline counts the writer, which runs until stop.
	baseline := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		cur, err := prep.Stream(Config{StreamChunk: 1 + i%8})
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 5 && cur.Next(); n++ {
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("stream %d: %d goroutines after Close, %d before", i, n, baseline)
			break
		}
	}
	close(stop)
	writer.Wait()
}

// TestIncrementalMutationFasterThanRebuild is the acceptance guard on the
// write path: inserting 1,000 regions into the already-queried 122k-region
// benchmark corpus and re-querying must beat the full-rebuild write model by
// a wide margin. The headline number is pinned by BenchmarkMutateThenQuery
// (>=10x on an unloaded machine); the test asserts a conservative 3x on
// best-of-3 runs so loaded CI runners do not flake.
func TestIncrementalMutationFasterThanRebuild(t *testing.T) {
	if raceEnabled {
		t.Skip("timing ratio is meaningless under the race detector")
	}
	measure := func(rebuild bool) time.Duration {
		best := time.Duration(1 << 62)
		for run := 0; run < 3; run++ {
			eng := New()
			loadBigCorpus(t, eng)
			prep, err := eng.Prepare(`count(doc("big.xml")//scene/select-narrow::mark)`)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := prep.Exec(Config{}); err != nil {
				t.Fatal(err)
			}
			begin := time.Now()
			want := mutateBenchInserts(t, eng, 0, 1000)
			if rebuild {
				rebuildIndexes(t, eng, "big.xml")
			}
			res, err := prep.Exec(Config{})
			elapsed := time.Since(begin)
			if err != nil {
				t.Fatal(err)
			}
			if res.String() != fmt.Sprint(want) {
				t.Fatalf("count = %s, want %d", res.String(), want)
			}
			if elapsed < best {
				best = elapsed
			}
		}
		return best
	}
	inc := measure(false)
	reb := measure(true)
	if reb < 3*inc {
		t.Fatalf("incremental %v vs full rebuild %v: %.1fx, want >= 3x",
			inc, reb, float64(reb)/float64(inc))
	}
	t.Logf("incremental %v vs full rebuild %v: %.1fx", inc, reb, float64(reb)/float64(inc))
}

// TestDeleteCostIndependentOfBaseSize is the same-run scaling guard on the
// delete path: removing a mark costs the mark layer and the pending delta,
// not the document. The same 1,000-mark layer is written into the 122k-region
// corpus and into one a tenth its size; the median delete on the large one
// may cost at most 4x the small one's (an O(base) delete costs 10x).
func TestDeleteCostIndependentOfBaseSize(t *testing.T) {
	if raceEnabled {
		t.Skip("timing ratio is meaningless under the race detector")
	}
	const marks, small = 1000, bigScenes / 10
	measure := func(xml []byte) time.Duration {
		eng := New()
		if err := eng.LoadXML("big.xml", xml); err != nil {
			t.Fatal(err)
		}
		if err := eng.BuildIndex("big.xml"); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < marks; j++ {
			s := int64(j*197) % (small * 100) // inside both documents, all bounds distinct
			if err := eng.InsertAnnotation("big.xml", "mark", Region{Start: s, End: s + 2}); err != nil {
				t.Fatal(err)
			}
		}
		var each []time.Duration
		for j := 0; j < marks; j += 4 {
			s := int64(j*197) % (small * 100)
			t0 := time.Now()
			n, err := eng.DeleteAnnotation("big.xml", "mark", s, s+2)
			each = append(each, time.Since(t0))
			if err != nil || n != 1 {
				t.Fatalf("delete mark %d: removed %d, err %v", j, n, err)
			}
		}
		slices.Sort(each)
		return each[len(each)/2]
	}
	best := math.Inf(1)
	var lg, sm time.Duration
	for run := 0; run < 3 && best > 4; run++ { // a loaded runner gets three tries
		lg, sm = measure(sceneCorpusXML(bigScenes)), measure(sceneCorpusXML(small))
		best = min(best, float64(lg)/float64(sm))
	}
	t.Logf("median delete %v on %d scenes vs %v on %d: %.1fx", lg, bigScenes, sm, small, best)
	if best > 4 {
		t.Fatalf("delete cost grows with the base: %.1fx, want <= 4x", best)
	}
}

// TestRunViewPinsBothDocuments: a run holds the first snapshot of every
// document it resolves, of the first one and of those after it, and of their
// indexes — a two-document query streamed one iteration per chunk, and a
// two-member corpus run — while writes to both documents land mid-drain; the
// next run sees the writes.
func TestRunViewPinsBothDocuments(t *testing.T) {
	eng := mutateEngine(t)
	if err := eng.LoadXML("n.xml", []byte(mutateDoc)); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateCorpus("both", "m.xml", "n.xml"); err != nil {
		t.Fatal(err)
	}
	const q = `for $i in 1 to 3 return (count(doc("m.xml")//scene/select-narrow::hit), count(doc("n.xml")//scene/select-narrow::hit))`
	const cq = `for $s in doc("both")//scene return count($s/select-narrow::hit)`
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	cprep, err := eng.Prepare(cq)
	if err != nil {
		t.Fatal(err)
	}
	drain := func(stream func() (*Cursor, error), write bool) string {
		t.Helper()
		cur, err := stream()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for cur.Next() {
			out = append(out, cur.Value().XML())
			if write && len(out) == 1 {
				for _, d := range []string{"m.xml", "n.xml"} {
					if err := eng.InsertAnnotation(d, "hit", Region{Start: 30, End: 40}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(out, " ")
	}
	for _, p := range []struct {
		name   string
		stream func() (*Cursor, error)
		before string
	}{
		{"two documents", func() (*Cursor, error) { return prep.Stream(Config{StreamChunk: 1}) }, "2 2 2 2 2 2"},
		{"corpus", func() (*Cursor, error) { return cprep.StreamCorpus("both", Config{StreamChunk: 1}) }, ""},
	} {
		want := drain(p.stream, false) // the run before any write of this round
		if p.before != "" && want != p.before {
			t.Fatalf("%s: %s, want %s", p.name, want, p.before)
		}
		if got := drain(p.stream, true); got != want {
			t.Fatalf("%s: the run drifted with the writes:\n got %s\nwant %s", p.name, got, want)
		}
		if after := drain(p.stream, false); after == want {
			t.Fatalf("%s: the next run does not see the writes: %s", p.name, after)
		}
	}
}
