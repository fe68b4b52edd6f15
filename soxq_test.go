package soxq

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"soxq/internal/blob"
	"soxq/internal/xmark"
)

func sortStrings(s []string) { sort.Strings(s) }

const figure1Doc = `<sample>
  <video>
    <shot id="Intro" start="0:00" end="0:08"/>
    <shot id="Interview" start="0:08" end="1:04"/>
    <shot id="Outro" start="1:04" end="1:34"/>
  </video>
  <audio>
    <music artist="U2" start="0:00" end="0:31"/>
    <music artist="Bach" start="0:52" end="1:34"/>
  </audio>
</sample>`

func figure1Engine(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	if err := eng.Declare("standoff-type", "so:timecode"); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadXML("sample.xml", []byte(figure1Doc)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestQuickstart is the README example.
func TestQuickstart(t *testing.T) {
	eng := New()
	err := eng.LoadXML("sample.xml", []byte(`<doc>
	  <scene id="s1" start="0" end="99"/>
	  <hit start="10" end="20"/>
	</doc>`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`doc("sample.xml")//scene/select-narrow::hit`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Value(0).IsNode() {
		t.Fatalf("quickstart result: %s", res)
	}
}

// TestSection31TableAllModes reproduces the paper's section 3.1 table
// through the public API in every execution mode.
func TestSection31TableAllModes(t *testing.T) {
	want := map[string]string{
		"select-narrow": "Intro",
		"select-wide":   "Intro Interview",
		"reject-narrow": "Interview Outro",
		"reject-wide":   "Outro",
	}
	for _, mode := range []Mode{ModeLoopLifted, ModeBasic, ModeUDF} {
		eng := figure1Engine(t)
		for axis, expected := range want {
			q := fmt.Sprintf(
				`for $s in doc("sample.xml")//music[@artist = "U2"]/%s::shot return string($s/@id)`, axis)
			res, err := eng.QueryWith(q, Config{Mode: mode})
			if err != nil {
				t.Fatalf("%v/%s: %v", mode, axis, err)
			}
			if got := strings.Join(res.Strings(), " "); got != expected {
				t.Errorf("%v/%s = %q, want %q", mode, axis, got, expected)
			}
		}
	}
}

func TestEngineBasics(t *testing.T) {
	eng := New()
	if err := eng.LoadXML("a.xml", []byte(`<a><b>1</b></a>`)); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadXML("bad.xml", []byte(`<a>`)); err == nil {
		t.Fatal("malformed XML must fail to load")
	}
	res, err := eng.Query(`doc("a.xml")/a/b + 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "2" {
		t.Fatalf("result = %s", res.String())
	}
	if _, err := eng.Query(`doc("missing.xml")`); err == nil {
		t.Fatal("missing document must fail")
	}
	if _, err := eng.Query(`1 +`); err == nil {
		t.Fatal("syntax error must fail")
	}
	if err := eng.Declare("standoff-start", "from"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Declare("no-such-option", "x"); err == nil {
		t.Fatal("unknown option must fail")
	}
	if err := eng.Declare("standoff-type", "bogus"); err == nil {
		t.Fatal("bad option value must fail")
	}
	docs := eng.Documents()
	if len(docs) != 1 || docs[0] != "a.xml" {
		t.Fatalf("Documents = %v", docs)
	}
	eng.Unload("a.xml")
	if len(eng.Documents()) != 0 {
		t.Fatal("Unload failed")
	}
}

func TestResultAccessors(t *testing.T) {
	eng := figure1Engine(t)
	res, err := eng.Query(`doc("sample.xml")//music[@artist = "Bach"]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("Len = %d", res.Len())
	}
	v := res.Value(0)
	if !v.IsNode() {
		t.Fatal("expected a node")
	}
	if !strings.Contains(v.XML(), `artist="Bach"`) {
		t.Fatalf("XML = %s", v.XML())
	}
	vals := res.Values()
	if len(vals) != 1 || vals[0].XML() != v.XML() {
		t.Fatal("Values mismatch")
	}
	res2, err := eng.Query(`doc("sample.xml")//music/@artist`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.String() != `artist="U2" artist="Bach"` {
		t.Fatalf("attr serialization = %s", res2.String())
	}
	if got := res2.Strings(); got[0] != "U2" || got[1] != "Bach" {
		t.Fatalf("Strings = %v", got)
	}
}

func TestIndexCachingAcrossQueries(t *testing.T) {
	eng := figure1Engine(t)
	if err := eng.BuildIndex("sample.xml"); err == nil {
		// Index under timecode options must parse 0:00 values; building
		// eagerly succeeds.
		_ = err
	} else {
		t.Fatalf("BuildIndex: %v", err)
	}
	if len(eng.indexes) != 1 {
		t.Fatalf("index cache size = %d", len(eng.indexes))
	}
	if _, err := eng.Query(`count(doc("sample.xml")//music/select-wide::shot)`); err != nil {
		t.Fatal(err)
	}
	if len(eng.indexes) != 1 {
		t.Fatalf("index cache grew unexpectedly: %d", len(eng.indexes))
	}
	// Different per-query options build a separate index... with integer
	// positions the timecode values fail, which must surface as an error.
	if _, err := eng.Query(`declare option standoff-type "xs:integer";
		count(doc("sample.xml")//music/select-wide::shot)`); err == nil {
		t.Fatal("integer options over timecode data must fail index construction")
	}
}

func TestLoadStandOffAndBlobText(t *testing.T) {
	eng := New()
	err := eng.LoadStandOff("notes.xml",
		[]byte(`<doc start="0" end="10"><note start="0" end="4"/><note start="6" end="10"/></doc>`),
		blob.FromString("Hello world"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(`for $n in doc("notes.xml")//note return so:blob-text($n)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Strings(), "|"); got != "Hello|world" {
		t.Fatalf("blob-text = %q", got)
	}
}

// TestXMarkStandOffEquivalence is the central integration test: the plain
// XMark queries on the original document and the stand-off rewritings on the
// converted (permuted!) document must agree, with text retrieved back
// through the BLOB.
func TestXMarkStandOffEquivalence(t *testing.T) {
	data, err := xmark.GenerateBytes(xmark.Config{Scale: 0.004, Seed: 11})
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

	// Q1: same person, name text via BLOB.
	plain, err := eng.Query(xmark.Query(1, "xmark.xml"))
	if err != nil {
		t.Fatal(err)
	}
	so, err := eng.Query(`for $n in (` + stripReturn(xmark.StandOffQuery(1, "xmark-so.xml")) + `) return so:blob-text($n)`)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != so.String() {
		t.Fatalf("Q1: plain %q != standoff %q", plain.String(), so.String())
	}

	// Q2: increases of first bidders, text via BLOB.
	plain2, err := eng.Query(`for $b in doc("xmark.xml")/site/open_auctions/open_auction
		return string($b/bidder[1]/increase)`)
	if err != nil {
		t.Fatal(err)
	}
	so2, err := eng.Query(`for $b in doc("xmark-so.xml")//site/select-narrow::open_auctions/select-narrow::open_auction
		return string-join(
		  for $i in $b/select-narrow::bidder[1]/select-narrow::increase
		  return so:blob-text($i), "")`)
	if err != nil {
		t.Fatal(err)
	}
	// The permutation changes the document order of the auctions, so the
	// result sequences agree as multisets, not in order (the stand-off step
	// returns nodes in the stand-off document's order, section 3.2).
	ps, ss := plain2.Strings(), so2.Strings()
	sortStrings(ps)
	sortStrings(ss)
	if strings.Join(ps, "|") != strings.Join(ss, "|") {
		t.Fatalf("Q2 mismatch:\nplain %v\nso    %v", ps, ss)
	}

	// Q6 and Q7 are counts; compare directly across all modes.
	for _, q := range []int{6, 7} {
		plainRes, err := eng.Query(xmark.Query(q, "xmark.xml"))
		if err != nil {
			t.Fatalf("Q%d plain: %v", q, err)
		}
		for _, mode := range []Mode{ModeLoopLifted, ModeBasic, ModeUDF} {
			soRes, err := eng.QueryWith(xmark.StandOffQuery(q, "xmark-so.xml"), Config{Mode: mode})
			if err != nil {
				t.Fatalf("Q%d %v: %v", q, mode, err)
			}
			if plainRes.String() != soRes.String() {
				t.Fatalf("Q%d (%v): plain %q != standoff %q", q, mode, plainRes.String(), soRes.String())
			}
		}
	}

	// The UDF-form stand-off queries (Figure 3 baseline) agree too.
	for _, q := range []int{6, 7} {
		udfRes, err := eng.Query(xmark.UDFStandOffQuery(q, "xmark-so.xml"))
		if err != nil {
			t.Fatalf("Q%d UDF: %v", q, err)
		}
		plainRes, _ := eng.Query(xmark.Query(q, "xmark.xml"))
		if udfRes.String() != plainRes.String() {
			t.Fatalf("Q%d UDF: %q != %q", q, udfRes.String(), plainRes.String())
		}
	}
}

// stripReturn extracts the body of "for $b in X return Y" queries as a plain
// path so the test can wrap it; crude but sufficient for Q1's shape.
func stripReturn(q string) string {
	q = strings.ReplaceAll(q, "\n", " ")
	i := strings.Index(q, "for ")
	return q[i:]
}

// TestConcurrentQueries: the engine must be safe for parallel use.
func TestConcurrentQueries(t *testing.T) {
	eng := figure1Engine(t)
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			res, err := eng.Query(`count(doc("sample.xml")//music/select-wide::shot)`)
			if err == nil && res.String() != "3" {
				err = fmt.Errorf("got %s", res.String())
			}
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if ModeAuto.String() != "auto" || ModeLoopLifted.String() != "looplifted" ||
		ModeBasic.String() != "basic" || ModeUDF.String() != "udf" {
		t.Fatal("mode names wrong")
	}
	if ModeAuto != 0 {
		t.Fatal("ModeAuto must be the zero value: Config{} means statistics-driven execution")
	}
}

// TestXMarkSubstrateQueries runs the additional XMark queries (3, 5, 8) on a
// generated document, validating the engine substrate beyond the four
// queries the paper rewrote: positional last(), aggregation over a filtered
// sequence, and a value join between people and closed auctions.
func TestXMarkSubstrateQueries(t *testing.T) {
	data, err := xmark.GenerateBytes(xmark.Config{Scale: 0.004, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	eng := New()
	if err := eng.LoadXML("x.xml", data); err != nil {
		t.Fatal(err)
	}

	// Q3: every result element has first <= last/2... i.e. 2*first <= last.
	res3, err := eng.Query(xmark.Query(3, "x.xml"))
	if err != nil {
		t.Fatalf("Q3: %v", err)
	}
	for _, v := range res3.Values() {
		if !strings.Contains(v.XML(), "first=") || !strings.Contains(v.XML(), "last=") {
			t.Fatalf("Q3 item malformed: %s", v.XML())
		}
	}

	// Q5 must agree with a hand-rolled count.
	res5, err := eng.Query(xmark.Query(5, "x.xml"))
	if err != nil {
		t.Fatalf("Q5: %v", err)
	}
	manual, err := eng.Query(`count(doc("x.xml")//closed_auction[price >= 40])`)
	if err != nil {
		t.Fatal(err)
	}
	if res5.String() != manual.String() {
		t.Fatalf("Q5 = %s, manual count = %s", res5.String(), manual.String())
	}

	// Q8: one result element per person; the total of the counts equals the
	// number of closed auctions whose buyer exists.
	res8, err := eng.Query(xmark.Query(8, "x.xml"))
	if err != nil {
		t.Fatalf("Q8: %v", err)
	}
	persons, err := eng.Query(`count(doc("x.xml")/site/people/person)`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res8.Len()) != persons.String() {
		t.Fatalf("Q8 results = %d, persons = %s", res8.Len(), persons.String())
	}
	sum, err := eng.Query(`sum(for $p in doc("x.xml")/site/people/person
		return count(doc("x.xml")/site/closed_auctions/closed_auction[buyer/@person = $p/@id]))`)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := eng.Query(`count(doc("x.xml")//closed_auction)`)
	if err != nil {
		t.Fatal(err)
	}
	if sum.String() != closed.String() {
		t.Fatalf("Q8 join total = %s, closed auctions = %s (every buyer must resolve)", sum.String(), closed.String())
	}
}

// TestReloadSweepsIndexes: loading over an already-loaded name drops the
// superseded document's cached indexes with it (each one would otherwise pin
// the old tree for the life of the engine), while a cursor opened before the
// reload still drains the snapshot it resolved.
func TestReloadSweepsIndexes(t *testing.T) {
	eng := mutateEngine(t)
	cached := func() int {
		eng.mu.RLock()
		defer eng.mu.RUnlock()
		return len(eng.indexes)
	}
	const q = `for $s in doc("m.xml")//scene return $s/select-narrow::hit/@id`
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	before, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := prep.Stream(Config{StreamChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() { // resolve the document: the run is now pinned
		t.Fatal("empty stream")
	}
	got := cur.Value().XML()

	reloaded := strings.Replace(mutateDoc, `id="h1"`, `id="reloaded"`, 1)
	for i := 0; i < 5; i++ {
		if err := eng.LoadXML("m.xml", []byte(reloaded)); err != nil {
			t.Fatal(err)
		}
		if n := cached(); n != 0 {
			t.Fatalf("reload %d: %d cached indexes survive the superseded document", i, n)
		}
		if err := eng.BuildIndex("m.xml"); err != nil {
			t.Fatal(err)
		}
		if n := cached(); n != 1 {
			t.Fatalf("reload %d: %d cached indexes, want 1", i, n)
		}
	}

	for cur.Next() {
		got += " " + cur.Value().XML()
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if want := before.String(); got != want {
		t.Fatalf("cursor opened before the reload drifted:\ngot  %q\nwant %q", got, want)
	}
	if n := cached(); n != 1 {
		t.Fatalf("draining the pinned cursor left %d cached indexes, want 1", n)
	}
	after, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s := after.String(); !strings.Contains(s, "reloaded") || strings.Contains(s, `"h1"`) {
		t.Fatalf("run after the reload = %q", s)
	}
}
