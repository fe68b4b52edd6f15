package xqeval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"soxq/internal/blob"
	"soxq/internal/core"
)

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

const timecodePreamble = `declare option standoff-type "so:timecode";
`

func figure1Harness(t *testing.T) *harness {
	h := newHarness()
	h.addDoc(t, "sample.xml", figure1Doc)
	return h
}

// TestSection31TableViaAxes runs the section 3.1 example table as XPath axis
// steps (the paper's Alternative 4) under every execution strategy.
func TestSection31TableViaAxes(t *testing.T) {
	queries := map[string]string{
		`//music[@artist = "U2"]/select-narrow::shot`: "Intro",
		`//music[@artist = "U2"]/select-wide::shot`:   "Intro Interview",
		`//music[@artist = "U2"]/reject-narrow::shot`: "Interview Outro",
		`//music[@artist = "U2"]/reject-wide::shot`:   "Outro",
	}
	for _, strat := range []core.Strategy{core.StrategyNaive, core.StrategyBasic, core.StrategyLoopLifted} {
		h := figure1Harness(t)
		for q, want := range queries {
			full := timecodePreamble +
				`for $s in doc("sample.xml")` + q + ` return string($s/@id)`
			items, err := h.run(t, full, strat)
			if err != nil {
				t.Fatalf("%v: %s: %v", strat, q, err)
			}
			if got := serialize(items); got != want {
				t.Errorf("%v: %s = %q, want %q", strat, q, got, want)
			}
		}
	}
}

// TestSection31TableViaBuiltins runs the same table through the built-in
// function form (Alternative 3), with and without candidate sequence.
func TestSection31TableViaBuiltins(t *testing.T) {
	h := figure1Harness(t)
	cases := [][2]string{
		{`so:select-narrow(doc("sample.xml")//music[@artist = "U2"])/self::shot`, "Intro"},
		{`so:select-narrow(doc("sample.xml")//music[@artist = "U2"], doc("sample.xml")//shot)`, "Intro"},
		{`so:select-wide(doc("sample.xml")//music[@artist = "U2"], doc("sample.xml")//shot)`, "Intro Interview"},
		{`so:reject-narrow(doc("sample.xml")//music[@artist = "U2"], doc("sample.xml")//shot)`, "Interview Outro"},
		{`so:reject-wide(doc("sample.xml")//music[@artist = "U2"], doc("sample.xml")//shot)`, "Outro"},
	}
	for _, c := range cases {
		full := timecodePreamble + `for $s in ` + c[0] + ` return string($s/@id)`
		items, err := h.run(t, full, core.StrategyLoopLifted)
		if err != nil {
			t.Fatalf("%s: %v", c[0], err)
		}
		if got := serialize(items); got != c[1] {
			t.Errorf("%s = %q, want %q", c[0], got, c[1])
		}
	}
}

// figure3UDF is the XQuery function with candidate sequence of the paper's
// Figure 3 (Alternative 2), adjusted only in that root() comparison uses
// "is" (node identity).
const figure3UDF = `
declare function local:select-narrow($input, $candidates) {
  (for $q in $input
   for $p in $candidates
   where $p/@start >= $q/@start
     and $p/@end <= $q/@end
     and root($p) is root($q)
   return $p)/.
};
`

// TestFigure3UDFMatchesAxis: the literal UDF from the paper must agree with
// the built-in axis step. Positions are plain integers here because the UDF
// compares @start/@end as numbers.
func TestFigure3UDFMatchesAxis(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "d.xml", `<doc>
	  <a n="1" start="0" end="100"/>
	  <b n="2" start="10" end="20"/>
	  <b n="3" start="15" end="40"/>
	  <b n="4" start="150" end="160"/>
	  <a n="5" start="120" end="200"/>
	</doc>`)
	udf := figure3UDF + `
	  for $r in local:select-narrow(doc("d.xml")//a, doc("d.xml")//b)
	  return string($r/@n)`
	axis := `for $r in doc("d.xml")//a/select-narrow::b return string($r/@n)`

	udfItems, err := h.run(t, udf, core.StrategyLoopLifted)
	if err != nil {
		t.Fatalf("UDF: %v", err)
	}
	axisItems, err := h.run(t, axis, core.StrategyLoopLifted)
	if err != nil {
		t.Fatalf("axis: %v", err)
	}
	if serialize(udfItems) != serialize(axisItems) {
		t.Fatalf("UDF %q != axis %q", serialize(udfItems), serialize(axisItems))
	}
	if serialize(axisItems) != "2 3 4" {
		t.Fatalf("axis result = %q, want 2 3 4", serialize(axisItems))
	}
}

// TestStandOffAxisInsideLoop exercises the loop-lifted path: one join pass
// computes results for many iterations, and per-iteration results differ.
func TestStandOffAxisInsideLoop(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "d.xml", `<doc>
	  <range n="lo" start="0" end="49"/>
	  <range n="hi" start="50" end="100"/>
	  <p v="a" start="10" end="19"/>
	  <p v="b" start="45" end="55"/>
	  <p v="c" start="60" end="70"/>
	</doc>`)
	q := `for $r in doc("d.xml")//range
	      return <hits of="{$r/@n}">{
	        for $p in $r/select-narrow::p return string($p/@v)
	      }</hits>`
	for _, strat := range []core.Strategy{core.StrategyNaive, core.StrategyBasic, core.StrategyLoopLifted} {
		items, err := h.run(t, q, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		got := serialize(items)
		want := `<hits of="lo">a</hits> <hits of="hi">c</hits>`
		if got != want {
			t.Errorf("%v:\n got  %s\nwant %s", strat, got, want)
		}
	}
	// select-wide picks up the straddling annotation for both ranges.
	q2 := `for $r in doc("d.xml")//range
	       return count($r/select-wide::p)`
	items, err := h.run(t, q2, core.StrategyLoopLifted)
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(items); got != "2 2" {
		t.Fatalf("select-wide counts = %q, want 2 2", got)
	}
}

// TestStandOffOptionsPreamble: custom attribute names via declare option.
func TestStandOffOptionsPreamble(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "d.xml", `<doc><w from="0" to="100"/><x from="10" to="20"/></doc>`)
	q := `declare option standoff-start "from";
	      declare option standoff-end "to";
	      for $r in doc("d.xml")//w/select-narrow::x return name($r)`
	items, err := h.run(t, q, core.StrategyLoopLifted)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(items) != "x" {
		t.Fatalf("custom names = %q", serialize(items))
	}
	// Prefixed option names are matched on the local name.
	q2 := `declare namespace so = "http://w3c.org/tr/standoff/";
	       declare option so:standoff-start "from";
	       declare option so:standoff-end "to";
	       count(doc("d.xml")//w/select-wide::x)`
	items, err = h.run(t, q2, core.StrategyLoopLifted)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(items) != "1" {
		t.Fatalf("prefixed options = %q", serialize(items))
	}
}

// TestRegionElementsAndBlobText: the element representation of regions
// (non-contiguous areas) plus the so:blob-text extension.
func TestRegionElementsAndBlobText(t *testing.T) {
	h := newHarness()
	d := h.addDoc(t, "fs.xml", `<image>
	  <file name="secret.txt">
	    <region><start>0</start><end>4</end></region>
	    <region><start>10</start><end>14</end></region>
	  </file>
	  <hit term="hello">
	    <region><start>10</start><end>14</end></region>
	  </hit>
	</image>`)
	h.blobs[d] = blob.FromString("HELLO.....world.....")
	pre := `declare option standoff-region "region";
`
	q := pre + `for $f in doc("fs.xml")//file
	            where count($f/select-narrow::hit) > 0
	            return so:blob-text($f)`
	items, err := h.run(t, q, core.StrategyLoopLifted)
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(items); got != "HELLOworld" {
		t.Fatalf("blob-text = %q, want HELLOworld (fragmented file reassembly)", got)
	}
	// so:regions and so:start/so:end.
	q2 := pre + `for $r in so:regions(doc("fs.xml")//file) return string($r/@start)`
	items, err = h.run(t, q2, core.StrategyLoopLifted)
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(items); got != "0 10" {
		t.Fatalf("so:regions starts = %q", got)
	}
	q3 := pre + `(so:start(doc("fs.xml")//file), so:end(doc("fs.xml")//file))`
	items, err = h.run(t, q3, core.StrategyLoopLifted)
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(items); got != "0 14" {
		t.Fatalf("so:start/end = %q", got)
	}
}

// TestStrategiesAgreeOnRandomQueries is the end-to-end equivalence property:
// random stand-off documents, queried through full XQuery with all three
// strategies, must agree.
func TestStrategiesAgreeOnRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	queryTemplates := []string{
		`for $c in doc("r.xml")//%s return count($c/select-narrow::%s)`,
		`for $c in doc("r.xml")//%s return count($c/select-wide::%s)`,
		`for $c in doc("r.xml")//%s return count($c/reject-narrow::%s)`,
		`for $c in doc("r.xml")//%s return count($c/reject-wide::%s)`,
		`count(doc("r.xml")//%s/select-narrow::%s)`,
		`count(so:select-wide(doc("r.xml")//%s, doc("r.xml")//%s))`,
	}
	names := []string{"a", "b", "c"}
	for round := 0; round < 12; round++ {
		var sb strings.Builder
		sb.WriteString("<doc>")
		for i := 0; i < 3+rng.Intn(25); i++ {
			s := rng.Intn(150)
			e := s + rng.Intn(60)
			fmt.Fprintf(&sb, `<%s start="%d" end="%d"/>`, names[rng.Intn(len(names))], s, e)
		}
		sb.WriteString("</doc>")
		h := newHarness()
		h.addDoc(t, "r.xml", sb.String())
		for _, tmpl := range queryTemplates {
			q := fmt.Sprintf(tmpl, names[rng.Intn(len(names))], names[rng.Intn(len(names))])
			ref, err := h.run(t, q, core.StrategyNaive)
			if err != nil {
				t.Fatalf("naive %s: %v", q, err)
			}
			for _, strat := range []core.Strategy{core.StrategyBasic, core.StrategyLoopLifted} {
				got, err := h.run(t, q, strat)
				if err != nil {
					t.Fatalf("%v %s: %v", strat, q, err)
				}
				if serialize(got) != serialize(ref) {
					t.Fatalf("round %d: %v(%s) = %q, naive = %q\ndoc: %s",
						round, strat, q, serialize(got), serialize(ref), sb.String())
				}
			}
		}
	}
}

// TestPushdownEquivalence: with and without candidate pushdown the results
// must match (section 3.3's optimizer argument is about speed, not
// semantics).
func TestPushdownEquivalence(t *testing.T) {
	h := figure1Harness(t)
	q := timecodePreamble + `for $s in doc("sample.xml")//music/select-wide::shot return string($s/@id)`
	withPD, err := h.run(t, q, core.StrategyLoopLifted)
	if err != nil {
		t.Fatal(err)
	}
	// Re-run with pushdown disabled.
	plan, err := h.compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ev := h.newEvaluator(plan, core.StrategyLoopLifted)
	ev.Pushdown = false
	noPD, err := ev.Run()
	if err != nil {
		t.Fatal(err)
	}
	if serialize(withPD) != serialize(noPD) {
		t.Fatalf("pushdown %q != post-filter %q", serialize(withPD), serialize(noPD))
	}
}

// TestRejectIsSequenceAntiJoin pins the section 3.1 semantics: reject steps
// are anti-joins over the WHOLE context sequence, not a union of per-node
// complements.
func TestRejectIsSequenceAntiJoin(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "d.xml", `<doc>
	  <a n="a1" start="0" end="10"/>
	  <a n="a2" start="20" end="30"/>
	  <b n="b1" start="5" end="8"/>
	  <b n="b2" start="25" end="28"/>
	  <b n="b3" start="50" end="60"/>
	</doc>`)
	for _, strat := range []core.Strategy{core.StrategyNaive, core.StrategyBasic, core.StrategyLoopLifted} {
		// Both a's in ONE context sequence: only b3 escapes containment.
		items, err := h.run(t, `for $r in doc("d.xml")//a/reject-narrow::b return string($r/@n)`, strat)
		if err != nil {
			t.Fatal(err)
		}
		if got := serialize(items); got != "b3" {
			t.Errorf("%v: reject-narrow over sequence = %q, want b3 (anti-join, not per-node union)", strat, got)
		}
		// Per-iteration contexts: each a rejects separately.
		items, err = h.run(t, `for $a in doc("d.xml")//a return count($a/reject-narrow::b)`, strat)
		if err != nil {
			t.Fatal(err)
		}
		if got := serialize(items); got != "2 2" {
			t.Errorf("%v: per-iteration reject counts = %q, want 2 2", strat, got)
		}
		// Built-in function form agrees with the axis form.
		items, err = h.run(t, `for $r in so:reject-wide(doc("d.xml")//a, doc("d.xml")//b) return string($r/@n)`, strat)
		if err != nil {
			t.Fatal(err)
		}
		if got := serialize(items); got != "b3" {
			t.Errorf("%v: so:reject-wide = %q, want b3", strat, got)
		}
	}
}

// TestRejectEmptyContextIteration: an iteration whose context sequence is
// empty yields an empty step result (XPath semantics), even though the bare
// operator over an empty S1 would return all of S2.
func TestRejectEmptyContextIteration(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "d.xml", `<doc><a n="a1" start="0" end="10"/><b start="50" end="60"/></doc>`)
	items, err := h.run(t, `for $x in (1, 2) return count(doc("d.xml")//a[@n = "zzz"]/reject-narrow::b)`, core.StrategyLoopLifted)
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(items); got != "0 0" {
		t.Fatalf("empty-context reject = %q, want 0 0", got)
	}
}

// TestRejectRanksAcrossDocumentsInDocOrder: a reject row holds the candidates
// of every document its iteration touches, and its positional predicates
// rank them in document order — a.xml's before b.xml's, as a.xml was loaded
// first — whatever order the context lists the documents in.
func TestRejectRanksAcrossDocumentsInDocOrder(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "a.xml", `<d><s start="0" end="9"/><w n="a1" start="20" end="29"/><w n="a2" start="30" end="39"/></d>`)
	h.addDoc(t, "b.xml", `<d><s start="0" end="9"/><w n="b1" start="20" end="29"/></d>`)
	for q, want := range map[string]string{
		`(doc("b.xml")//s, doc("a.xml")//s)/reject-narrow::w[1]/@n`:    `n="a1"`,
		`(doc("b.xml")//s, doc("a.xml")//s)/reject-wide::w[last()]/@n`: `n="b1"`,
		`(doc("b.xml")//s, doc("a.xml")//s)/reject-narrow::w/@n`:       `n="a1" n="a2" n="b1"`,
		`(doc("b.xml")//s, doc("a.xml")//s)/reject-wide::w[2]/@n`:      `n="a2"`,
	} {
		for _, strat := range []core.Strategy{core.StrategyNaive, core.StrategyBasic, core.StrategyLoopLifted} {
			items, err := h.run(t, q, strat)
			if err != nil {
				t.Fatalf("%v: %s: %v", strat, q, err)
			}
			if got := serialize(items); got != want {
				t.Errorf("%v: %s = %q, want %q", strat, q, got, want)
			}
		}
	}
}
