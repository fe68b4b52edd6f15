package xqeval

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xqplan"
)

// predDoc holds attribute values on every side of the comparison rules:
// strings, integers, decimals, a padded and a sign-prefixed number, an
// exponent, empty, unparsable, NBSP-padded (trimmed by an untypedAtomic's
// cast, not by the byte parser), NaN, INF, negative zero, a hex spelling, a
// value two areas share, invalid UTF-8 and a missing attribute.
const predDoc = `<r start="0" end="200">
  <p id="person0" v="7" start="1" end="9"><q start="2" end="3"/><q start="4" end="5"/><q start="6" end="7"/></p>
  <p id="person1" v="07" start="10" end="19"><q start="11" end="12"/></p>
  <p id="person2" v="7.5" start="20" end="29"/>
  <p id="person3" v=" 5 " start="30" end="39"/>
  <p id="person4" v="abc" start="40" end="49"/>
  <p id="person5" v="" start="50" end="59"/>
  <p id="person6" v="1e1" start="60" end="69"/>
  <p id="person7" v="+7" start="70" end="79"/>
  <p id="person8" v="&#160;7&#160;" start="80" end="89"/>
  <p id="person9" start="90" end="99"/>
  <p id="person10" v="NaN" start="100" end="109"/>
  <p id="person11" v="INF" start="110" end="119"/>
  <p id="person12" v="-0" start="120" end="129"/>
  <p id="person13" v="0x10" start="130" end="139"/>
  <p id="person14" v="7" start="140" end="149"/>
  <p id="person15" v="` + "\xff7" + `" start="150" end="159"/>
</r>`

// predDoc2 is a second document for contexts that span two: its own
// dictionary (q, v and id interned in another order) and values.
const predDoc2 = `<r start="0" end="100">
  <q v="5" start="1" end="2"/>
  <p v="5" id="person0" start="0" end="10"/>
  <p v="abc" id="x1" start="20" end="30"><q v="7" start="21" end="22"/></p>
  <p v="7" id="x2" start="40" end="50"/>
</r>`

// predRegionDoc has multi-region areas (region-element mode).
const predRegionDoc = `<r><region><start>0</start><end>200</end></region>
  <p id="m0" v="7"><region><start>1</start><end>5</end></region><region><start>20</start><end>30</end></region></p>
  <p id="m1" v="5"><region><start>10</start><end>15</end></region></p>
  <p id="m2" v="abc"><region><start>2</start><end>3</end></region><region><start>40</start><end>50</end></region></p>
  <p id="m3" v="7"><region><start>60</start><end>70</end></region></p>
  <q v="3"><region><start>2</start><end>3</end></region></q>
  <q v="9"><region><start>21</start><end>25</end></region><region><start>61</start><end>62</end></region></q>
  <s><region><start>0</start><end>16</end></region></s>
</r>`

// TestPredicateClassDifferential: every predicate the plan classifies as
// position or attribute comparison selects exactly what the generic
// evaluation of the same predicate selects, a [1] the join of a select step
// applies (StepPlan.FirstByJoin) included, and a StandOff step selects the
// same whether its leading attribute predicates narrow the candidates before
// the join (the default) or filter the join's output (NoPushdown).
func TestPredicateClassDifferential(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "p.xml", predDoc)
	h.addDoc(t, "p2.xml", predDoc2)
	h.addDoc(t, "m.xml", predRegionDoc)
	var preds []string
	for _, k := range []string{"0", "-1", "1", "2", "3", "4", "99"} {
		preds = append(preds, "["+k+"]")
	}
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		for _, lit := range []string{`"7"`, `"abc"`, `""`, `"person3"`, "7", "5", "10", "7.5", "7.25", "-1",
			`"NaN"`, `"-0"`, `"0x10"`, "0.0", "16"} {
			preds = append(preds,
				fmt.Sprintf("[@v %s %s]", op, lit), fmt.Sprintf("[%s %s @v]", lit, op),
				fmt.Sprintf("[@id %s %s]", op, lit), fmt.Sprintf("[@missing %s %s]", op, lit))
		}
	}
	preds = append(preds, `[@v < 5][1]`, `[1][@v < 5]`, `[@v >= 5][@id != "person0"]`, `[@v > 0][@start < 50][2]`,
		`[@id > "person1"][@v <= 7]`, `[@v = "7"][@v = 7]`, `[@missing = 1][@v < 5]`)
	steps := []string{
		`doc("p.xml")/r/p`, `doc("p.xml")//p/q`, `doc("p.xml")//q/parent::p`,
		`doc("p.xml")//q/ancestor::*`, `doc("p.xml")//q/preceding-sibling::q`, `doc("p.xml")//q/following-sibling::q`,
		`doc("p.xml")//q/preceding::q`, `doc("p.xml")/r/select-narrow::p`, `doc("p.xml")//p/select-narrow::q`,
		`doc("p.xml")//q/select-wide::*`, `doc("p.xml")//p/reject-narrow::q`, `doc("p.xml")//p/@v/..`,
		`doc("p.xml")//q/reject-wide::p`, `doc("p.xml")//q/select-wide::p`,
		`for $p in doc("p.xml")//p return $p/q`, `for $p in doc("p.xml")//p return $p/select-narrow::q`,
		`(doc("p.xml"), doc("p2.xml"))/r/select-narrow::p`, `(doc("p2.xml"), doc("p.xml"))//q/reject-wide::p`,
		`declare option standoff-region "region"; doc("m.xml")/r/select-narrow::p`,
		`declare option standoff-region "region"; doc("m.xml")//q/select-wide::p`,
		`declare option standoff-region "region"; doc("m.xml")//s/select-narrow::p`,
		`declare option standoff-region "region"; doc("m.xml")//q/reject-wide::p`,
		`declare option standoff-region "region"; for $q in doc("m.xml")//q return $q/reject-narrow::p`,
		`(doc("p2.xml"), doc("p.xml"))//q/select-wide::p`,
		`declare option standoff-region "region"; (doc("m.xml")//s, doc("m.xml")//q)/select-narrow::*`,
	}
	classes := map[string]int{}
	pushedSteps, joinFirstSteps := 0, 0
	for _, step := range steps {
		for i, pred := range preds {
			query := step + pred
			if i%3 == 0 { // a second predicate re-ranks what the first kept
				query += preds[(i*7+3)%len(preds)]
			}
			plan, err := h.compile(query)
			if err != nil {
				t.Fatalf("compile %s: %v", query, err)
			}
			classified := false
			for _, pe := range plan.Explain().Paths {
				for _, se := range pe.Steps {
					pushed := false
					for _, c := range se.PredClasses {
						class, applied, _ := strings.Cut(c, "→")
						classes[class]++
						classified = classified || class != xqplan.PredGeneric.String()
						switch applied {
						case "cand":
							pushed = true
						case "join":
							joinFirstSteps++
						}
					}
					if pushed {
						pushedSteps++
					}
				}
			}
			if !classified {
				t.Fatalf("%s: no predicate was classified", query)
			}
			run := func(generic, pushdown bool) string {
				ev := h.newEvaluator(plan, core.StrategyLoopLifted)
				ev.genericPredicates, ev.Pushdown = generic, pushdown
				items, err := ev.Run()
				if err != nil {
					t.Fatalf("%s (generic=%v pushdown=%v): %v", query, generic, pushdown, err)
				}
				return serialize(items)
			}
			want := run(true, true)
			if got := run(false, true); got != want {
				t.Errorf("%s:\nclassified %s\n   generic %s", query, got, want)
			}
			if got := run(false, false); got != want {
				t.Errorf("%s:\nno pushdown %s\n    generic %s", query, got, want)
			}
		}
	}
	if classes[xqplan.PredPosition.String()] == 0 || classes[xqplan.PredAttrCompare.String()] == 0 ||
		classes[xqplan.PredGeneric.String()] != 0 ||
		pushedSteps == 0 || joinFirstSteps == 0 {
		t.Errorf("classes seen: %v, steps with pushed predicates: %d, with [1] applied by the join: %d",
			classes, pushedSteps, joinFirstSteps)
	}
}

// TestAttrPushdownShapes pins which leading predicates a StandOff step
// pushes into candidate selection: attribute comparisons other than != up to
// the first other predicate, on a by-name step only.
func TestAttrPushdownShapes(t *testing.T) {
	h := newHarness()
	for step, want := range map[string]int{
		`select-narrow::p[@v < 5][1]`:              1,
		`select-narrow::p[1][@v < 5]`:              0,
		`reject-wide::p[@v = "a"][5 > @w][@x = 1]`: 3,
		`select-wide::p[@v != 5][@w = 1]`:          0,
		`select-wide::p[@w = 1][@v != 5][@x = 1]`:  1,
		`select-narrow::p[@v = $v]`:                0,
		`select-narrow::*[@v = 1]`:                 0,
		`select-narrow::text()[@v = 1]`:            0,
		`child::p[@v = 1]`:                         0,
	} {
		if _, sp := stepOf(t, h, step); sp.Pushed != want {
			t.Errorf("%s: %d predicates pushed, want %d", step, sp.Pushed, want)
		}
	}
}

// TestPredicateClassShapes pins which shapes are classified.
func TestPredicateClassShapes(t *testing.T) {
	h := newHarness()
	for pred, want := range map[string]string{
		`[1]`: "pos", `[-1]`: "pos", `[1 + 1]`: "generic", `[1.0]`: "generic", `[last()]`: "generic",
		`[@a = "x"]`: "attr", `["x" != @a]`: "attr", `[@a < 5]`: "attr", `[2.5 >= @a]`: "attr",
		`[@a < -1]`: "attr", `[-2.5 < @a]`: "attr", `[+2]`: "pos", `[-1.5]`: "generic",
		`[@a eq "x"]`: "generic", `[@a = $v]`: "generic", `[@a = @b]`: "generic", `[@* = "x"]`: "generic",
		`[a/@a = "x"]`: "generic", `[@a]`: "generic", `[@a = ("x", "y")]`: "generic",
	} {
		_, sp := stepOf(t, h, "child::x"+pred)
		if got := sp.Preds[0].Class.String(); got != want {
			t.Errorf("%s classified %s, want %s", pred, got, want)
		}
	}
	_, sp := stepOf(t, h, `child::x[7 < @a]`)
	if pp := sp.Preds[0]; pp.Op != ">" || !pp.Numeric || pp.Num != 7 || pp.Attr != "a" {
		t.Errorf("literal on the left: %+v", pp)
	}
}

// TestConstructedNodeSemantics pins what a constructed node is — its own
// tree, whatever arrays back it: root, parent, siblings, identity and order
// of separately constructed elements, nested constructors, the
// attribute-after-content error, and serialisation of one element kept
// after its siblings are gone.
func TestConstructedNodeSemantics(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "p.xml", predDoc)
	for _, c := range [][2]string{
		{`for $e in (<a/>, <b/>) return name(root($e)/*)`, `a b`},
		{`for $i in 1 to 3 let $e := <a n="{$i}"/> return count(root($e)/*)`, `1 1 1`},
		{`for $i in 1 to 3 let $e := <a n="{$i}"/> return (root($e) is $e/..)`, `true true true`},
		{`for $i in 1 to 3 let $e := <a/> return count($e/../..)`, `0 0 0`},
		{`for $i in 1 to 3 let $e := <a/> return ($e is $e)`, `true true true`},
		{`for $i in 1 to 2 return (<a/> is <a/>)`, `false false`},
		{`let $s := for $i in 1 to 3 return <a n="{$i}"/> return ($s[1] << $s[2], $s[3] << $s[2], $s[2] is $s[2])`, `true false true`},
		{`let $s := for $i in 1 to 3 return <a n="{$i}"/> return count($s/following-sibling::*) + count($s/preceding-sibling::*)`, `0`},
		{`let $s := for $i in 1 to 3 return <a n="{$i}"/> return count($s/following::*) + count($s/preceding::*)`, `0`},
		{`let $s := for $i in 1 to 3 return <a n="{$i}"/> return count($s | $s)`, `3`},
		{`for $i in 1 to 2 return <o i="{$i}">{ for $j in 1 to $i return <n j="{$j}">{ $j }</n> }</o>`,
			`<o i="1"><n j="1">1</n></o> <o i="2"><n j="1">1</n><n j="2">2</n></o>`},
		{`for $p in doc("p.xml")//p[q] return string(<c id="{$p/@id}">{ $p/q[last()]/@start, $p/q[1], "x" }</c>/@id)`, `person0 person1`},
		{`for $p in doc("p.xml")//p[q] return <c>{ $p/q[1]/@start, $p/q[1] }</c>`,
			`<c start="2"><q start="2" end="3"/></c> <c start="11"><q start="11" end="12"/></c>`},
		{`for $i in 1 to 3 return element { concat("e", $i) } { attribute n { $i }, text { $i, $i } }`,
			`<e1 n="1">1 1</e1> <e2 n="2">2 2</e2> <e3 n="3">3 3</e3>`},
		{`for $i in 1 to 2 return name((attribute { concat("a", $i) } { $i })/..)`, `attribute-carrier attribute-carrier`},
		{`count(for $i in 1 to 3 return text { () })`, `0`},
		{`(for $i in 1 to 4 return <keep n="{$i}"><in/>{ $i }</keep>)[3]`, `<keep n="3"><in/>3</keep>`},
		{`string(<r>{ doc("p.xml")//p[@id = "person0"] }</r>/p/q[2]/@start)`, `4`},
		{`string(<r>{ doc("p.xml") }</r>/r/p[3]/@id)`, `person2`},
	} {
		wantEval(t, h, c[0], c[1])
	}
	for _, q := range []string{
		`for $i in 1 to 2 return <a>{ "text", attribute late { $i } }</a>`,
		`for $i in 1 to 2 return <a><b/>{ doc("p.xml")//p[1]/@id }</a>`,
	} {
		if _, err := h.run(t, q, core.StrategyLoopLifted); err == nil || !strings.Contains(err.Error(), "XQTY0024") {
			t.Errorf("%s: error %v, want XQTY0024", q, err)
		}
	}
	if _, err := h.run(t, `for $i in 1 to 2 return <a>{ attribute n { 1 }, attribute n { 2 } }</a>`, core.StrategyLoopLifted); err == nil {
		t.Error("duplicate attribute in constructor content: no error")
	}
	checkFragmentBoundaries(t, h)
}

// fragmentKinds are the constructors whose fragments share one container,
// each with the reference fragment it builds for iteration i, made with
// tree.NewFragmentBuilder, and the path that reads the constructed node out
// of that fragment. Every element fragment carries the same region
// coordinates, so a stand-off step that strayed into a neighbour would match.
var fragmentKinds = []struct {
	name, construct, path string
	build                 func(fb *tree.Builder, i int)
}{
	{"element", `<a n="{$i}" start="1" end="10"><b start="2" end="3"/>t<c start="5" end="20"/></a>`, "/a",
		func(fb *tree.Builder, i int) {
			fb.StartElement("a")
			fb.Attr("n", strconv.Itoa(i))
			fb.Attr("start", "1")
			fb.Attr("end", "10")
			fb.StartElement("b")
			fb.Attr("start", "2")
			fb.Attr("end", "3")
			fb.EndElement()
			fb.Text("t")
			fb.StartElement("c")
			fb.Attr("start", "5")
			fb.Attr("end", "20")
			fb.EndElement()
			fb.EndElement()
		}},
	{"attribute", `attribute x { $i }`, "/attribute-carrier/@x",
		func(fb *tree.Builder, i int) {
			fb.StartElement("attribute-carrier")
			fb.Attr("x", strconv.Itoa(i))
			fb.EndElement()
		}},
	{"text", `text { $i }`, "/text-carrier/text()",
		func(fb *tree.Builder, i int) {
			fb.StartElement("text-carrier")
			fb.Text(strconv.Itoa(i))
			fb.EndElement()
		}},
}

// fragmentBodies read a sequence $s of constructed nodes across the
// boundaries between their fragments: root(), /, the parent, sibling,
// following and preceding axes, //, << and is, and the stand-off steps.
var fragmentBodies = []string{
	`count((for $e in $s return root($e)) | ())`,
	`count($s/..)`,
	`count($s/../..)`,
	`for $e in $s return count(root($e)//node())`,
	`count((for $e in $s return root($e))//node())`,
	`count($s[(//@n)[1] = @n])`,
	`count($s[string((//@*)[1]) = string(.)])`,
	`count($s[string((//text())[1]) = string(.)])`,
	`string-join(for $e in $s return string($e), ",")`,
	`count($s/following-sibling::node()) + count($s/preceding-sibling::node())`,
	`count($s/following::node())`,
	`count($s/preceding::node())`,
	`count($s/../following::node()) + count($s/../preceding::node())`,
	`count($s/../following-sibling::node()) + count($s/../preceding-sibling::node())`,
	`count($s/node()/following-sibling::node())`,
	`count($s/node()/preceding-sibling::*)`,
	`count($s/node()/following::*)`,
	`count($s/node()/preceding::node())`,
	`for $e in $s return count($e/*/following::node())`,
	`($s[1] << $s[last()], $s[last()] << $s[1], $s[1] is $s[last()])`,
	`($s[1]/*[last()] << $s[last()]/*[1], $s[last()]/*[1] << $s[1]/*[last()])`,
	`count(for $e in $s return $e[.. is root(.)])`,
	`count(for $e in $s return $e[root(.)/node() is .])`,
	`count($s/select-narrow::*)`,
	`count($s/select-wide::*)`,
	`count($s/reject-narrow::*)`,
	`count($s/reject-wide::*)`,
	`for $e in $s return count($e/select-narrow::b)`,
	`for $e in $s return count($e/reject-wide::*)`,
	`count($s/b/select-wide::*)`,
	`count($s/b/reject-narrow::*)`,
	`for $e in $s return $e/b/select-wide::c`,
	`for $e in $s return count($e/c/reject-wide::*)`,
}

// checkFragmentBoundaries evaluates every body over the nodes of 1, 2 and
// 1025 iterations of each constructor, one container holding their
// fragments, against the same body over reference fragments built one at a
// time, under both join strategies.
func checkFragmentBoundaries(t *testing.T, h *harness) {
	t.Helper()
	for _, k := range fragmentKinds {
		for i := 1; i <= 1025; i++ {
			fb := tree.NewFragmentBuilder()
			k.build(fb, i)
			d, err := fb.Done()
			if err != nil {
				t.Fatal(err)
			}
			h.docs[fmt.Sprintf("%s%d", k.name, i)] = d
		}
		for _, n := range []int{1, 2, 1025} {
			built := fmt.Sprintf(`let $s := for $i in 1 to %d return %s return `, n, k.construct)
			ref := fmt.Sprintf(`let $s := for $i in 1 to %d return doc(concat(%q, $i))%s return `, n, k.name, k.path)
			for _, body := range fragmentBodies {
				for _, strat := range []core.Strategy{core.StrategyLoopLifted, core.StrategyBasic} {
					got, gerr := h.run(t, built+body, strat)
					want, werr := h.run(t, ref+body, strat)
					if gerr != nil || werr != nil || serialize(got) != serialize(want) {
						t.Errorf("%s ×%d %v: %s\n got %.200s (%v)\nwant %.200s (%v)",
							k.name, n, strat, body, serialize(got), gerr, serialize(want), werr)
					}
				}
			}
		}
	}
}
