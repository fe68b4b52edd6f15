package xqeval

import (
	"fmt"
	"strings"
	"testing"

	"soxq/internal/core"
	"soxq/internal/xqplan"
)

// predDoc holds attribute values on every side of the comparison rules:
// strings, integers, decimals, a padded and a sign-prefixed number, an
// exponent, empty, unparsable, NBSP-padded (trimmed by an untypedAtomic's
// cast, not by the byte parser) and a missing attribute.
const predDoc = `<r start="0" end="100">
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
</r>`

// TestPredicateClassDifferential: every predicate the plan classifies as
// position or attribute comparison selects exactly what the generic
// evaluation of the same predicate selects.
func TestPredicateClassDifferential(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "p.xml", predDoc)
	var preds []string
	for _, k := range []string{"0", "-1", "1", "2", "3", "4", "99"} {
		preds = append(preds, "["+k+"]")
	}
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		for _, lit := range []string{`"7"`, `"abc"`, `""`, `"person3"`, "7", "5", "10", "7.5", "7.25", "-1"} {
			preds = append(preds,
				fmt.Sprintf("[@v %s %s]", op, lit), fmt.Sprintf("[%s %s @v]", lit, op),
				fmt.Sprintf("[@id %s %s]", op, lit), fmt.Sprintf("[@missing %s %s]", op, lit))
		}
	}
	steps := []string{
		`doc("p.xml")/r/p`, `doc("p.xml")//p/q`, `doc("p.xml")//q/parent::p`,
		`doc("p.xml")//q/ancestor::*`, `doc("p.xml")//q/preceding-sibling::q`, `doc("p.xml")//q/following-sibling::q`,
		`doc("p.xml")//q/preceding::q`, `doc("p.xml")/r/select-narrow::p`, `doc("p.xml")//p/select-narrow::q`,
		`doc("p.xml")//q/select-wide::*`, `doc("p.xml")//p/reject-narrow::q`, `doc("p.xml")//p/@v/..`,
		`for $p in doc("p.xml")//p return $p/q`, `for $p in doc("p.xml")//p return $p/select-narrow::q`,
	}
	classes := map[xqplan.PredClass]int{}
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
			for _, prog := range plan.Programs() {
				for _, sp := range prog {
					for _, pp := range sp.Preds {
						classes[pp.Class]++
						classified = classified || pp.Class != xqplan.PredGeneric
					}
				}
			}
			if !classified {
				t.Fatalf("%s: no predicate was classified", query)
			}
			ev := h.newEvaluator(plan, core.StrategyLoopLifted)
			got, gotErr := ev.Run()
			ev = h.newEvaluator(plan, core.StrategyLoopLifted)
			ev.genericPredicates = true
			want, wantErr := ev.Run()
			if gotErr != nil || wantErr != nil {
				t.Fatalf("%s: errors %v / %v", query, gotErr, wantErr)
			}
			if serialize(got) != serialize(want) {
				t.Errorf("%s:\nclassified %s\n  generic %s", query, serialize(got), serialize(want))
			}
		}
	}
	if classes[xqplan.PredPosition] == 0 || classes[xqplan.PredAttrCompare] == 0 || classes[xqplan.PredGeneric] != 0 {
		t.Errorf("classes seen: %v", classes)
	}
}

// TestPredicateClassShapes pins which shapes are classified.
func TestPredicateClassShapes(t *testing.T) {
	h := newHarness()
	for pred, want := range map[string]string{
		`[1]`: "pos", `[-1]`: "pos", `[1 + 1]`: "pos", `[1.0]`: "generic", `[last()]`: "generic",
		`[@a = "x"]`: "attr", `["x" != @a]`: "attr", `[@a < 5]`: "attr", `[2.5 >= @a]`: "attr",
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
}
