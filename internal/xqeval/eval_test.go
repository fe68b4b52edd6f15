package xqeval

import (
	"fmt"
	"strings"
	"testing"

	"soxq/internal/blob"
	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xmlparse"
	"soxq/internal/xqparse"
	"soxq/internal/xqplan"
)

// harness wires an Evaluator over an in-memory document map, the way the
// public engine does.
type harness struct {
	docs    map[string]*tree.Doc
	indexes map[*tree.Doc]*core.RegionIndex
	blobs   map[*tree.Doc]blob.Store
	opts    core.Options
}

func newHarness() *harness {
	return &harness{
		docs:    map[string]*tree.Doc{},
		indexes: map[*tree.Doc]*core.RegionIndex{},
		blobs:   map[*tree.Doc]blob.Store{},
		opts:    core.DefaultOptions(),
	}
}

func (h *harness) addDoc(t *testing.T, name, src string) *tree.Doc {
	t.Helper()
	d, err := xmlparse.Parse(name, []byte(src))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	h.docs[name] = d
	return d
}

func (h *harness) run(t *testing.T, query string, strat core.Strategy) ([]Item, error) {
	t.Helper()
	plan, err := h.compile(query)
	if err != nil {
		return nil, err
	}
	return h.newEvaluator(plan, strat).Run()
}

// compile parses and compiles a query against the harness options, the way
// the public engine's Prepare does.
func (h *harness) compile(query string) (*xqplan.Plan, error) {
	m, err := xqparse.Parse(query)
	if err != nil {
		return nil, err
	}
	return xqplan.Compile(m, h.opts)
}

// newEvaluator builds a per-run Evaluator over the harness state.
func (h *harness) newEvaluator(plan *xqplan.Plan, strat core.Strategy) *Evaluator {
	opts := plan.Options()
	return &Evaluator{
		Plan: plan,
		Resolver: func(uri string) (*tree.Doc, error) {
			d, ok := h.docs[uri]
			if !ok {
				return nil, fmt.Errorf("no document %q", uri)
			}
			return d, nil
		},
		IndexFor: func(d *tree.Doc) (*core.RegionIndex, error) {
			if ix, ok := h.indexes[d]; ok {
				return ix, nil
			}
			ix, err := core.BuildIndex(d, opts)
			if err != nil {
				return nil, err
			}
			h.indexes[d] = ix
			return ix, nil
		},
		BlobFor:  func(d *tree.Doc) blob.Store { return h.blobs[d] },
		Strategy: strat,
		Pushdown: true,
	}
}

// serialize renders a result sequence the way a query tool would.
func serialize(items []Item) string {
	var sb strings.Builder
	for i, it := range items {
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch it.Kind {
		case KNode:
			sb.WriteString(it.D.XMLString(it.Pre))
		case KAttr:
			fmt.Fprintf(&sb, `%s="%s"`, it.D.AttrName(it.Att), it.D.AttrValue(it.Att))
		default:
			sb.WriteString(it.StringValue())
		}
	}
	return sb.String()
}

func evalStr(t *testing.T, h *harness, query string) string {
	t.Helper()
	items, err := h.run(t, query, core.StrategyLoopLifted)
	if err != nil {
		t.Fatalf("eval %q: %v", query, err)
	}
	return serialize(items)
}

func wantEval(t *testing.T, h *harness, query, want string) {
	t.Helper()
	if got := evalStr(t, h, query); got != want {
		t.Errorf("eval %q:\n got  %s\nwant %s", query, got, want)
	}
}

func TestEvalBasics(t *testing.T) {
	h := newHarness()
	cases := [][2]string{
		{`1 + 2`, `3`},
		{`2 * 3 + 4`, `10`},
		{`7 div 2`, `3.5`},
		{`7 idiv 2`, `3`},
		{`7 mod 3`, `1`},
		{`-(3)`, `-3`},
		{`- 3 + 10`, `7`},
		{`1.5 + 1.5`, `3`},
		{`"a" = "a"`, `true`},
		{`"a" = "b"`, `false`},
		{`1 < 2`, `true`},
		{`2 le 2`, `true`},
		{`"b" gt "a"`, `true`},
		{`(1, 2, 3)`, `1 2 3`},
		{`()`, ``},
		{`(1, 2) = (2, 3)`, `true`},
		{`(1, 2) = (3, 4)`, `false`},
		{`1 to 4`, `1 2 3 4`},
		{`4 to 1`, ``},
		{`true() and false()`, `false`},
		{`true() or false()`, `true`},
		{`not(0)`, `true`},
		{`boolean("x")`, `true`},
		{`if (1 < 2) then "yes" else "no"`, `yes`},
		{`if (()) then "yes" else "no"`, `no`},
		{`concat("a", "b", 3)`, `ab3`},
		{`string(42)`, `42`},
		{`string(1.5)`, `1.5`},
		{`number("12")+1`, `13`},
		{`count((1, 2, 3))`, `3`},
		{`count(())`, `0`},
		{`empty(())`, `true`},
		{`exists((1))`, `true`},
		{`sum((1, 2, 3))`, `6`},
		{`sum(())`, `0`},
		{`avg((2, 4))`, `3`},
		{`min((3, 1, 2))`, `1`},
		{`max((3.5, 1, 2))`, `3.5`},
		{`abs(-4)`, `4`},
		{`floor(1.7)`, `1`},
		{`ceiling(1.2)`, `2`},
		{`round(2.5)`, `3`},
		{`contains("hello", "ell")`, `true`},
		{`starts-with("hello", "he")`, `true`},
		{`ends-with("hello", "lo")`, `true`},
		{`substring("hello", 2)`, `ello`},
		{`substring("hello", 2, 3)`, `ell`},
		// A length past the int range clamps instead of wrapping.
		{`substring("abcdef", 2, 1E300)`, `bcdef`},
		{`substring("abcdef", 2, 9223372036854775807)`, `bcdef`},
		{`substring("12345", number("-INF"), number("INF"))`, ``},
		{`substring("abcdef", number("x"))`, ``},
		{`substring("12345", -42, number("INF"))`, `12345`},
		{`substring("12345", 1.5, 2.6)`, `234`},
		{`substring("12345", 0, 3)`, `12`},
		{`substring("12345", 5, -3)`, ``},
		{`substring("12345", number("x"), 3)`, ``},
		{`string-length("héllo")`, `5`},
		{`normalize-space("  a   b ")`, `a b`},
		{`upper-case("abç")`, `ABÇ`},
		{`lower-case("ABÇ")`, `abç`},
		{`translate("abcabc", "abc", "AB")`, `ABAB`},
		{`string-join(("a", "b", "c"), "-")`, `a-b-c`},
		{`distinct-values((1, 2, 1, "x", "x"))`, `1 2 x`},
		{`reverse((1, 2, 3))`, `3 2 1`},
		{`subsequence((1, 2, 3, 4), 2, 2)`, `2 3`},
		{`insert-before((1, 3), 2, 2)`, `1 2 3`},
		{`remove((1, 2, 3), 2)`, `1 3`},
		{`zero-or-one(())`, ``},
		{`exactly-one(5)`, `5`},
		{`some $x in (1, 2, 3) satisfies $x > 2`, `true`},
		{`every $x in (1, 2, 3) satisfies $x > 0`, `true`},
		{`every $x in (1, 2, 3) satisfies $x > 1`, `false`},
		{`some $x in () satisfies $x`, `false`},
		{`every $x in () satisfies $x`, `true`},
		{`1 div 2`, `0.5`},
		{`-(4 - 6)`, `2`},
		{`string(2.0)`, `2`},
		{`string(-7)`, `-7`},
		{`"a" < "b"`, `true`},
		{`1 = 1.0`, `true`},
		{`false() and doc("missing.xml")`, `false`},
		{`true() or doc("missing.xml")`, `true`},
		{`if (false()) then doc("missing.xml") else 1`, `1`},
		{`declare function concat($a, $b) { 0 }; concat("a", "b")`, `0`},
		{`for $x in (1, 2, 3) return ($x > 1 and $x < 3)`, `false true false`},
		{`for $x in (1, 2, 3) return ($x > 1 or $x < 2)`, `true true true`},
	}
	for _, c := range cases {
		wantEval(t, h, c[0], c[1])
	}
}

// TestLogicalSkipsDecidedIterations pins that and/or evaluate their right
// operand only where the left one leaves the result open: 1 idiv 0 would
// raise an error in the iteration the left operand already decides.
func TestLogicalSkipsDecidedIterations(t *testing.T) {
	h := newHarness()
	wantEval(t, h, `for $x in (0, 1, 2) return ($x = 0 or 2 idiv $x = 2)`, `true true false`)
	wantEval(t, h, `for $x in (0, 1, 2) return ($x != 0 and 2 idiv $x = 1)`, `false false true`)
	wantEval(t, h, `(0, 1, 2)[. = 0 or 2 idiv . = 1]`, `0 2`)
}

func TestEvalFLWOR(t *testing.T) {
	h := newHarness()
	cases := [][2]string{
		{`for $x in (1, 2, 3) return $x * 2`, `2 4 6`},
		{`for $x in (1, 2), $y in (10, 20) return $x + $y`, `11 21 12 22`},
		{`for $x at $i in ("a", "b", "c") return $i`, `1 2 3`},
		{`let $x := (1, 2) return count($x)`, `2`},
		{`for $x in (1, 2, 3, 4) where $x mod 2 = 0 return $x`, `2 4`},
		{`for $x in (3, 1, 2) order by $x return $x`, `1 2 3`},
		{`for $x in (3, 1, 2) order by $x descending return $x`, `3 2 1`},
		{`for $x in ("b", "a") order by $x return $x`, `a b`},
		{`for $x in (1, 2) return for $y in (1, 2) return $x * 10 + $y`, `11 12 21 22`},
		{`let $x := 5 let $y := $x + 1 return $y`, `6`},
		{`for $p in (1, 2, 3) let $sq := $p * $p where $sq > 2 order by $sq descending return $sq`, `9 4`},
		{`for $x in () return $x`, ``},
		// Loop-lifted nesting from section 4.1 of the paper.
		{`for $x in ("twenty", "thirty") for $y in ("one", "two") let $z := ($x, $y) return concat($z[1], "-", $z[2])`,
			`twenty-one twenty-two thirty-one thirty-two`},
	}
	for _, c := range cases {
		wantEval(t, h, c[0], c[1])
	}
}

func TestEvalPaths(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "s.xml", `<site><people><person id="p0"><name>Ann</name></person><person id="p1"><name>Bob</name></person></people><regions><item/><item/><sub><item/></sub></regions></site>`)
	cases := [][2]string{
		{`doc("s.xml")/site/people/person[@id = "p0"]/name`, `<name>Ann</name>`},
		{`doc("s.xml")/site/people/person/name/text()`, `Ann Bob`},
		{`count(doc("s.xml")//item)`, `3`},
		{`count(doc("s.xml")/site//item)`, `3`},
		{`doc("s.xml")//person[1]/@id`, `id="p0"`},
		{`doc("s.xml")//person[2]/@id`, `id="p1"`},
		{`doc("s.xml")//person[last()]/@id`, `id="p1"`},
		{`doc("s.xml")//person[position() = 2]/@id`, `id="p1"`},
		{`count(doc("s.xml")/site/*)`, `2`},
		{`doc("s.xml")//name/../@id`, `id="p0" id="p1"`},
		{`doc("s.xml")//name[. = "Bob"]/parent::person/@id`, `id="p1"`},
		{`name(doc("s.xml")/site/regions/sub/item/ancestor::*[1])`, `sub`},
		{`string(doc("s.xml")/site/people/person[2])`, `Bob`},
		{`count(doc("s.xml")/site/people/person[name])`, `2`},
		{`count(doc("s.xml")/site/people/person[name = "Zed"])`, `0`},
		{`doc("s.xml")//person/@id`, `id="p0" id="p1"`},
		{`count(doc("s.xml")//@id)`, `2`},
		// Document order + dedup across context nodes.
		{`count((doc("s.xml")//item, doc("s.xml")//item))`, `6`},
		{`count((doc("s.xml")//item | doc("s.xml")//item))`, `3`},
		{`count((doc("s.xml")//* ) intersect (doc("s.xml")//item))`, `3`},
		{`count((doc("s.xml")//*) except (doc("s.xml")//item))`, `8`},
		{`doc("s.xml")//person[name = "Ann"] is doc("s.xml")//person[1]`, `true`},
		{`doc("s.xml")//person[1] << doc("s.xml")//person[2]`, `true`},
		{`(doc("s.xml")//name)[2]`, `<name>Bob</name>`},
		{`doc("s.xml")/site/people/person/self::person[1]/@id`, `id="p0" id="p1"`},
		{`count(doc("s.xml")/site/descendant-or-self::node())`, `13`},
	}
	for _, c := range cases {
		wantEval(t, h, c[0], c[1])
	}
}

func TestEvalConstructors(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "s.xml", `<a><b>1</b><b>2</b></a>`)
	cases := [][2]string{
		{`<out/>`, `<out/>`},
		{`<out a="1" b="x{1+1}y"/>`, `<out a="1" b="x2y"/>`},
		{`<out>{1 + 1}</out>`, `<out>2</out>`},
		{`<out>{(1, 2, 3)}</out>`, `<out>1 2 3</out>`},
		{`<out>lit{"eral"}</out>`, `<out>literal</out>`},
		{`<out>{doc("s.xml")/a/b}</out>`, `<out><b>1</b><b>2</b></out>`},
		{`<o><i>{1}</i><i>x</i></o>`, `<o><i>1</i><i>x</i></o>`},
		{`element foo { "bar" }`, `<foo>bar</foo>`},
		{`element { concat("a", "b") } { 1 }`, `<ab>1</ab>`},
		{`<out>{attribute id { "x" }}</out>`, `<out id="x"/>`},
		{`<out>{text { "plain" }}</out>`, `<out>plain</out>`},
		{`for $b in doc("s.xml")/a/b return <v n="{$b}"/>`, `<v n="1"/> <v n="2"/>`},
		{`string(<x>{"a"}{"b"}</x>)`, `a b`},
		{`count(<x/>/self::x)`, `1`},
	}
	for _, c := range cases {
		wantEval(t, h, c[0], c[1])
	}
	// Constructed nodes are copies: modifying result does not affect source.
	items, err := h.run(t, `<out>{doc("s.xml")/a/b[1]}</out>`, core.StrategyLoopLifted)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].D == h.docs["s.xml"] {
		t.Fatal("constructor must copy nodes into a fresh fragment")
	}
	// Attribute-after-content is an error.
	if _, err := h.run(t, `<out>x{attribute a {"1"}}</out>`, core.StrategyLoopLifted); err == nil {
		t.Fatal("attribute after content must fail")
	}
}

func TestEvalUDFs(t *testing.T) {
	h := newHarness()
	wantEval(t, h, `declare function local:twice($x) { $x * 2 }; local:twice(21)`, `42`)
	wantEval(t, h, `declare function local:fact($n) { if ($n <= 1) then 1 else $n * local:fact($n - 1) }; local:fact(10)`, `3628800`)
	wantEval(t, h, `declare function local:fib($n) { if ($n < 2) then $n else local:fib($n - 1) + local:fib($n - 2) }; local:fib(12)`, `144`)
	// Loop-lifted UDF: called once for a whole iteration space.
	wantEval(t, h, `declare function local:sq($x) { $x * $x }; for $i in (1, 2, 3, 4) return local:sq($i)`, `1 4 9 16`)
	// Declared variables.
	wantEval(t, h, `declare variable $base := 10; for $i in (1, 2) return $base + $i`, `11 12`)
	// Unbounded recursion is caught.
	if _, err := h.run(t, `declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)`, core.StrategyLoopLifted); err == nil {
		t.Fatal("infinite recursion must be caught")
	}
}

func TestEvalErrors(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "s.xml", `<a/>`)
	bad := []string{
		`$nosuch`,
		`nosuchfunc()`,
		`count()`,
		`1 div 0`,
		`1 idiv 0`,
		`1 mod 0`,
		`"a" + 1`,
		`doc("missing.xml")`,
		`(1, 2) + 1`,
		`position()`,
		`child::a`, // no context item
		`error("boom")`,
		`exactly-one(())`,
		`one-or-more(())`,
		`zero-or-one((1, 2))`,
		`doc("s.xml")/a is 3`,
	}
	for _, q := range bad {
		if _, err := h.run(t, q, core.StrategyLoopLifted); err == nil {
			t.Errorf("eval %q should fail", q)
		}
	}
}

// TestEvalIntegerOverflow pins FOAR0002 wherever xs:integer arithmetic would
// leave the int64 range, and an idiv whose quotient has no integer value,
// next to the results at the edge of the range that must not raise it
// (min and max among them, exact past float64's 2^53).
func TestEvalIntegerOverflow(t *testing.T) {
	h := newHarness()
	for _, q := range []string{
		`9223372036854775807 + 1`,
		`-9223372036854775807 - 2`,
		`9223372036854775807 * 2`,
		`(-9223372036854775807 - 1) * -1`,
		`-1 * (-9223372036854775807 - 1)`,
		`(-9223372036854775807 - 1) idiv -1`,
		`-(-9223372036854775807 - 1)`,
		`abs(-9223372036854775807 - 1)`,
		`sum((9223372036854775807, 1))`,
		`sum((-9223372036854775807, -2))`,
		`number("x") idiv 2`,
		`2 idiv number("x")`,
		`1E300 idiv 1E-300`,
		`-1E300 idiv 1E-300`,
	} {
		_, err := h.run(t, q, core.StrategyLoopLifted)
		if e, ok := err.(*Error); !ok || e.Code != codeOverflow {
			t.Errorf("eval %q: error %v, want %s", q, err, codeOverflow)
		}
	}
	cases := [][2]string{
		{`-9223372036854775807 - 1`, `-9223372036854775808`},
		{`9223372036854775806 + 1`, `9223372036854775807`},
		{`4611686018427387904 * -2`, `-9223372036854775808`},
		{`(-9223372036854775807 - 1) idiv 1`, `-9223372036854775808`},
		{`(-9223372036854775807 - 1) mod -1`, `0`},
		{`sum((9223372036854775807, -1, 1))`, `9223372036854775807`},
		{`sum((9223372036854775807, 1, 0.5))`, `9.223372036854776E+18`},
		{`max((9223372036854775807, 1))`, `9223372036854775807`},
		{`min((9223372036854775807, 9223372036854775806))`, `9223372036854775806`},
		{`max((9007199254740993, 1))`, `9007199254740993`},
		{`1E0 idiv 0.5`, `2`},
		{`-7.5 idiv 2`, `-3`},
	}
	for _, c := range cases {
		wantEval(t, h, c[0], c[1])
	}
}

func TestEvalFilterExprs(t *testing.T) {
	h := newHarness()
	cases := [][2]string{
		{`(1, 2, 3)[2]`, `2`},
		{`(1, 2, 3)[. > 1]`, `2 3`},
		{`(1, 2, 3)[position() < 3]`, `1 2`},
		{`("a", "b")[.= "b"]`, `b`},
		{`(1 to 10)[. mod 3 = 0]`, `3 6 9`},
		{`for $x in (1, 2, 3)[. != 2] return $x`, `1 3`},
	}
	for _, c := range cases {
		wantEval(t, h, c[0], c[1])
	}
}
