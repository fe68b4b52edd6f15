package xqparse

import (
	"fmt"
	"strings"
	"testing"

	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// dump renders an AST compactly for assertions.
func dump(e xqast.Expr) string {
	switch v := e.(type) {
	case *xqast.FLWOR:
		var sb strings.Builder
		sb.WriteString("(flwor")
		for _, c := range v.Clauses {
			switch cl := c.(type) {
			case *xqast.ForClause:
				if cl.Pos != "" {
					fmt.Fprintf(&sb, " (for $%s at $%s %s)", cl.Var, cl.Pos, dump(cl.Seq))
				} else {
					fmt.Fprintf(&sb, " (for $%s %s)", cl.Var, dump(cl.Seq))
				}
			case *xqast.LetClause:
				fmt.Fprintf(&sb, " (let $%s %s)", cl.Var, dump(cl.Seq))
			}
		}
		if v.Where != nil {
			fmt.Fprintf(&sb, " (where %s)", dump(v.Where))
		}
		for _, o := range v.OrderBy {
			dir := "asc"
			if o.Descending {
				dir = "desc"
			}
			fmt.Fprintf(&sb, " (order %s %s)", dump(o.Key), dir)
		}
		fmt.Fprintf(&sb, " (return %s))", dump(v.Return))
		return sb.String()
	case *xqast.Quantified:
		kw := "some"
		if v.Every {
			kw = "every"
		}
		return fmt.Sprintf("(%s $%s %s %s)", kw, v.Var, dump(v.Seq), dump(v.Satisfies))
	case *xqast.IfExpr:
		return fmt.Sprintf("(if %s %s %s)", dump(v.Cond), dump(v.Then), dump(v.Else))
	case *xqast.Binary:
		return fmt.Sprintf("(%s %s %s)", v.Op, dump(v.L), dump(v.R))
	case *xqast.Unary:
		if v.Neg {
			return fmt.Sprintf("(neg %s)", dump(v.X))
		}
		return fmt.Sprintf("(pos %s)", dump(v.X))
	case *xqast.Path:
		var sb strings.Builder
		sb.WriteString("(path")
		if v.Absolute {
			sb.WriteString(" abs")
		}
		if v.Start != nil {
			fmt.Fprintf(&sb, " (start %s)", dump(v.Start))
		}
		for _, s := range v.Steps {
			fmt.Fprintf(&sb, " %s", dumpStep(s))
		}
		sb.WriteString(")")
		return sb.String()
	case *xqast.Filter:
		var sb strings.Builder
		fmt.Fprintf(&sb, "(filter %s", dump(v.Base))
		for _, p := range v.Predicates {
			fmt.Fprintf(&sb, " [%s]", dump(p))
		}
		sb.WriteString(")")
		return sb.String()
	case *xqast.FuncCall:
		var sb strings.Builder
		fmt.Fprintf(&sb, "(call %s", v.Name)
		for _, a := range v.Args {
			fmt.Fprintf(&sb, " %s", dump(a))
		}
		sb.WriteString(")")
		return sb.String()
	case *xqast.VarRef:
		return "$" + v.Name
	case *xqast.ContextItem:
		return "."
	case *xqast.EmptySeq:
		return "()"
	case *xqast.StringLit:
		return fmt.Sprintf("%q", v.V)
	case *xqast.IntLit:
		return fmt.Sprintf("%d", v.V)
	case *xqast.FloatLit:
		return fmt.Sprintf("%g", v.V)
	case *xqast.DirectElem:
		var sb strings.Builder
		fmt.Fprintf(&sb, "(elem %s", v.Name)
		for _, a := range v.Attrs {
			fmt.Fprintf(&sb, " @%s=(", a.Name)
			for i, part := range a.Value {
				if i > 0 {
					sb.WriteString(" ")
				}
				sb.WriteString(dump(part))
			}
			sb.WriteString(")")
		}
		for _, c := range v.Content {
			fmt.Fprintf(&sb, " %s", dump(c))
		}
		sb.WriteString(")")
		return sb.String()
	case *xqast.Enclosed:
		return fmt.Sprintf("{%s}", dump(v.X))
	case *xqast.ComputedElem:
		if v.NameExpr != nil {
			return fmt.Sprintf("(element {%s} %s)", dump(v.NameExpr), dump(v.Content))
		}
		return fmt.Sprintf("(element %s %s)", v.Name, dump(v.Content))
	case *xqast.ComputedAttr:
		return fmt.Sprintf("(attribute %s %s)", v.Name, dump(v.Content))
	case *xqast.ComputedText:
		return fmt.Sprintf("(text %s)", dump(v.Content))
	default:
		return fmt.Sprintf("?%T", e)
	}
}

func dumpStep(s *xqast.Step) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s::%s", s.Axis, s.Test)
	for _, p := range s.Predicates {
		fmt.Fprintf(&sb, "[%s]", dump(p))
	}
	return sb.String()
}

func parseOK(t *testing.T, src string) *xqast.Module {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return m
}

func wantExpr(t *testing.T, src, want string) {
	t.Helper()
	m := parseOK(t, src)
	if got := dump(m.Body); got != want {
		t.Errorf("parse %q:\n got  %s\nwant %s", src, got, want)
	}
}

func TestParseLiteralsAndOperators(t *testing.T) {
	wantExpr(t, `1 + 2 * 3`, `(+ 1 (* 2 3))`)
	wantExpr(t, `(1 + 2) * 3`, `(* (+ 1 2) 3)`)
	wantExpr(t, `1 - 2 - 3`, `(- (- 1 2) 3)`)
	wantExpr(t, `-1 + 2`, `(+ (neg 1) 2)`)
	wantExpr(t, `2 idiv 3 mod 4`, `(mod (idiv 2 3) 4)`)
	wantExpr(t, `1 to 5`, `(to 1 5)`)
	wantExpr(t, `"a" = 'b'`, `("a" "b")`[:0]+`(= "a" "b")`)
	wantExpr(t, `1 < 2 and 3 >= 4 or 5 != 6`,
		`(or (and (< 1 2) (>= 3 4)) (!= 5 6))`)
	wantExpr(t, `$x eq 5`, `(eq $x 5)`)
	wantExpr(t, `$a is $b`, `(is $a $b)`)
	wantExpr(t, `1.5e2`, `150`)
	wantExpr(t, `.5`, `0.5`)
	wantExpr(t, `"it""s"`, `"it\"s"`)
	wantExpr(t, `1, 2, 3`, `(, (, 1 2) 3)`)
	wantExpr(t, `()`, `()`)
	wantExpr(t, `a | b`, `(union (path child::a) (path child::b))`)
	wantExpr(t, `a intersect b`, `(intersect (path child::a) (path child::b))`)
}

func TestParsePaths(t *testing.T) {
	wantExpr(t, `/site`, `(path abs child::site)`)
	wantExpr(t, `/`, `(path abs)`)
	wantExpr(t, `//site/people`, `(path abs descendant-or-self::node() child::site child::people)`)
	wantExpr(t, `a//b`, `(path child::a descendant-or-self::node() child::b)`)
	wantExpr(t, `child::a/descendant::b`, `(path child::a descendant::b)`)
	wantExpr(t, `a/@id`, `(path child::a attribute::id)`)
	wantExpr(t, `@*`, `(path attribute::*)`)
	wantExpr(t, `../x`, `(path parent::node() child::x)`)
	wantExpr(t, `a/text()`, `(path child::a text::text())`[:0]+`(path child::a child::text())`)
	wantExpr(t, `self::node()`, `(path self::node())`)
	wantExpr(t, `a[1]`, `(path child::a[1])`)
	wantExpr(t, `a[@id = "x"][2]`, `(path child::a[(= (path attribute::id) "x")][2])`)
	wantExpr(t, `$b/name`, `(path (start $b) child::name)`)
	wantExpr(t, `doc("x.xml")/site`, `(path (start (call doc "x.xml")) child::site)`)
	wantExpr(t, `(a, b)/.`, `(path (start (, (path child::a) (path child::b))) self::node())`)
	wantExpr(t, `.`, `.`)
	wantExpr(t, `.[a]`, `(filter . [(path child::a)])`)
	wantExpr(t, `ancestor-or-self::div`, `(path ancestor-or-self::div)`)
	wantExpr(t, `processing-instruction(tgt)`, `(path child::processing-instruction(tgt))`)
	wantExpr(t, `document-node()`, `(path child::document-node())`)
	wantExpr(t, `attribute::href`, `(path attribute::href)`)
}

func TestParseStandOffAxes(t *testing.T) {
	wantExpr(t, `//music/select-narrow::shot`,
		`(path abs descendant-or-self::node() child::music select-narrow::shot)`)
	wantExpr(t, `$b/select-wide::*`, `(path (start $b) select-wide::*)`)
	wantExpr(t, `x/reject-narrow::node()`, `(path child::x reject-narrow::node())`)
	wantExpr(t, `x/reject-wide::a[1]`, `(path child::x reject-wide::a[1])`)
	// Figure 5 of the paper: StandOff XMark query 2.
	src := `for $b in doc("xmark110MB.xml")//site/select-narrow::open_auctions
	          /select-narrow::open_auction
	        return <increase> {
	          $b/select-narrow::bidder[1]/select-narrow::increase
	        } </increase>`
	m := parseOK(t, src)
	got := dump(m.Body)
	want := `(flwor (for $b (path (start (call doc "xmark110MB.xml")) descendant-or-self::node() child::site select-narrow::open_auctions select-narrow::open_auction)) (return (elem increase {(path (start $b) select-narrow::bidder[1] select-narrow::increase)})))`
	if got != want {
		t.Errorf("Figure 5:\n got  %s\nwant %s", got, want)
	}
}

func TestParseFLWOR(t *testing.T) {
	wantExpr(t, `for $x in (1,2), $y in (3,4) return $x + $y`,
		`(flwor (for $x (, 1 2)) (for $y (, 3 4)) (return (+ $x $y)))`)
	wantExpr(t, `for $x at $i in $s return $i`,
		`(flwor (for $x at $i $s) (return $i))`)
	wantExpr(t, `let $x := 1 return $x`,
		`(flwor (let $x 1) (return $x))`)
	wantExpr(t, `for $x in $s let $y := $x where $y > 2 order by $y descending return $y`,
		`(flwor (for $x $s) (let $y $x) (where (> $y 2)) (order $y desc) (return $y))`)
	wantExpr(t, `for $x as item() in $s return $x`,
		`(flwor (for $x $s) (return $x))`)
	wantExpr(t, `some $x in (1,2) satisfies $x > 1`,
		`(some $x (, 1 2) (> $x 1))`)
	wantExpr(t, `every $x in $s, $y in $t satisfies $x = $y`,
		`(every $x $s (every $y $t (= $x $y)))`)
	wantExpr(t, `if (1) then 2 else 3`, `(if 1 2 3)`)
}

func TestParseConstructors(t *testing.T) {
	wantExpr(t, `<a/>`, `(elem a)`)
	wantExpr(t, `<a x="1" y='2'/>`, `(elem a @x=("1") @y=("2"))`)
	wantExpr(t, `<a>text</a>`, `(elem a "text")`)
	wantExpr(t, `<a>{1 + 2}</a>`, `(elem a {(+ 1 2)})`)
	wantExpr(t, `<a><b/>mid<c/></a>`, `(elem a (elem b) "mid" (elem c))`)
	wantExpr(t, `<a x="p{$v}s"/>`, `(elem a @x=("p" {$v} "s"))`)
	wantExpr(t, `<a>{{literal}}</a>`, `(elem a "{" "literal" "}")`)
	wantExpr(t, `<a>&amp;&lt;&#65;</a>`, `(elem a "&<A")`)
	wantExpr(t, `<a><![CDATA[1 < 2]]></a>`, `(elem a "1 < 2")`)
	wantExpr(t, `element foo { 1 }`, `(element foo 1)`)
	wantExpr(t, `element { $n } { 1 }`, `(element {$n} 1)`)
	wantExpr(t, `attribute id { "x" }`, `(attribute id "x")`)
	wantExpr(t, `text { "x" }`, `(text "x")`)
	// Whitespace-only boundaries are stripped.
	wantExpr(t, "<a>\n  <b/>\n</a>", `(elem a (elem b))`)
	// Nested constructor inside enclosed expression.
	wantExpr(t, `<a>{ <b>{ $x }</b> }</a>`, `(elem a {(elem b {$x})})`)
}

func TestParsePrologAndFunctions(t *testing.T) {
	src := `
	xquery version "1.0";
	declare namespace so = "http://w3c.org/tr/standoff/";
	declare option standoff-type "xs:integer";
	declare option standoff-start "from";
	declare variable $limit := 10;
	declare function local:twice($x) { $x * 2 };
	declare function so:select-narrow($input as node()*, $candidates as node()*) as node()* {
	  (for $q in $input
	   for $p in $candidates
	   where $p/@start >= $q/@start
	     and $p/@end <= $q/@end
	     and root($p) is root($q)
	   return $p)/.
	};
	local:twice($limit)`
	m := parseOK(t, src)
	if len(m.Options) != 2 || m.Options[0].Name != "standoff-type" || m.Options[1].Value != "from" {
		t.Fatalf("options = %+v", m.Options)
	}
	if len(m.Namespaces) != 1 || m.Namespaces[0].Prefix != "so" {
		t.Fatalf("namespaces = %+v", m.Namespaces)
	}
	if len(m.Variables) != 1 || m.Variables[0].Name != "limit" {
		t.Fatalf("variables = %+v", m.Variables)
	}
	if len(m.Functions) != 2 {
		t.Fatalf("functions = %d", len(m.Functions))
	}
	f := m.Functions[1]
	if f.Name != "so:select-narrow" || len(f.Params) != 2 || f.Params[0] != "input" {
		t.Fatalf("function = %+v", f)
	}
	// The UDF body: a parenthesised FLWOR followed by /. for dedup.
	body := dump(f.Body)
	if !strings.Contains(body, "self::node()") || !strings.Contains(body, "(where") {
		t.Fatalf("UDF body = %s", body)
	}
	if got := dump(m.Body); got != `(call local:twice $limit)` {
		t.Fatalf("body = %s", got)
	}
}

func TestParseComments(t *testing.T) {
	wantExpr(t, `1 (: plus (: nested :) comment :) + 2`, `(+ 1 2)`)
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for $x return 1`,
		`for x in (1) return x`,
		`let $x = 1 return $x`,
		`if (1) then 2`,
		`1 +`,
		`"unterminated`,
		`(1, 2`,
		`a[1`,
		`<a>`,
		`<a></b>`,
		`<a x=1/>`,
		`<a>{1</a>`,
		`$`,
		`declare option foo;`,
		`declare banana "x"; 1`,
		`some $x in (1) return 2`,
		`//`,
		`1; 2`,
		`count(1,`,
		`foo::bar`,
		`1 2`,
		`1 +`,
		`(: unterminated`,
		`<a>}</a>`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStepAxisKinds(t *testing.T) {
	m := parseOK(t, `a/select-narrow::b`)
	p := m.Body.(*xqast.Path)
	if p.Steps[1].Axis != xpath.AxisSelectNarrow {
		t.Fatalf("axis = %v", p.Steps[1].Axis)
	}
}

func TestParseMoreConstructors(t *testing.T) {
	wantExpr(t, `<a b='{{x}}'/>`, `(elem a @b=("{x}"))`)
	wantExpr(t, `<a b="&amp;&#65;"/>`, `(elem a @b=("&A"))`)
	wantExpr(t, `<a b=""/>`, `(elem a @b=())`)
	wantExpr(t, `<a b='it""s'/>`, `(elem a @b=("it\"\"s"))`)
	wantExpr(t, `<a b="x{1}{2}y"/>`, `(elem a @b=("x" {1} {2} "y"))`)
	wantExpr(t, `<a><!-- skip --><b/></a>`, `(elem a (elem b))`)
	// Deeply nested enclosed expressions with constructors inside.
	wantExpr(t, `<a>{ if (1) then <b/> else <c/> }</a>`, `(elem a {(if 1 (elem b) (elem c))})`)
}

func TestParseConstructorErrors(t *testing.T) {
	bad := []string{
		`<a b="<"/>`,
		`<a b="&bogus;"/>`,
		`<a b="x`,
		`<a b=}/>`,
		`<a><![CDATA[x</a>`,
		`<a><!-- x</a>`,
		`<1bad/>`,
		`<a }b="1"/>`,
		`<a b="}"/>`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseDotSteps(t *testing.T) {
	wantExpr(t, `a/.`, `(path child::a self::node())`)
	wantExpr(t, `a/.[b]`, `(path child::a self::node()[(path child::b)])`)
	wantExpr(t, `a/..`, `(path child::a parent::node())`)
	wantExpr(t, `//a/..`, `(path abs descendant-or-self::node() child::a parent::node())`)
}

func TestParseErrorType(t *testing.T) {
	_, err := Parse("1 +")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 1 || !strings.Contains(pe.Error(), "syntax error") {
		t.Fatalf("error = %v", pe)
	}
}

func TestParseVersionDecl(t *testing.T) {
	m := parseOK(t, `xquery version "1.0"; 42`)
	if dump(m.Body) != `42` {
		t.Fatalf("body = %s", dump(m.Body))
	}
	if _, err := Parse(`xquery version 1.0; 42`); err == nil {
		t.Fatal("unquoted version must fail")
	}
}
