package xqplan

import (
	"fmt"
	"testing"

	"soxq/internal/core"
	"soxq/internal/xmlparse"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// program returns the step program of the n-th path (discovery order) of a
// compiled query.
func program(t *testing.T, p *Plan, n int) Program {
	t.Helper()
	if n >= len(p.paths) {
		t.Fatalf("plan has %d paths, want index %d", len(p.paths), n)
	}
	return p.programs[p.paths[n]]
}

func TestFusionCompiled(t *testing.T) {
	// doc("d.xml")//music: descendant-or-self::node()/child::music fuses
	// into one descendant::music step at compile time.
	p := compile(t, `doc("d.xml")//music`)
	prog := program(t, p, 0)
	if len(prog) != 1 {
		t.Fatalf("program length = %d, want 1 (fused)", len(prog))
	}
	sp := prog[0]
	if sp.Axis != xpath.AxisDescendant || !sp.Fused || sp.Test.Name != "music" {
		t.Fatalf("fused step = %v::%v fused=%v", sp.Axis, sp.Test, sp.Fused)
	}
}

func TestNoFusionWithPredicates(t *testing.T) {
	// A predicate on the child step blocks the fusion: positional
	// predicates count per parent, and descendant flattening would break
	// that.
	p := compile(t, `doc("d.xml")//music[1]`)
	prog := program(t, p, 0)
	if len(prog) != 2 {
		t.Fatalf("program length = %d, want 2 (unfused)", len(prog))
	}
	if prog[0].Axis != xpath.AxisDescendantOrSelf || prog[1].Axis != xpath.AxisChild {
		t.Fatalf("axes = %v, %v", prog[0].Axis, prog[1].Axis)
	}
	if len(prog[1].Predicates) != 1 {
		t.Fatalf("child step predicates = %d, want 1", len(prog[1].Predicates))
	}
}

// TestPositionFree is the table of the // fusion's predicate test: a
// position-free predicate fuses doc("d.xml")//t[p] into descendant::t[p]; any
// other keeps the descendant-or-self::node()/child::t[p] pair.
func TestPositionFree(t *testing.T) {
	for pred, want := range map[string]bool{
		`@a = "v"`:                  true,
		`3 > @a`:                    true,
		`@a = $v`:                   true,
		`u = "x"`:                   true,
		`@a eq "v"`:                 true,
		`. is $x`:                   true,
		`. << $x`:                   true,
		`count(u) = 1`:              true,
		`@a and @b`:                 true,
		`@a or (u/w and not(@b))`:   true,
		`not(@a)`:                   true,
		`exists(u)`:                 true,
		`fn:empty(u[@a])`:           true,
		`boolean(@a)`:               true,
		`u`:                         true,
		`u/@a`:                      true,
		`descendant::u[@a = 1]`:     true,
		`u[1]`:                      true,
		`select-narrow::u`:          true,
		`1`:                         false,
		`last()`:                    false,
		`position() < 3`:            false,
		`$n`:                        false,
		`@a = position()`:           false,
		`not(last() = 1)`:           false,
		`u[position() = 1]`:         false,
		`@a + 1`:                    false,
		`count(u)`:                  false,
		`.`:                         false,
		`/u`:                        false,
		`$x/u`:                      false,
		`@a and $n`:                 false,
		`if (@a) then 1 else 2`:     false,
		`some $y in u satisfies $y`: false,
		`local:f(.)`:                false,
	} {
		// The table is read through both doors: the test itself on the
		// predicate of an unfused step, and the fusion it decides.
		const prolog = `declare variable $v := "v"; declare variable $n := 2; declare variable $x := (); ` +
			`declare function local:f($y) { 1 }; `
		p := compile(t, prolog+`$x/t[`+pred+`]`)
		step := program(t, p, len(p.paths)-1)[0]
		if got := p.positionFree(step.Predicates...); got != want {
			t.Errorf("[%s]: positionFree = %v, want %v", pred, got, want)
		}
		p = compile(t, prolog+`doc("d.xml")//t[`+pred+`]`)
		fused := program(t, p, len(p.paths)-1)
		if got := len(fused) == 1 && fused[0].Fused; got != want {
			t.Errorf("doc(\"d.xml\")//t[%s]: fused = %v, want %v", pred, got, want)
		}
	}
	// A user function that shadows a built-in is not the built-in.
	p := compile(t, `declare function not($x) { 1 }; doc("d.xml")//t[not(@a)]`)
	if prog := program(t, p, len(p.paths)-1); len(prog) != 2 {
		t.Errorf("shadowed not(): program has %d steps, want the unfused 2", len(prog))
	}
}

func TestStandOffStepCompiled(t *testing.T) {
	p := compile(t, `doc("d.xml")//music/select-narrow::shot`)
	prog := program(t, p, 0)
	if len(prog) != 2 {
		t.Fatalf("program length = %d, want 2", len(prog))
	}
	so := prog[1]
	if !so.StandOff || so.SO.Op != core.SelectNarrow || so.SO.Name != "shot" {
		t.Fatalf("standoff step = %+v", so.SO)
	}
}

// TestStepMemoBounded: the per-step test memo resets past stepMemoLimit so
// a long-lived plan cannot pin every document it ever bound to.
func TestStepMemoBounded(t *testing.T) {
	sp := CompileStep(&xqast.Step{Axis: xpath.AxisChild, Test: xpath.NameTest("a")})
	for i := 0; i < 3*stepMemoLimit; i++ {
		d, err := xmlparse.Parse(fmt.Sprintf("d%d.xml", i), []byte(`<doc><a/></doc>`))
		if err != nil {
			t.Fatal(err)
		}
		sp.CompiledTest(d)
	}
	n := 0
	sp.tests.Range(func(_, _ any) bool { n++; return true })
	if n > stepMemoLimit {
		t.Fatalf("memo holds %d entries, limit %d", n, stepMemoLimit)
	}
}

func TestCompiledTestMemoized(t *testing.T) {
	d, err := xmlparse.Parse("d.xml", []byte(`<doc><a/><b/></doc>`))
	if err != nil {
		t.Fatal(err)
	}
	sp := CompileStep(&xqast.Step{Axis: xpath.AxisChild, Test: xpath.NameTest("a")})
	c1 := sp.CompiledTest(d)
	c2 := sp.CompiledTest(d)
	if c1 != c2 {
		t.Fatalf("CompiledTest not stable: %+v vs %+v", c1, c2)
	}
	// pre 0 is the document node, 1 <doc>, 2 <a>, 3 <b>.
	if !c1.Matches(d, 2) || c1.Matches(d, 3) {
		t.Fatal("compiled test matches wrong nodes")
	}
}

// TestReduceMarks pins which steps the join reduces: the final StandOff
// select step of count/exists/empty's path argument when every predicate is
// pushed (CountOnly), and a StandOff select step whose first unpushed
// predicate is [1] (FirstByJoin). A user function named like the built-in
// keeps its argument unmarked.
func TestReduceMarks(t *testing.T) {
	for q, want := range map[string][2]bool{ // CountOnly, FirstByJoin of the last compiled step
		`count($c/select-narrow::p)`:           {true, false},
		`fn:exists($c/select-wide::p[@v = 1])`: {true, false},
		`empty($c/select-narrow::*)`:           {true, false},
		`count($c/select-narrow::*[@v = 1])`:   {false, false},
		`count($c/select-narrow::p[@v != 1])`:  {false, false},
		`count($c/reject-narrow::p)`:           {false, false},
		`count($c/child::p)`:                   {false, false},
		`count(($c/select-narrow::p))`:         {true, false},
		`sum($c/select-narrow::p)`:             {false, false},
		`$c/select-narrow::p`:                  {false, false},
		`$c/select-narrow::p[1]`:               {false, true},
		`$c/select-wide::p[@v < 5][1][@w = 2]`: {false, true},
		`$c/select-narrow::p[@v != 5][1]`:      {false, false},
		`$c/select-narrow::p[2]`:               {false, false},
		`$c/select-narrow::p[last()]`:          {false, false},
		`$c/reject-wide::p[1]`:                 {false, false},
		`$c/child::p[1]`:                       {false, false},
		`count($c/select-narrow::p[1])`:        {false, true},
		`declare function local:count($x) { 1 }; local:count($c/select-narrow::p)`: {false, false},
	} {
		p := compile(t, q)
		prog := program(t, p, len(p.paths)-1)
		last := prog[len(prog)-1]
		if got := [2]bool{last.CountOnly, last.FirstByJoin}; got != want {
			t.Errorf("%s: CountOnly, FirstByJoin = %v, want %v", q, got, want)
		}
	}
}
