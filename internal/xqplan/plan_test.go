package xqplan

import (
	"strings"
	"testing"

	"soxq/internal/core"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
	"soxq/internal/xqparse"
)

func compile(t *testing.T, q string) *Plan {
	t.Helper()
	m, err := xqparse.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Compile(m, core.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestFuncKeyEncoding(t *testing.T) {
	// The old rune encoding ('0'+arity) broke past arity 9 and could not
	// round-trip; the name/arity form is unambiguous.
	if got := FuncKey("local:f", 12); got != "local:f/12" {
		t.Fatalf("FuncKey = %q", got)
	}
	if FuncKey("f", 10) == FuncKey("f", 1) {
		t.Fatal("keys must differ per arity")
	}
}

func TestCompileFunctionTable(t *testing.T) {
	p := compile(t, `
		declare function local:one($a) { $a };
		declare function local:one($a, $b) { ($a, $b) };
		local:one(1)`)
	if _, ok := p.Function("local:one", 1); !ok {
		t.Fatal("local:one#1 missing")
	}
	if _, ok := p.Function("local:one", 2); !ok {
		t.Fatal("local:one#2 missing")
	}
	if _, ok := p.Function("local:one", 3); ok {
		t.Fatal("local:one#3 must not resolve")
	}
}

func TestCompileDuplicateFunction(t *testing.T) {
	m, err := xqparse.Parse(`
		declare function local:f($a) { $a };
		declare function local:f($x) { $x };
		local:f(1)`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(m, core.DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "XQST0034") {
		t.Fatalf("want duplicate-function error, got %v", err)
	}
}

func TestCompileDuplicateParam(t *testing.T) {
	m, err := xqparse.Parse(`declare function local:f($a, $a) { $a }; 1`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(m, core.DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "XQST0039") {
		t.Fatalf("want duplicate-parameter error, got %v", err)
	}
}

func TestCompileResolvesPreambleOptions(t *testing.T) {
	p := compile(t, `declare option so:standoff-type "so:timecode"; 1`)
	if p.Options().Type != core.TypeTimecode {
		t.Fatalf("preamble option not applied: %+v", p.Options())
	}
	// Engine-wide defaults survive when the preamble is silent.
	base := core.DefaultOptions()
	base.Start = "s0"
	m, err := xqparse.Parse(`1`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(m, base)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Options().Start != "s0" {
		t.Fatalf("base options lost: %+v", p2.Options())
	}
}

func TestCompileBadOption(t *testing.T) {
	m, err := xqparse.Parse(`declare option so:standoff-type "xs:string"; 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(m, core.DefaultOptions()); err == nil {
		t.Fatal("want bad-option error")
	}
}

// standOffSteps lists the compiled StandOff steps of every path, as EXPLAIN
// describes them.
func standOffSteps(p *Plan) []StepExplain {
	var out []StepExplain
	for _, pe := range p.Explain().Paths {
		for _, se := range pe.Steps {
			if se.StandOff {
				out = append(out, se)
			}
		}
	}
	return out
}

func TestStandOffDecisions(t *testing.T) {
	p := compile(t, `doc("d.xml")//music/select-narrow::shot`)
	steps := standOffSteps(p)
	if len(steps) != 1 {
		t.Fatalf("%d StandOff steps, want 1", len(steps))
	}
	so := steps[0]
	if so.Op != core.SelectNarrow.String() {
		t.Fatalf("Op = %v", so.Op)
	}
	if so.PushPolicy != "by-name(shot)" {
		t.Fatalf("pushdown policy = %v", so.PushPolicy)
	}
	if so.NoPushPolicy != CandAllFiltered.String() {
		t.Fatalf("no-pushdown policy = %v", so.NoPushPolicy)
	}
}

func TestStandOffDecisionKinds(t *testing.T) {
	for _, tc := range []struct {
		test         xpath.Test
		push, noPush CandPolicy
	}{
		{xpath.Test{Kind: xpath.TestText}, CandImpossible, CandImpossible},
		{xpath.Test{Kind: xpath.TestAnyNode}, CandAll, CandAll},
		{xpath.Test{Kind: xpath.TestElement}, CandAll, CandAll},
		{xpath.NameTest("x"), CandByName, CandAllFiltered},
	} {
		so := Decide(&xqast.Step{Axis: xpath.AxisSelectWide, Test: tc.test})
		if so.Push != tc.push || so.NoPush != tc.noPush {
			t.Errorf("Decide(%v) = %v/%v, want %v/%v", tc.test, so.Push, so.NoPush, tc.push, tc.noPush)
		}
		if so.Op != core.SelectWide {
			t.Errorf("Decide(%v).Op = %v", tc.test, so.Op)
		}
	}
}

// TestStandOffStepsInsidePredicatesAndConstructors pins that analysis walks
// the whole tree, not just top-level paths.
func TestStandOffStepsEverywhere(t *testing.T) {
	p := compile(t, `
		declare function local:f($s) { $s/select-wide::b };
		for $x in doc("d.xml")//a[./select-narrow::c]
		return <r>{ local:f($x), $x/reject-wide::d }</r>`)
	if got := len(standOffSteps(p)); got != 3 {
		t.Fatalf("%d StandOff steps, want 3", got)
	}
}
