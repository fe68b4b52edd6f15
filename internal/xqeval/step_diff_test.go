package xqeval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xqast"
	"soxq/internal/xqplan"
)

// randomStandOffDoc writes a small document of nested a/b/c elements: most
// carry a region, some an id and a k attribute whose values exercise every
// comparison rule (strings, integers, decimals, padded and unparsable
// numbers); text, comments and processing instructions in between.
func randomStandOffDoc(rng *rand.Rand) string {
	ks := []string{"a", "b", "7", "07", "7.5", " 5 ", "x y", "", "1e1", "-3"}
	var sb strings.Builder
	id := 0
	var elem func(depth int, lo, hi int)
	elem = func(depth int, lo, hi int) {
		name := string("abc"[rng.Intn(3)])
		sb.WriteString("<" + name)
		if rng.Intn(10) < 7 && hi > lo {
			s := lo + rng.Intn(hi-lo)
			e := s + rng.Intn(hi-s+1)
			fmt.Fprintf(&sb, ` start="%d" end="%d"`, s, e)
			lo, hi = s, e
		}
		if rng.Intn(3) > 0 {
			id++
			fmt.Fprintf(&sb, ` id="n%d"`, id)
		}
		if rng.Intn(3) > 0 {
			fmt.Fprintf(&sb, ` k="%s"`, ks[rng.Intn(len(ks))])
		}
		sb.WriteString(">")
		for n := rng.Intn(4); n > 0 && depth < 4; n-- {
			switch rng.Intn(6) {
			case 0:
				sb.WriteString("t" + fmt.Sprint(rng.Intn(9)))
			case 1:
				sb.WriteString("<!--c-->")
			case 2:
				sb.WriteString("<?p d?>")
			default:
				elem(depth+1, lo, hi)
			}
		}
		sb.WriteString("</" + name + ">")
	}
	sb.WriteString(`<r start="0" end="100">`)
	for n := 2 + rng.Intn(4); n > 0; n-- {
		elem(1, 0, 100)
	}
	sb.WriteString("</r>")
	return sb.String()
}

// randomContext draws a context sequence of iters iterations with 0-4 nodes
// each, from both documents, attribute nodes included, in no particular order
// and with repeats — what a step receives from an arbitrary expression.
func randomContext(rng *rand.Rand, docs []*tree.Doc, iters int) LLSeq {
	b := newLLBuilder(iters)
	for i := 0; i < iters; i++ {
		for n := rng.Intn(5); n > 0; n-- {
			d := docs[rng.Intn(len(docs))]
			pre := int32(rng.Intn(d.NumNodes()))
			if lo, hi := d.Attrs(pre); hi > lo && rng.Intn(4) == 0 {
				b.appendItem(AttrItem(d, pre, lo+int32(rng.Intn(int(hi-lo)))))
			} else {
				b.appendItem(NodeItem(d, pre))
			}
		}
		b.endGroup()
	}
	return b.done()
}

var (
	diffAxes = []string{
		"child", "descendant", "descendant-or-self", "self", "parent", "ancestor", "ancestor-or-self",
		"following-sibling", "preceding-sibling", "following", "preceding", "attribute",
		"select-narrow", "select-wide", "reject-narrow", "reject-wide",
	}
	diffTests = []string{"a", "b", "*", "node()", "text()"}
	diffPreds = []string{
		"[1]", "[2]", "[0]", "[-1]", "[99]", "[last()]", "[position() > 1]", "[1.0]",
		`[@k = "a"]`, `[@k != "b"]`, `["b" > @k]`, `[@k < 7.25]`, `[7 = @k]`, `[@k >= 5]`, `[@start < 50]`,
		`[@nope = "x"]`, `[@id = $v]`, "[@k]", "[.]", "[b]", "[@start + 10 < @end]",
	}
)

// TestEvalStepAgainstReference runs random steps — every axis, both rejects,
// up to two predicates of every class — over random contexts (several rows
// per iteration, two documents, attribute context nodes) through the flat
// evalStep and the per-row evaluation it replaced, with and without the
// streaming pipeline's scratch arena.
func TestEvalStepAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 60; round++ {
		h := newHarness()
		docs := []*tree.Doc{
			h.addDoc(t, "one.xml", randomStandOffDoc(rng)),
			h.addDoc(t, "two.xml", randomStandOffDoc(rng)),
		}
		for try := 0; try < 50; try++ {
			axis := diffAxes[rng.Intn(len(diffAxes))]
			test := diffTests[rng.Intn(len(diffTests))]
			if axis == "attribute" {
				test = []string{"k", "*", "start"}[rng.Intn(3)]
			}
			step := axis + "::" + test
			for n := rng.Intn(3); n > 0; n-- {
				step += diffPreds[rng.Intn(len(diffPreds))]
			}
			plan, err := h.compile("$c/" + step)
			if err != nil {
				t.Fatalf("compile %s: %v", step, err)
			}
			prog := plan.Program(plan.Body().(*xqast.Path))
			sp := prog[len(prog)-1]
			iters := 1 + rng.Intn(5)
			ctx := randomContext(rng, docs[:1+rng.Intn(2)], iters)
			if rng.Intn(3) == 0 { // the $b/axis::x shape: one context node per iteration
				ctx = LLSeq{Off: ascOff(ctx.Total()), Items: ctx.Items}
				iters = ctx.N()
			}
			f := newFrame(iters).bind("v", newBinding(constLL(iters, Str("n3"))))
			strat := []core.Strategy{core.StrategyLoopLifted, core.StrategyBasic, core.StrategyNaive}[rng.Intn(3)]

			ev := h.newEvaluator(plan, strat)
			want, wantErr := ev.evalStepRef(sp, ctx, f)
			var scope *SeqScope
			if try%2 == 1 {
				ev.Attach()
				scope = ev.OpenScope()
			}
			got, gotErr := ev.evalStep(sp, ctx, f)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("round %d: %s over %v: error %v, want %v", round, step, ctx.Items, gotErr, wantErr)
			}
			if gotErr == nil && !sameSeq(got, want) {
				t.Fatalf("round %d: %s (%v) over %d iterations %v off %v:\n got %v off %v\nwant %v off %v",
					round, step, sp.Preds, iters, ctx.Items, ctx.Off, got.Items, got.Off, want.Items, want.Off)
			}
			if scope != nil {
				// The arena goes back to its pool without clearing anything:
				// what a closed scope leaves on the free list must be zero.
				ev.CloseScope(scope)
				for _, buf := range ev.seqs.freeItems {
					for k, it := range buf[:cap(buf)] {
						if it != (Item{}) {
							t.Fatalf("round %d: %s: free item buffer holds %v at %d after the scope closed", round, step, it, k)
						}
					}
				}
				ev.Detach()
			}
		}
	}
}

// sameSeq compares two node sequences group by group, by node identity.
func sameSeq(a, b LLSeq) bool {
	if a.N() != b.N() || a.Total() != b.Total() {
		return false
	}
	for i := range a.Off {
		if a.Off[i] != b.Off[i] {
			return false
		}
	}
	for i := range a.Items {
		if !a.Items[i].SameNode(b.Items[i]) {
			return false
		}
	}
	return true
}

// stepOf compiles "$c/<step>" and returns the step's plan.
func stepOf(t *testing.T, h *harness, step string) (*xqplan.Plan, *xqplan.StepPlan) {
	t.Helper()
	plan, err := h.compile("$c/" + step)
	if err != nil {
		t.Fatalf("compile %s: %v", step, err)
	}
	prog := plan.Program(plan.Body().(*xqast.Path))
	return plan, prog[len(prog)-1]
}
