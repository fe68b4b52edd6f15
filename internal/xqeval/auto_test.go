package xqeval

import (
	"fmt"
	"strings"
	"testing"

	"soxq/internal/core"
)

// standoffDoc builds a document with n s-areas and n/8+1 t-areas: one huge
// and one tiny annotation layer.
func standoffDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<s start="%d" end="%d"/>`, i*10, i*10+9)
	}
	for i := 0; i < n/8+1; i++ {
		fmt.Fprintf(&sb, `<t start="%d" end="%d"/>`, i*80, i*80+19)
	}
	sb.WriteString("</doc>")
	return sb.String()
}

// TestAutoStrategyMatchesForced: results under the default Loop-Lifted join
// are identical to the forced Basic baseline on both a tiny and a huge
// annotation layer (the algorithm never changes the answer).
func TestAutoStrategyMatchesForced(t *testing.T) {
	for _, n := range []int{8, 200} {
		for _, q := range []string{
			`doc("d.xml")//s/select-wide::t`,
			`for $x in doc("d.xml")//t return $x/select-narrow::s`,
			`count(doc("d.xml")//s/reject-narrow::t)`,
		} {
			h := newHarness()
			h.addDoc(t, "d.xml", standoffDoc(n))
			ref, err := h.run(t, q, core.StrategyBasic)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, q, err)
			}
			got, err := h.run(t, q, core.StrategyLoopLifted)
			if err != nil {
				t.Fatalf("n=%d %s looplifted: %v", n, q, err)
			}
			if serialize(got) != serialize(ref) {
				t.Fatalf("n=%d %s: looplifted %q != basic %q", n, q, serialize(got), serialize(ref))
			}
		}
	}
}

// TestAutoFunctionForm: the so:select-* function form synthesises its step
// at run time and agrees across the default Loop-Lifted join and Basic.
func TestAutoFunctionForm(t *testing.T) {
	h := newHarness()
	h.addDoc(t, "d.xml", standoffDoc(20))
	q := `count(so:select-wide(doc("d.xml")//s))`
	ref, err := h.run(t, q, core.StrategyBasic)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.run(t, q, core.StrategyLoopLifted)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(got) != serialize(ref) {
		t.Fatalf("looplifted %q != basic %q", serialize(got), serialize(ref))
	}
}
