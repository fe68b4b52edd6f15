package xqplan

import (
	"testing"

	"soxq/internal/xqparse"
)

// TestContainsStandOff pins the nested-cursor classifier: StandOff axes
// anywhere under the expression (including predicates) count, user/extension
// function calls are conservatively treated as containing one, and plain
// tree-axis forms do not.
func TestContainsStandOff(t *testing.T) {
	cases := []struct {
		q    string
		want bool
	}{
		{`1 to 5`, false},
		{`doc("d.xml")//a/b`, false},
		{`doc("d.xml")//a/select-narrow::b`, true},
		{`doc("d.xml")//a[select-wide::b]/c`, true},
		{`for $x in doc("d.xml")//a return $x/reject-wide::b`, true},
		{`count(doc("d.xml")//a)`, false},
		{`local:f(1)`, true},
		{`(1, 2, doc("d.xml")//a/@id)`, false},
	}
	for _, c := range cases {
		m, err := xqparse.Parse(`declare function local:f($x) { $x }; ` + c.q)
		if err != nil {
			t.Fatalf("parse %q: %v", c.q, err)
		}
		if got := containsStandOff(m.Body); got != c.want {
			t.Errorf("containsStandOff(%q) = %v, want %v", c.q, got, c.want)
		}
	}
}
