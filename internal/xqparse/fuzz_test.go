package xqparse

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"soxq/internal/core"
	"soxq/internal/xqplan"
)

// seedQueries collects the query texts of the examples and of the root
// package's differential fuzz harness: every string literal of those files
// that calls doc(, its fmt verbs filled in.
func seedQueries(t testing.TB) []string {
	files, err := filepath.Glob("../../examples/*/example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	verbs := strings.NewReplacer("%s", "t", "%d", "1", "%q", `"d.xml"`)
	var qs []string
	for _, name := range append(files, "../../fuzz_test.go") {
		f, err := goparser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "doc(") {
					qs = append(qs, verbs.Replace(s))
				}
			}
			return true
		})
	}
	return qs
}

// FuzzQueryParse feeds arbitrary query text to Parse and, when it parses, to
// xqplan.Compile (step programs, the // fusion test). Neither may panic or
// hang, and Compile only reads the module: the compiled copy must stay
// deeply equal to a second parse of the same text.
func FuzzQueryParse(f *testing.F) {
	qs := seedQueries(f)
	if len(qs) < 20 {
		f.Fatalf("found %d seed queries, want the examples' and the fuzz harness's", len(qs))
	}
	for _, q := range append(qs, `1 + 2`, `if (true() and "a" = "a") then -(4 - 6) else 0`) {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			m, err := Parse(src)
			if err != nil {
				return
			}
			_, _ = xqplan.Compile(m, core.DefaultOptions())
			if fresh, _ := Parse(src); !reflect.DeepEqual(m, fresh) {
				t.Errorf("Compile rewrote the module of %q", src)
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Parse/Compile of %q did not return", src)
		}
	})
}
