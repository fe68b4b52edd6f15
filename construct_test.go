package soxq

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"soxq/internal/tree"
	"soxq/internal/xmlparse"
)

// TestConstructorsAcrossBatchAndChunkBoundaries: direct and computed element
// constructors serialise as fragments built one at a time with
// tree.NewFragmentBuilder and CopySubtree, for iteration counts on both sides
// of the 64-root sizing batch and of a 1024-iteration chunk, under several
// StreamChunk values. The copied nodes come from two documents: in runs of 70
// iterations, so that one document's roots fill a batch and spill into the
// next, and alternating inside each iteration's content, next to attribute,
// atomic and empty items.
func TestConstructorsAcrossBatchAndChunkBoundaries(t *testing.T) {
	const rows = 50
	docs := map[string][]byte{}
	parsed := map[string]*tree.Doc{}
	for _, name := range []string{"a.xml", "b.xml"} {
		var sb strings.Builder
		sb.WriteString("<r>")
		for j := 0; j < rows; j++ {
			if j%4 == 3 { // no attributes, no text
				fmt.Fprintf(&sb, "<n><m/></n>")
				continue
			}
			fmt.Fprintf(&sb, `<n k="%s%d" v="%s">text %d<m z=""/></n>`, name[:1], j, strings.Repeat("v", j%3), j)
		}
		sb.WriteString("</r>")
		docs[name] = []byte(sb.String())
		d, err := xmlparse.Parse(name, docs[name])
		if err != nil {
			t.Fatal(err)
		}
		parsed[name] = d
	}
	eng := New()
	for name, src := range docs {
		if err := eng.LoadXML(name, src); err != nil {
			t.Fatal(err)
		}
	}
	// The iteration's documents: d holds its main node, o the other one.
	pick := func(i int) (d, o string) {
		if i%100 < 70 {
			return "a.xml", "b.xml"
		}
		return "b.xml", "a.xml"
	}
	nth := func(name string, k int) int32 {
		d := parsed[name]
		return d.Children(d.RootElement())[k]
	}
	const prolog = `for $i in 1 to %d
let $d := if ($i mod 100 < 70) then doc("a.xml") else doc("b.xml")
let $o := if ($i mod 100 < 70) then doc("b.xml") else doc("a.xml")
let $n := $d/r/n[$i mod 50 + 1]
let $x := if ($i mod 3 = 0) then $o/r/n[1] else if ($i mod 3 = 1) then ($n, $o/r/n[2]) else ()
let $a := if ($i mod 5 = 0) then $i else ""
return `
	queries := map[string]string{
		"direct":   prolog + `<e n="{$i}">{ $n/@k }{ $n }{ $x }{ $a }</e>`,
		"computed": prolog + `element e { $n/@k, $n, $x, $a }`,
	}
	// want builds iteration i's element as the constructor should.
	want := func(form string, i int) string {
		d, o := pick(i)
		src, other := parsed[d], parsed[o]
		n := nth(d, i%rows)
		fb := tree.NewFragmentBuilder()
		fb.StartElement("e")
		if form == "direct" {
			fb.Attr("n", strconv.Itoa(i))
		}
		for a, hi := src.Attrs(n); a < hi; a++ {
			if src.AttrName(a) == "k" {
				fb.CopyAttr(src, a)
			}
		}
		fb.CopySubtree(src, n)
		switch i % 3 {
		case 0:
			fb.CopySubtree(other, nth(o, 0))
		case 1:
			fb.CopySubtree(src, n)
			fb.CopySubtree(other, nth(o, 1))
		}
		if i%5 == 0 {
			fb.Text(strconv.Itoa(i))
		}
		fb.EndElement()
		doc, err := fb.Done()
		if err != nil {
			t.Fatal(err)
		}
		return doc.XMLString(1)
	}
	for _, form := range []string{"direct", "computed"} {
		for _, iters := range []int{1, 63, 64, 65, 1025} {
			prep, err := eng.Prepare(fmt.Sprintf(queries[form], iters))
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{1, 7, 0} {
				res, err := prep.Exec(Config{StreamChunk: chunk})
				if err != nil {
					t.Fatalf("%s, %d iterations, chunk %d: %v", form, iters, chunk, err)
				}
				if res.Len() != iters {
					t.Fatalf("%s, %d iterations, chunk %d: %d items", form, iters, chunk, res.Len())
				}
				for i := 1; i <= iters; i++ {
					if got, w := res.Value(i-1).XML(), want(form, i); got != w {
						t.Fatalf("%s, %d iterations, chunk %d, iteration %d:\n got %s\nwant %s", form, iters, chunk, i, got, w)
					}
				}
			}
		}
	}
}

// TestConstructedNodeSemanticsAcrossChunks: each iteration's constructed
// node, its fragment one of many in a container, navigates as the same node
// of a fragment built on its own with tree.NewFragmentBuilder — up to its
// root, along the sibling, following and preceding axes, by // and by the
// stand-off steps, whose neighbours in the container carry the same region
// coordinates — for 1, 2 and 1025 iterations under StreamChunk 1, 7 and the
// default, so that containers hold one fragment, a few or a whole chunk. A
// streamed stand-off path from one fragment of a container matches in that
// fragment only.
func TestConstructedNodeSemanticsAcrossChunks(t *testing.T) {
	kinds := []struct{ name, construct, xml, path string }{
		{"element", `<a n="{$i}" start="1" end="10"><b start="2" end="3"/>t<c start="5" end="20"/></a>`,
			`<a n="%d" start="1" end="10"><b start="2" end="3"/>t<c start="5" end="20"/></a>`, "/a"},
		{"attribute", `attribute x { $i }`, `<attribute-carrier x="%d"/>`, "/attribute-carrier/@x"},
		{"text", `text { $i }`, `<text-carrier>%d</text-carrier>`, "/text-carrier/text()"},
	}
	bodies := []string{
		`count(root($e)//node())`,
		`count($e/..) + count($e/../..)`,
		`count($e/../following-sibling::node()) + count($e/../preceding-sibling::node())`,
		`count($e/following::node()) + count($e/preceding::node())`,
		`count($e/node()/following::node())`,
		`count($e/node()/preceding::node())`,
		`count($e[(//@n)[1] = @n])`,
		`count($e[string((//@*)[1]) = string(.)])`,
		`count($e[string((//text())[1]) = string(.)])`,
		`(root($e) is $e/.., $e/.. << $e)`,
		`$e/select-narrow::*`,
		`$e/b/select-wide::*`,
		`count($e/reject-wide::*)`,
		`count($e/c/reject-narrow::*)`,
	}
	eng := New()
	eng.mu.Lock()
	for _, k := range kinds {
		for i := 1; i <= 1025; i++ {
			src, err := xmlparse.Parse("", []byte(fmt.Sprintf(k.xml, i)))
			if err != nil {
				t.Fatal(err)
			}
			fb := tree.NewFragmentBuilder()
			fb.CopySubtree(src, 0)
			if eng.docs[fmt.Sprintf("%s%d", k.name, i)], err = fb.Done(); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.mu.Unlock()
	run := func(q string, chunk int) string {
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		res, err := prep.Exec(Config{StreamChunk: chunk})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.String()
	}
	for _, k := range kinds {
		for _, n := range []int{1, 2, 1025} {
			built := fmt.Sprintf(`for $i in 1 to %d let $e := %s return `, n, k.construct)
			ref := fmt.Sprintf(`for $i in 1 to %d let $e := doc(concat(%q, $i))%s return `, n, k.name, k.path)
			for _, body := range bodies {
				for _, chunk := range []int{1, 7, 0} {
					if got, want := run(built+body, chunk), run(ref+body, chunk); got != want {
						t.Fatalf("%s ×%d, chunk %d: %s\n got %.200s\nwant %.200s", k.name, n, chunk, body, got, want)
					}
				}
			}
			built = fmt.Sprintf(`(for $i in 1 to %d return %s)`, n, k.construct)
			ref = fmt.Sprintf(`(for $i in 1 to %d return doc(concat(%q, $i))%s)`, n, k.name, k.path)
			for _, path := range []string{`[last()]/select-narrow::*`, `[1]/b/select-wide::*`, `[last()]/select-wide::*/select-narrow::*`} {
				if got, want := run(built+path, 0), run(ref+path, 0); got != want {
					t.Fatalf("%s ×%d: %s\n got %.200s\nwant %.200s", k.name, n, path, got, want)
				}
			}
		}
	}
}
