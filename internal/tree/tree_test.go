package tree

import (
	"strconv"
	"strings"
	"testing"
)

// buildSample constructs:
//
//	<site id="s1"><a>one</a><b x="1" y="2">two<c/>three</b><!--note--><?pi data?></site>
func buildSample(t *testing.T) *Doc {
	t.Helper()
	b := NewBuilder("sample.xml")
	b.StartElement("site")
	b.Attr("id", "s1")
	b.StartElement("a")
	b.Text("one")
	b.EndElement()
	b.StartElement("b")
	b.Attr("x", "1")
	b.Attr("y", "2")
	b.Text("two")
	b.StartElement("c")
	b.EndElement()
	b.Text("three")
	b.EndElement()
	b.Comment("note")
	b.PI("pi", "data")
	b.EndElement()
	d, err := b.Done()
	if err != nil {
		t.Fatalf("Done: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d
}

func TestBuilderShape(t *testing.T) {
	d := buildSample(t)
	// pre: 0 doc, 1 site, 2 a, 3 text(one), 4 b, 5 text(two), 6 c,
	// 7 text(three), 8 comment, 9 pi
	if d.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", d.NumNodes())
	}
	wantKinds := []Kind{DocumentNode, ElementNode, ElementNode, TextNode,
		ElementNode, TextNode, ElementNode, TextNode, CommentNode, PINode}
	for pre, k := range wantKinds {
		if d.Kind(int32(pre)) != k {
			t.Fatalf("kind[%d] = %v, want %v", pre, d.Kind(int32(pre)), k)
		}
	}
	if d.Size(0) != 9 || d.Size(1) != 8 || d.Size(4) != 3 || d.Size(6) != 0 {
		t.Fatalf("sizes wrong: %d %d %d %d", d.Size(0), d.Size(1), d.Size(4), d.Size(6))
	}
	if depthOf(d, 0) != 0 || depthOf(d, 1) != 1 || depthOf(d, 6) != 3 {
		t.Fatal("levels wrong")
	}
	if d.Parent(6) != 4 || d.Parent(1) != 0 || d.Parent(0) != -1 {
		t.Fatal("parents wrong")
	}
	if d.NodeName(1) != "site" || d.NodeName(4) != "b" || d.NodeName(9) != "pi" {
		t.Fatal("names wrong")
	}
	if d.Value(3) != "one" || d.Value(7) != "three" || d.Value(8) != "note" {
		t.Fatal("values wrong")
	}
}

func TestAttributes(t *testing.T) {
	d := buildSample(t)
	if d.NumAttrs() != 3 {
		t.Fatalf("NumAttrs = %d", d.NumAttrs())
	}
	if v, ok := d.AttrByName(1, "id"); !ok || v != "s1" {
		t.Fatalf("site/@id = %q,%v", v, ok)
	}
	if v, ok := d.AttrByName(4, "y"); !ok || v != "2" {
		t.Fatalf("b/@y = %q,%v", v, ok)
	}
	if _, ok := d.AttrByName(4, "nope"); ok {
		t.Fatal("nonexistent attribute found")
	}
	if _, ok := d.AttrByName(2, "x"); ok {
		t.Fatal("attribute of other node found")
	}
	lo, hi := d.Attrs(4)
	if hi-lo != 2 || d.AttrName(lo) != "x" || d.AttrName(lo+1) != "y" {
		t.Fatal("attr range of b wrong")
	}
	if lo, hi := d.Attrs(2); hi != lo {
		t.Fatal("element a should have no attributes")
	}
}

func TestNavigation(t *testing.T) {
	d := buildSample(t)
	if d.FirstChild(0) != 1 || d.FirstChild(1) != 2 || d.FirstChild(6) != -1 {
		t.Fatal("FirstChild wrong")
	}
	if d.NextSibling(2) != 4 || d.NextSibling(4) != 8 || d.NextSibling(9) != -1 {
		t.Fatal("NextSibling wrong")
	}
	kids := d.Children(1)
	want := []int32{2, 4, 8, 9}
	if len(kids) != len(want) {
		t.Fatalf("Children(1) = %v", kids)
	}
	for i := range want {
		if kids[i] != want[i] {
			t.Fatalf("Children(1) = %v, want %v", kids, want)
		}
	}
	if !d.IsAncestorOf(1, 6) || !d.IsAncestorOf(4, 6) || d.IsAncestorOf(6, 6) || d.IsAncestorOf(2, 4) {
		t.Fatal("IsAncestorOf wrong")
	}
}

func TestStringValue(t *testing.T) {
	d := buildSample(t)
	if got := d.StringValue(1); got != "onetwothree" {
		t.Fatalf("StringValue(site) = %q", got)
	}
	if got := d.StringValue(4); got != "twothree" {
		t.Fatalf("StringValue(b) = %q", got)
	}
	if got := d.StringValue(3); got != "one" {
		t.Fatalf("StringValue(text) = %q", got)
	}
	if got := d.StringValue(6); got != "" {
		t.Fatalf("StringValue(c) = %q", got)
	}
	if got := d.StringValue(8); got != "note" {
		t.Fatalf("StringValue(comment) = %q", got)
	}
}

func TestElementsByName(t *testing.T) {
	d := buildSample(t)
	id, ok := d.Dict().Lookup("b")
	if !ok {
		t.Fatal("name b not interned")
	}
	pres := d.ElementsByName(id)
	if len(pres) != 1 || pres[0] != 4 {
		t.Fatalf("ElementsByName(b) = %v", pres)
	}
	if cID, ok := d.Dict().Lookup("c"); !ok || len(d.ElementsByName(cID)) != 1 {
		t.Fatal("ElementsByName(c) wrong")
	}
}

func TestSerialize(t *testing.T) {
	d := buildSample(t)
	got := d.XMLString(0)
	want := `<site id="s1"><a>one</a><b x="1" y="2">two<c/>three</b><!--note--><?pi data?></site>`
	if got != want {
		t.Fatalf("serialize:\n got %s\nwant %s", got, want)
	}
	if got := d.XMLString(4); got != `<b x="1" y="2">two<c/>three</b>` {
		t.Fatalf("serialize subtree: %s", got)
	}
}

func TestEscaping(t *testing.T) {
	b := NewBuilder("esc.xml")
	b.StartElement("e")
	b.Attr("a", `x<&>"y`)
	b.Text(`1 < 2 & "3"`)
	b.EndElement()
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	got := d.XMLString(0)
	want := `<e a="x&lt;&amp;&gt;&quot;y">1 &lt; 2 &amp; "3"</e>`
	if got != want {
		t.Fatalf("escaping:\n got %s\nwant %s", got, want)
	}
}

func TestTextMerging(t *testing.T) {
	b := NewBuilder("merge.xml")
	b.StartElement("e")
	b.Text("ab")
	b.Text("cd")
	b.Text("") // dropped
	b.EndElement()
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 3 {
		t.Fatalf("adjacent text should merge, NumNodes = %d", d.NumNodes())
	}
	if d.Value(2) != "abcd" {
		t.Fatalf("merged text = %q", d.Value(2))
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad.xml")
	b.StartElement("e")
	if _, err := b.Done(); err == nil {
		t.Fatal("unclosed element must fail")
	}

	b = NewBuilder("bad2.xml")
	b.EndElement()
	b.StartElement("e")
	b.EndElement()
	if _, err := b.Done(); err == nil {
		t.Fatal("unbalanced EndElement must fail")
	}

	b = NewBuilder("bad3.xml")
	b.StartElement("e")
	b.Text("t")
	b.Attr("late", "1")
	b.EndElement()
	if _, err := b.Done(); err == nil {
		t.Fatal("attribute after content must fail")
	}

	b = NewBuilder("bad4.xml")
	b.StartElement("e")
	b.Attr("a", "1")
	b.Attr("a", "2")
	b.EndElement()
	if _, err := b.Done(); err == nil {
		t.Fatal("duplicate attribute must fail")
	}
}

func TestDeepDocument(t *testing.T) {
	b := NewBuilder("deep.xml")
	const depth = 500
	for i := 0; i < depth; i++ {
		b.StartElement("d")
	}
	b.Text("bottom")
	for i := 0; i < depth; i++ {
		b.EndElement()
	}
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := depthOf(d, int32(depth)); got != depth {
		t.Fatalf("depth = %d", got)
	}
	if !strings.Contains(d.XMLString(0), "bottom") {
		t.Fatal("serialization lost the leaf")
	}
}

func TestDictBasics(t *testing.T) {
	dict := NewDict()
	a := dict.Intern("alpha")
	b := dict.Intern("beta")
	if a == b {
		t.Fatal("distinct names share an id")
	}
	if dict.Intern("alpha") != a {
		t.Fatal("re-intern changed id")
	}
	if dict.Name(a) != "alpha" || dict.Len() != 2 {
		t.Fatal("dict lookup broken")
	}
	if _, ok := dict.Lookup("gamma"); ok {
		t.Fatal("unknown name found")
	}
}

// TestFragmentRootInContainer: every node of a container's fragments finds
// its fragment's document node, which has no parent and no siblings (the next
// fragment is not one); each fragment's subtree ends where the next begins,
// and the container validates. A loaded document is one tree rooted at 0. A
// fragment started with an element open fails the build.
func TestFragmentRootInContainer(t *testing.T) {
	b := NewContainer(4, 0, 0) // outgrown: columns grow past the estimate
	var roots []int32
	for f := 0; f < 4; f++ {
		roots = append(roots, b.StartFragment())
		for e := 0; e < f; e++ { // fragment f nests f elements
			b.StartElement("e")
			b.Attr("f", strconv.Itoa(f))
			b.Text("t")
		}
		for e := 0; e < f; e++ {
			b.EndElement()
		}
	}
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for f, r := range roots {
		end := int32(d.NumNodes())
		if f+1 < len(roots) {
			end = roots[f+1]
		}
		if d.Kind(r) != DocumentNode || d.Parent(r) != -1 || d.NextSibling(r) != -1 || r+d.Size(r)+1 != end {
			t.Fatalf("fragment %d at %d: kind %v parent %d next sibling %d size %d, next fragment at %d",
				f, r, d.Kind(r), d.Parent(r), d.NextSibling(r), d.Size(r), end)
		}
		for p := r; p < end; p++ {
			if d.FragmentRoot(p) != r {
				t.Fatalf("node %d: fragment root %d, want %d", p, d.FragmentRoot(p), r)
			}
		}
		if got, want := d.XMLString(r), strings.Repeat(`<e f="`+strconv.Itoa(f)+`">t`, f)+strings.Repeat("</e>", f); got != want {
			t.Fatalf("fragment %d: %s, want %s", f, got, want)
		}
	}
	loaded := buildSample(t)
	for p := int32(0); p < int32(loaded.NumNodes()); p++ {
		if loaded.FragmentRoot(p) != 0 {
			t.Fatalf("loaded node %d: fragment root %d", p, loaded.FragmentRoot(p))
		}
	}
	b = NewContainer(0, 0, 0)
	b.StartFragment()
	b.StartElement("open")
	b.StartFragment()
	if _, err := b.Done(); err == nil || !strings.Contains(err.Error(), "open") {
		t.Fatalf("fragment started inside an open element: error %v", err)
	}
}
