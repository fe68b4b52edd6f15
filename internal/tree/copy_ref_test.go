package tree

// The deep copy the node constructors used before Builder.CopySubtree — one
// event, one name string and one value string per node, by recursion — kept
// verbatim (it lived in internal/xqeval as copyNode) as the oracle of
// TestCopySubtreeAgainstReference.

import (
	"math/rand"
	"testing"
)

func copyNodeRef(fb *Builder, d *Doc, pre int32) {
	switch d.Kind(pre) {
	case DocumentNode:
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			copyNodeRef(fb, d, c)
		}
	case ElementNode:
		fb.StartElement(d.NodeName(pre))
		lo, hi := d.Attrs(pre)
		for a := lo; a < hi; a++ {
			fb.Attr(d.AttrName(a), d.AttrValue(a))
		}
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			copyNodeRef(fb, d, c)
		}
		fb.EndElement()
	case TextNode:
		fb.Text(d.Value(pre))
	case CommentNode:
		fb.Comment(d.Value(pre))
	case PINode:
		fb.PI(d.NodeName(pre), d.Value(pre))
	}
}

// sameTree reports the first difference between two documents, column by
// column (names and values compared as strings: the dictionaries differ).
func sameTree(t *testing.T, got, want *Doc) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("copy does not validate: %v", err)
	}
	if got.NumNodes() != want.NumNodes() || got.NumAttrs() != want.NumAttrs() {
		t.Fatalf("copy has %d nodes %d attrs, reference %d and %d\n%s\n%s",
			got.NumNodes(), got.NumAttrs(), want.NumNodes(), want.NumAttrs(), got.XMLString(0), want.XMLString(0))
	}
	for pre := int32(0); pre < int32(want.NumNodes()); pre++ {
		if got.Kind(pre) != want.Kind(pre) || got.NodeName(pre) != want.NodeName(pre) ||
			got.Size(pre) != want.Size(pre) || got.Level(pre) != want.Level(pre) ||
			got.Parent(pre) != want.Parent(pre) || got.Value(pre) != want.Value(pre) {
			t.Fatalf("node %d differs: %v %q size %d level %d parent %d %q, reference %v %q size %d level %d parent %d %q",
				pre, got.Kind(pre), got.NodeName(pre), got.Size(pre), got.Level(pre), got.Parent(pre), got.Value(pre),
				want.Kind(pre), want.NodeName(pre), want.Size(pre), want.Level(pre), want.Parent(pre), want.Value(pre))
		}
		glo, ghi := got.Attrs(pre)
		wlo, whi := want.Attrs(pre)
		if glo != wlo || ghi != whi {
			t.Fatalf("node %d: attribute rows [%d,%d), reference [%d,%d)", pre, glo, ghi, wlo, whi)
		}
	}
	for a := int32(0); a < int32(want.NumAttrs()); a++ {
		if got.AttrOwner(a) != want.AttrOwner(a) || got.AttrName(a) != want.AttrName(a) || got.AttrValue(a) != want.AttrValue(a) {
			t.Fatalf("attribute %d differs: %d %s=%q, reference %d %s=%q", a,
				got.AttrOwner(a), got.AttrName(a), got.AttrValue(a), want.AttrOwner(a), want.AttrName(a), want.AttrValue(a))
		}
	}
	if g, w := string(got.AppendXML(nil, 0)), string(want.AppendXML(nil, 0)); g != w {
		t.Fatalf("AppendXML differs:\n%s\n%s", g, w)
	}
}

// clipped reports whether every column of a slab-built fragment has no spare
// capacity (an append to it must not run into the next fragment).
func clipped(d *Doc) bool {
	return cap(d.kind) == len(d.kind) && cap(d.name) == len(d.name) && cap(d.size) == len(d.size) &&
		cap(d.level) == len(d.level) && cap(d.parent) == len(d.parent) && cap(d.valOff) == len(d.valOff) &&
		cap(d.valLen) == len(d.valLen) && cap(d.attOwner) == len(d.attOwner) && cap(d.attName) == len(d.attName) &&
		cap(d.attValOf) == len(d.attValOf) && cap(d.attValLn) == len(d.attValLn) &&
		cap(d.attFirst) == len(d.attFirst) && cap(d.content) == len(d.content)
}

// TestCopySubtreeAgainstReference builds fragments — literal text, copied
// nodes of every kind (document node included), text again, so that text
// merges across a copied text node — twice: through copyNodeRef into
// fragment builders of their own, and through CopySubtree into fragments of
// one slab. Sources are pristine documents, Appender snapshots and a
// snapshot with a tombstoned subtree; slabs are sized right, far too small
// (every fragment outgrows its share) and for the first fragments only.
func TestCopySubtreeAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	kinds := map[Kind]bool{}
	for iter := 0; iter < 200; iter++ {
		b := NewBuilder("src.xml")
		if r.Intn(2) == 0 {
			b.Comment("lead")
		}
		b.StartElement("root")
		serialSubtree(r, b, b.StartElement, b.PI, 1+r.Intn(40))
		b.EndElement()
		d, err := b.Done()
		if err != nil {
			t.Fatal(err)
		}
		sources := []*Doc{d}
		a, err := NewAppender(d)
		if err != nil {
			t.Fatal(err)
		}
		serialSubtree(r, a, func(name string) { a.StartElement(name) }, nil, 1+r.Intn(10))
		if d, err = a.Commit(); err != nil {
			t.Fatal(err)
		}
		sources = append(sources, d)
		if kids := d.Children(d.RootElement()); len(kids) > 0 {
			if d, err = d.WithTombstones([]int32{kids[r.Intn(len(kids))]}); err != nil {
				t.Fatal(err)
			}
			sources = append(sources, d)
		}

		// The plan: per fragment, the (source, pre) nodes to copy and whether
		// literal text goes between them.
		type item struct {
			src  *Doc
			pre  int32
			text bool
		}
		frags := make([][]item, 1+r.Intn(6))
		nodes, attrs, content := 0, 0, 0
		for f := range frags {
			for n := r.Intn(5); n > 0; n-- {
				src := sources[r.Intn(len(sources))]
				pre := int32(r.Intn(src.NumNodes()))
				if !src.Alive(pre) {
					continue
				}
				kinds[src.Kind(pre)] = true
				frags[f] = append(frags[f], item{src, pre, r.Intn(2) == 0})
				sn, sa, sc := src.SubtreeExtent(pre)
				nodes, attrs, content = nodes+sn+1, attrs+sa, content+sc+1
			}
		}
		build := func(fb *Builder, items []item, copyNode func(*Builder, *Doc, int32)) *Doc {
			fb.StartElement("f")
			fb.Attr("n", "1")
			for _, it := range items {
				if it.text {
					fb.Text("t")
				}
				copyNode(fb, it.src, it.pre)
			}
			fb.Text("end")
			fb.EndElement()
			doc, err := fb.Done()
			if err != nil {
				t.Fatal(err)
			}
			return doc
		}
		want := make([]*Doc, len(frags))
		for f, items := range frags {
			want[f] = build(NewFragmentBuilder(), items, copyNodeRef)
		}
		perFrag := 3 // document node, <f>, "end"
		for _, slab := range []*FragmentSlab{
			NewFragmentSlab(len(frags), nodes+perFrag*len(frags), attrs+len(frags), content+4*len(frags)),
			NewFragmentSlab(0, 1, 0, 2),
			NewFragmentSlab(1, nodes/2+perFrag, attrs/2+1, content/2+4),
		} {
			got := make([]*Doc, len(frags))
			for f, items := range frags {
				got[f] = build(slab.NewFragment(), items, (*Builder).CopySubtree)
			}
			for f := range frags { // after all are built: no fragment wrote into another
				sameTree(t, got[f], want[f])
				if !got[f].Fragment || !clipped(got[f]) {
					t.Fatalf("iter %d fragment %d: Fragment=%v clipped=%v", iter, f, got[f].Fragment, clipped(got[f]))
				}
				if f > 0 && (got[f].OrderKey() <= got[f-1].OrderKey() || got[f].Dict() != got[0].Dict()) {
					t.Fatalf("iter %d fragment %d: order rank or dictionary not as a slab's", iter, f)
				}
			}
		}
	}
	for k := DocumentNode; k <= PINode; k++ {
		if !kinds[k] {
			t.Errorf("generator never copied a %v node", k)
		}
	}
}

// TestCopySubtreeMergesText: a copied text node merges with the text before
// and after it, also when it is the only child of a copied document node.
func TestCopySubtreeMergesText(t *testing.T) {
	sb := NewFragmentBuilder()
	sb.StartElement("s")
	sb.Text("mid")
	sb.EndElement()
	src, err := sb.Done()
	if err != nil {
		t.Fatal(err)
	}
	tb := NewFragmentBuilder() // a fragment whose document node holds one text node
	tb.Text("doc")
	textDoc, err := tb.Done()
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFragmentSlab(1, 8, 0, 32).NewFragment()
	fb.StartElement("r")
	fb.Text("a-")
	fb.CopySubtree(src, 2)
	fb.Text("-")
	fb.CopySubtree(textDoc, 0)
	fb.Text("-z")
	fb.EndElement()
	doc, err := fb.Done()
	if err != nil {
		t.Fatal(err)
	}
	if doc.NumNodes() != 3 || doc.Value(2) != "a-mid-doc-z" {
		t.Fatalf("got %d nodes, %s", doc.NumNodes(), doc.XMLString(0))
	}
}
