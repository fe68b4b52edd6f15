package tree

// The deep copy the node constructors used before Builder.CopySubtree — one
// event, one name string and one value string per node, by recursion — kept
// verbatim (it lived in internal/xqeval as copyNode) as the oracle of
// TestCopySubtreeAgainstReference, and the per-node extent the container was sized
// with, the oracle of TestSubtreesExtentAgainstReference.

import (
	"math/rand"
	"slices"
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

// SubtreeExtent is the per-node count the constructors sized their container with
// before Doc.SubtreesExtent, kept verbatim as its oracle.
func (d *Doc) SubtreeExtent(pre int32) (nodes, attrs, content int) {
	end := pre + d.Size(pre)
	for _, n := range d.valLen[pre : end+1] {
		content += int(n)
	}
	alo, ahi := d.attFirst[pre], d.attFirst[end+1]
	for _, n := range d.attValLn[alo:ahi] {
		content += int(n)
	}
	return int(end-pre) + 1, int(ahi - alo), content
}

// sameTree reports the first difference between the fragment of got headed
// by document node r and the document want, node by node, got's pres shifted
// by r (names and values compared as strings: the dictionaries differ).
func sameTree(t *testing.T, got *Doc, r int32, want *Doc) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("copy does not validate: %v", err)
	}
	if got.Kind(r) != DocumentNode || got.Size(r) != want.Size(0) || got.FragmentRoot(r+got.Size(r)) != r {
		t.Fatalf("fragment at %d has %d nodes, reference %d\n%s\n%s",
			r, got.Size(r)+1, want.NumNodes(), got.XMLString(r), want.XMLString(0))
	}
	for pre := int32(0); pre < int32(want.NumNodes()); pre++ {
		g, gp := r+pre, got.Parent(r+pre)
		if gp >= 0 {
			gp -= r
		}
		if got.Kind(g) != want.Kind(pre) || got.NodeName(g) != want.NodeName(pre) ||
			got.Size(g) != want.Size(pre) || depthOf(got, g) != depthOf(want, pre) ||
			gp != want.Parent(pre) || got.Value(g) != want.Value(pre) {
			t.Fatalf("node %d differs: %v %q size %d depth %d parent %d %q, reference %v %q size %d depth %d parent %d %q",
				pre, got.Kind(g), got.NodeName(g), got.Size(g), depthOf(got, g), gp, got.Value(g),
				want.Kind(pre), want.NodeName(pre), want.Size(pre), depthOf(want, pre), want.Parent(pre), want.Value(pre))
		}
		glo, ghi := got.Attrs(g)
		wlo, whi := want.Attrs(pre)
		if ghi-glo != whi-wlo {
			t.Fatalf("node %d: %d attribute rows, reference %d", pre, ghi-glo, whi-wlo)
		}
		for a := int32(0); a < ghi-glo; a++ {
			if got.AttrName(glo+a) != want.AttrName(wlo+a) || got.AttrValue(glo+a) != want.AttrValue(wlo+a) {
				t.Fatalf("node %d, attribute %d differs: %s=%q, reference %s=%q", pre, a,
					got.AttrName(glo+a), got.AttrValue(glo+a), want.AttrName(wlo+a), want.AttrValue(wlo+a))
			}
		}
	}
	if g, w := string(got.AppendXML(nil, r)), string(want.AppendXML(nil, 0)); g != w {
		t.Fatalf("AppendXML differs:\n%s\n%s", g, w)
	}
}

// TestCopySubtreeAgainstReference builds fragments — literal text, copied
// nodes of every kind (document node included) under zero to two more open
// elements, so that a copy's parents follow from an open depth of two to four,
// text again, so that text merges across a copied text node — twice: through
// copyNodeRef into fragment builders of their own, and through CopySubtree
// into fragments of one container. Sources are pristine documents, Appender
// snapshots, a snapshot with a tombstoned subtree and a container of two
// fragments; containers are sized right, far too small (every fragment
// outgrows its share) and for the first fragments only.
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
		cb := NewContainer(0, 0, 0)
		for f := 0; f < 2; f++ {
			cb.StartFragment()
			cb.StartElement("root")
			serialSubtree(r, cb, cb.StartElement, cb.PI, 1+r.Intn(10))
			cb.EndElement()
		}
		if d, err = cb.Done(); err != nil {
			t.Fatal(err)
		}
		sources = append(sources, d)

		// The plan: per fragment, the (source, pre) nodes to copy and whether
		// literal text goes between them.
		type item struct {
			src  *Doc
			pre  int32
			text bool
			wrap int // elements opened around the copy
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
				it := item{src, pre, r.Intn(2) == 0, r.Intn(3)}
				frags[f] = append(frags[f], it)
				sn, sa, sc := src.SubtreeExtent(pre)
				nodes, attrs, content = nodes+sn+1+it.wrap, attrs+sa, content+sc+1
			}
		}
		build := func(fb *Builder, items []item, copyNode func(*Builder, *Doc, int32)) {
			fb.StartElement("f")
			fb.Attr("n", "1")
			for _, it := range items {
				if it.text {
					fb.Text("t")
				}
				for w := 0; w < it.wrap; w++ {
					fb.StartElement("w")
				}
				copyNode(fb, it.src, it.pre)
				for w := 0; w < it.wrap; w++ {
					fb.EndElement()
				}
			}
			fb.Text("end")
			fb.EndElement()
		}
		want := make([]*Doc, len(frags))
		for f, items := range frags {
			fb := NewFragmentBuilder()
			build(fb, items, copyNodeRef)
			if want[f], err = fb.Done(); err != nil {
				t.Fatal(err)
			}
		}
		perFrag := 3 // document node, <f>, "end"
		for _, fb := range []*Builder{
			NewContainer(nodes+perFrag*len(frags), attrs+len(frags), content+4*len(frags)),
			NewContainer(1, 0, 2),
			NewContainer(nodes/2+perFrag, attrs/2+1, content/2+4),
		} {
			roots := make([]int32, len(frags))
			for f, items := range frags {
				roots[f] = fb.StartFragment()
				build(fb, items, (*Builder).CopySubtree)
			}
			got, err := fb.Done()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Fragment || roots[0] != 0 || got.NumNodes() != int(roots[len(roots)-1]+got.Size(roots[len(roots)-1])+1) {
				t.Fatalf("iter %d: Fragment=%v, fragments at %v of %d nodes", iter, got.Fragment, roots, got.NumNodes())
			}
			for f := range frags {
				sameTree(t, got, roots[f], want[f])
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
	fb := NewContainer(8, 0, 32)
	fb.StartFragment()
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

// TestSubtreesExtentAgainstReference: the batch extent of any set of roots of
// one document — nodes of every kind, repeated, in any order — is the sum of
// SubtreeExtent over them, on a pristine document, an Appender snapshot (its
// document node's and root element's sizes read from sizeHead), a snapshot
// with a tombstoned subtree and a fragment holding copies of them all;
// WarmRoots reads the same roots without a fault. Every batch holds the roots
// at the edges of the columns the two read: the document node, the root
// element, the last node, whose empty attribute value sits at the end of the
// content arena (of the pristine document and of the snapshot), and a node
// without attributes.
func TestSubtreesExtentAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	kinds := map[Kind]bool{}
	emptyAtEnd := 0
	for iter := 0; iter < 100; iter++ {
		b := NewBuilder("src.xml")
		b.Comment("lead")
		b.StartElement("root")
		serialSubtree(r, b, b.StartElement, b.PI, 1+r.Intn(40))
		b.StartElement("tail")
		b.Attr("e", "")
		b.EndElement()
		b.EndElement()
		d, err := b.Done()
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAppender(d)
		if err != nil {
			t.Fatal(err)
		}
		serialSubtree(r, a, func(name string) { a.StartElement(name) }, nil, 1+r.Intn(10))
		a.StartElement("tail")
		a.Attr("e", "")
		a.EndElement()
		snap, err := a.Commit()
		if err != nil {
			t.Fatal(err)
		}
		docs := []*Doc{d, snap}
		if kids := snap.Children(snap.RootElement()); len(kids) > 0 {
			dead, err := snap.WithTombstones([]int32{kids[r.Intn(len(kids))]})
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, dead)
		}
		fb := NewFragmentBuilder()
		fb.StartElement("f")
		for _, src := range docs {
			fb.CopySubtree(src, src.RootElement())
		}
		fb.EndElement()
		frag, err := fb.Done()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, frag)
		for _, src := range docs {
			last := int32(src.NumNodes() - 1)
			roots := []int32{0, src.RootElement(), last}
			for p := int32(0); p <= last; p++ {
				if lo, hi := src.Attrs(p); lo == hi {
					roots = append(roots, p)
					break
				}
			}
			if lo, hi := src.Attrs(last); hi > lo && src.attValLn[hi-1] == 0 && src.attValOf[hi-1] == int64(len(src.content)) {
				emptyAtEnd++
			}
			for n := r.Intn(12); n > 0; n-- {
				roots = append(roots, int32(r.Intn(src.NumNodes())))
			}
			var wn, wa, wc int
			for _, pre := range roots {
				kinds[src.Kind(pre)] = true
				n, a, c := src.SubtreeExtent(pre)
				wn, wa, wc = wn+n, wa+a, wc+c
			}
			src.WarmRoots(roots)
			batch := slices.Clone(roots)
			gn, ga, gc := src.SubtreesExtent(batch, make([]int32, len(batch)+r.Intn(3)))
			if gn != wn || ga != wa || gc != wc {
				t.Fatalf("iter %d roots %v: SubtreesExtent = %d nodes %d attrs %d bytes, per node %d %d %d",
					iter, roots, gn, ga, gc, wn, wa, wc)
			}
		}
	}
	for k := DocumentNode; k <= PINode; k++ {
		if !kinds[k] {
			t.Errorf("generator never counted a %v node", k)
		}
	}
	if emptyAtEnd < 200 {
		t.Errorf("an empty attribute value ended the content arena in %d documents, want at least 200", emptyAtEnd)
	}
}
