package tree

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Builder assembles a Doc from a stream of document-order events, the way a
// shredder feeds the store. The sequence must be well nested:
//
//	b := tree.NewBuilder("example.xml")
//	b.StartElement("site")
//	b.Attr("id", "s1")
//	b.Text("hello")
//	b.EndElement()
//	doc, err := b.Done()
//
// Attr calls must directly follow the StartElement (or another Attr) they
// belong to.
type Builder struct {
	doc      *Doc
	open     []int32 // stack of pre values of open elements
	inTag    bool    // attributes still allowed
	err      error
	finished bool

	slab *FragmentSlab // the slab the document is cut from, or nil

	// Name ids of the last document copied from, in this document's
	// dictionary (see CopySubtree): remapIDs[id] is the id here of remapFrom's
	// name id, or -1 while unresolved.
	remapFrom *Dict
	remapIDs  []int32
}

// chars is how an event's value arrives: a string from a node constructor, a
// slice of the input from the shredder. Each event has one body, generic over
// both; names are interned first (Intern) so the bodies see ids only.
type chars interface{ string | []byte }

// NewBuilder starts a fresh document with the given name. The document node
// (pre 0) is created implicitly.
func NewBuilder(name string) *Builder {
	d := &Doc{Name: name, dict: NewDict()}
	b := &Builder{doc: d}
	pre := pushNode(b, DocumentNode, NoName, "")
	b.open = append(b.open, pre) // the document node stays open until Done
	return b
}

// NewFragmentBuilder starts a constructed fragment (node-constructor
// result); identical to NewBuilder but flags the Doc as a fragment.
func NewFragmentBuilder() *Builder {
	b := NewBuilder("")
	b.doc.Fragment = true
	return b
}

// Reserve sizes the columns once for a document of up to nodes nodes and
// attrs attributes holding content bytes of values, so a shredder that can
// bound them from its input never re-grows a column. The row columns get a
// quarter on top, append's own growth step: annotation writes extend a sealed
// document's columns in place (see Appender), and with none to spare the
// first write after a load would copy every column.
func (b *Builder) Reserve(nodes, attrs, content int) {
	d := b.doc
	nodes, attrs = nodes+nodes/4, attrs+attrs/4
	d.kind = slices.Grow(d.kind, nodes)
	d.name = slices.Grow(d.name, nodes)
	d.size = slices.Grow(d.size, nodes)
	d.level = slices.Grow(d.level, nodes)
	d.parent = slices.Grow(d.parent, nodes)
	d.valOff = slices.Grow(d.valOff, nodes)
	d.valLen = slices.Grow(d.valLen, nodes)
	d.attOwner = slices.Grow(d.attOwner, attrs)
	d.attName = slices.Grow(d.attName, attrs)
	d.attValOf = slices.Grow(d.attValOf, attrs)
	d.attValLn = slices.Grow(d.attValLn, attrs)
	d.content = slices.Grow(d.content, content)
}

// Intern returns the document's dictionary id of a name read from the input,
// for the id-taking events below; no string is made for a name seen before.
func (b *Builder) Intern(name []byte) int32 { return intern(b.doc.dict, name) }

// OpenName returns the name of the innermost open element.
func (b *Builder) OpenName() string { return b.doc.NodeName(b.open[len(b.open)-1]) }

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("tree: "+format, args...)
	}
}

func pushNode[S chars](b *Builder, k Kind, nameID int32, value S) int32 {
	d := b.doc
	pre := int32(len(d.kind))
	parent := int32(-1) // only the document node itself
	if len(b.open) > 0 {
		parent = b.open[len(b.open)-1]
	}
	d.kind = append(d.kind, k)
	d.name = append(d.name, nameID)
	d.size = append(d.size, 0)
	d.level = append(d.level, int16(len(b.open)))
	d.parent = append(d.parent, parent)
	d.valOff = append(d.valOff, int64(len(d.content)))
	d.valLen = append(d.valLen, int32(len(value)))
	d.content = append(d.content, value...)
	return pre
}

// StartElement opens an element node.
func (b *Builder) StartElement(name string) { b.StartElementID(b.doc.dict.Intern(name)) }

// StartElementID is StartElement for an interned name.
func (b *Builder) StartElementID(nameID int32) {
	if b.err != nil {
		return
	}
	if b.finished {
		b.fail("StartElement after Done")
		return
	}
	if len(b.doc.kind) >= math.MaxInt32 {
		b.fail("document exceeds 2^31 nodes")
		return
	}
	pre := pushNode(b, ElementNode, nameID, "")
	b.open = append(b.open, pre)
	b.inTag = true
}

// Attr attaches an attribute to the most recently opened element.
func (b *Builder) Attr(name, value string) { attr(b, b.doc.dict.Intern(name), value) }

// AttrID is Attr for an interned name and a value taken from the input.
func (b *Builder) AttrID(nameID int32, value []byte) { attr(b, nameID, value) }

func attr[S chars](b *Builder, nameID int32, value S) {
	if b.err != nil {
		return
	}
	d := b.doc
	if !b.inTag || len(b.open) <= 1 {
		b.fail("Attr(%q) outside an open tag", d.dict.Name(nameID))
		return
	}
	if b.HasAttr(nameID) {
		b.fail("duplicate attribute %q on element %q", d.dict.Name(nameID), b.OpenName())
		return
	}
	d.attOwner = append(d.attOwner, b.open[len(b.open)-1])
	d.attName = append(d.attName, nameID)
	d.attValOf = append(d.attValOf, int64(len(d.content)))
	d.attValLn = append(d.attValLn, int32(len(value)))
	d.content = append(d.content, value...)
}

// HasAttr reports whether the most recently opened element already carries
// an attribute named nameID.
func (b *Builder) HasAttr(nameID int32) bool {
	return b.doc.hasAttr(b.open[len(b.open)-1], nameID)
}

// hasAttr scans owner's attribute rows while the doc is still under
// construction (attFirst is not built yet): they end the attribute table.
func (d *Doc) hasAttr(owner, nameID int32) bool {
	for i := len(d.attOwner) - 1; i >= 0 && d.attOwner[i] == owner; i-- {
		if d.attName[i] == nameID {
			return true
		}
	}
	return false
}

// Text appends a text node. Empty text is dropped silently (the data model
// has no empty text nodes); adjacent Text calls are merged.
func (b *Builder) Text(value string) { text(b, value) }

// TextBytes is Text for a value taken from the input.
func (b *Builder) TextBytes(value []byte) { text(b, value) }

func text[S chars](b *Builder, value S) {
	if b.err != nil || len(value) == 0 {
		return
	}
	if b.finished {
		b.fail("Text after Done")
		return
	}
	d := b.doc
	// Merge with a directly preceding text sibling.
	if n := len(d.kind); n > 0 && d.kind[n-1] == TextNode && !b.inTag &&
		d.parent[n-1] == b.open[len(b.open)-1] {
		d.content = append(d.content, value...)
		d.valLen[n-1] += int32(len(value))
		return
	}
	pushNode(b, TextNode, NoName, value)
	b.inTag = false
}

// Comment appends a comment node.
func (b *Builder) Comment(value string) { leaf(b, CommentNode, NoName, value) }

// CommentBytes is Comment for a value taken from the input.
func (b *Builder) CommentBytes(value []byte) { leaf(b, CommentNode, NoName, value) }

// PI appends a processing-instruction node with the given target and data.
func (b *Builder) PI(target, data string) { leaf(b, PINode, b.doc.dict.Intern(target), data) }

// PIID is PI for an interned target and data taken from the input.
func (b *Builder) PIID(target int32, data []byte) { leaf(b, PINode, target, data) }

// leaf appends a comment or processing-instruction node.
func leaf[S chars](b *Builder, k Kind, nameID int32, value S) {
	if b.err != nil {
		return
	}
	pushNode(b, k, nameID, value)
	b.inTag = false
}

// EndElement closes the innermost open element and fixes its subtree size.
func (b *Builder) EndElement() {
	if b.err != nil {
		return
	}
	if len(b.open) <= 1 { // only the document node is open
		b.fail("EndElement without matching StartElement")
		return
	}
	pre := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	b.doc.size[pre] = int32(len(b.doc.kind)) - pre - 1
	b.inTag = false
}

// ErrUnclosedElement is wrapped by Done when elements remain open.
var ErrUnclosedElement = errors.New("tree: unclosed element at end of document")

// Done seals and returns the document. The builder must not be reused.
func (b *Builder) Done() (*Doc, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.open) != 1 {
		return nil, fmt.Errorf("%w: %q", ErrUnclosedElement, b.doc.NodeName(b.open[len(b.open)-1]))
	}
	b.finished = true
	d := b.doc
	d.order = docOrderCounter.Add(1)
	d.size[0] = int32(len(d.kind)) - 1
	// Build attFirst: attFirst[pre] = first attribute row owned by a node
	// with pre' >= pre. attOwner is ascending because events arrive in
	// document order.
	n := len(d.kind)
	if b.slab != nil {
		b.slab.seal(d)
	}
	if d.attFirst == nil {
		d.attFirst = make([]int32, n+1)
	}
	row := int32(0)
	for pre := 0; pre <= n; pre++ {
		for row < int32(len(d.attOwner)) && int(d.attOwner[row]) < pre {
			row++
		}
		d.attFirst[pre] = row
	}
	return d, nil
}
