package tree

// The Builder this package shipped before the byte-slice load path, kept
// verbatim (refBuilder) as the oracle of TestBuilderAgainstReference: one
// hand-written body per event over string arguments, columns grown by append.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refBuilder assembles a Doc from a stream of document-order events, the way a
// shredder feeds the store. The sequence must be well nested:
//
//	b := tree.newRefBuilder("example.xml")
//	b.StartElement("site")
//	b.Attr("id", "s1")
//	b.Text("hello")
//	b.EndElement()
//	doc, err := b.Done()
//
// Attr calls must directly follow the StartElement (or another Attr) they
// belong to.
type refBuilder struct {
	doc      *Doc
	open     []int32 // stack of pre values of open elements
	inTag    bool    // attributes still allowed
	err      error
	finished bool
}

// newRefBuilder starts a fresh document with the given name. The document node
// (pre 0) is created implicitly.
func newRefBuilder(name string) *refBuilder {
	d := &Doc{Name: name, dict: NewDict()}
	b := &refBuilder{doc: d}
	pre := b.pushNode(DocumentNode, NoName, nil)
	b.open = append(b.open, pre) // the document node stays open until Done
	return b
}

func (b *refBuilder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("tree: "+format, args...)
	}
}

func (b *refBuilder) pushNode(k Kind, nameID int32, value []byte) int32 {
	d := b.doc
	pre := int32(len(d.kind))
	d.kind = append(d.kind, k)
	d.name = append(d.name, nameID)
	d.size = append(d.size, 0)
	d.level = append(d.level, int16(len(b.open)))
	if len(b.open) == 0 {
		d.parent = append(d.parent, -1) // only the document node itself
	} else {
		d.parent = append(d.parent, b.open[len(b.open)-1])
	}
	if value != nil {
		d.valOff = append(d.valOff, int64(len(d.content)))
		d.valLen = append(d.valLen, int32(len(value)))
		d.content = append(d.content, value...)
	} else {
		d.valOff = append(d.valOff, 0)
		d.valLen = append(d.valLen, 0)
	}
	return pre
}

// StartElement opens an element node.
func (b *refBuilder) StartElement(name string) {
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
	pre := b.pushNode(ElementNode, b.doc.dict.Intern(name), nil)
	b.open = append(b.open, pre)
	b.inTag = true
}

// Attr attaches an attribute to the most recently opened element.
func (b *refBuilder) Attr(name, value string) {
	if b.err != nil {
		return
	}
	if !b.inTag || len(b.open) <= 1 {
		b.fail("Attr(%q) outside an open tag", name)
		return
	}
	d := b.doc
	owner := b.open[len(b.open)-1]
	nameID := d.dict.Intern(name)
	lo := d.refAttFirstRow(owner)
	for i := lo; i < int32(len(d.attOwner)); i++ {
		if d.attName[i] == nameID {
			b.fail("duplicate attribute %q on element %q", name, d.NodeName(owner))
			return
		}
	}
	d.attOwner = append(d.attOwner, owner)
	d.attName = append(d.attName, nameID)
	d.attValOf = append(d.attValOf, int64(len(d.content)))
	d.attValLn = append(d.attValLn, int32(len(value)))
	d.content = append(d.content, value...)
}

// refAttFirstRow returns the first attribute row of owner while the doc is
// still under construction (attFirst is not built yet).
func (d *Doc) refAttFirstRow(owner int32) int32 {
	i := int32(len(d.attOwner))
	for i > 0 && d.attOwner[i-1] == owner {
		i--
	}
	return i
}

// Text appends a text node. Empty text is dropped silently (the data model
// has no empty text nodes); adjacent Text calls are merged.
func (b *refBuilder) Text(value string) {
	if b.err != nil || value == "" {
		return
	}
	if b.finished {
		b.fail("Text after Done")
		return
	}
	d := b.doc
	// Merge with a directly preceding text sibling.
	if n := len(d.kind); n > 0 && d.kind[n-1] == TextNode && !b.inTag &&
		d.parent[n-1] == b.currentParent() {
		d.content = append(d.content, value...)
		d.valLen[n-1] += int32(len(value))
		return
	}
	b.pushNode(TextNode, NoName, []byte(value))
	b.inTag = false
}

func (b *refBuilder) currentParent() int32 {
	return b.open[len(b.open)-1]
}

// Comment appends a comment node.
func (b *refBuilder) Comment(value string) {
	if b.err != nil {
		return
	}
	b.pushNode(CommentNode, NoName, []byte(value))
	b.inTag = false
}

// PI appends a processing-instruction node with the given target and data.
func (b *refBuilder) PI(target, data string) {
	if b.err != nil {
		return
	}
	b.pushNode(PINode, b.doc.dict.Intern(target), []byte(data))
	b.inTag = false
}

// EndElement closes the innermost open element and fixes its subtree size.
func (b *refBuilder) EndElement() {
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

// Done seals and returns the document. The builder must not be reused.
func (b *refBuilder) Done() (*Doc, error) {
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
	d.attFirst = make([]int32, n+1)
	row := int32(0)
	for pre := 0; pre <= n; pre++ {
		for row < int32(len(d.attOwner)) && int(d.attOwner[row]) < pre {
			row++
		}
		d.attFirst[pre] = row
	}
	return d, nil
}

// builderEvents is what Builder and refBuilder share; the byte form of the
// new builder is driven through bytesEvents below.
type builderEvents interface {
	StartElement(name string)
	Attr(name, value string)
	Text(value string)
	Comment(value string)
	PI(target, data string)
	EndElement()
	Done() (*Doc, error)
}

// bytesEvents feeds a Builder the way the shredder does: names interned from
// bytes, values handed over as slices of one reused buffer.
type bytesEvents struct {
	*Builder
	buf []byte
}

func (e *bytesEvents) val(s string) []byte {
	e.buf = append(e.buf[:0], s...)
	return e.buf
}

func (e *bytesEvents) StartElement(name string) { e.StartElementID(e.Intern([]byte(name))) }
func (e *bytesEvents) Attr(name, value string)  { e.AttrID(e.Intern([]byte(name)), e.val(value)) }
func (e *bytesEvents) Text(value string)        { e.TextBytes(e.val(value)) }
func (e *bytesEvents) Comment(value string)     { e.CommentBytes(e.val(value)) }
func (e *bytesEvents) PI(target, data string)   { e.PIID(e.Intern([]byte(target)), e.val(data)) }

// replay drives one builder with the event stream ops encodes. Streams are
// mostly well nested; a few ops misplace an event on purpose (an attribute
// outside a tag, a duplicate, an end without a start, an element left open).
func replay(b builderEvents, ops []byte) (*Doc, error) {
	names := []string{"a", "b", "scene", "hit", "ns:x"}
	vals := []string{"", "v", "12", "hello world", "é☺", "a<b&c"}
	depth := 0
	for i, op := range ops {
		arg := int(op / 16)
		switch op % 16 {
		case 0, 1, 2, 3:
			b.StartElement(names[arg%len(names)])
			depth++
			for k := 0; k < arg%3; k++ {
				b.Attr([]string{"start", "end", "id"}[k], vals[(arg+k)%len(vals)])
			}
		case 4, 5, 6:
			if depth > 0 {
				b.EndElement()
				depth--
			}
		case 7, 8, 9:
			b.Text(vals[arg%len(vals)])
		case 10:
			b.Comment(vals[arg%len(vals)])
		case 11:
			b.PI(names[arg%len(names)], vals[arg%len(vals)])
		case 12:
			b.Attr("start", vals[arg%len(vals)]) // often misplaced, often a duplicate
		case 13:
			if i%5 == 0 {
				b.EndElement() // possibly without a start
				depth = max(depth-1, 0)
			}
		case 14:
			if i%7 == 0 {
				return b.Done() // possibly with elements open
			}
		}
	}
	for ; depth > 0; depth-- {
		b.EndElement()
	}
	return b.Done()
}

// TestBuilderAgainstReference: over random event streams, the builder's
// string events and its byte events each produce what the old builder did —
// the same error, or the same columns. valOff is compared through ValueBytes:
// an element now records where the arena stood instead of 0, over no bytes.
func TestBuilderAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	failed := 0
	for round := 0; round < 3000; round++ {
		ops := make([]byte, 1+rng.Intn(60))
		rng.Read(ops)
		want, werr := replay(newRefBuilder("d"), ops)
		sized := NewBuilder("d")
		sized.Reserve(rng.Intn(40), rng.Intn(20), rng.Intn(200))
		for form, b := range map[string]builderEvents{"string": NewBuilder("d"), "bytes": &bytesEvents{Builder: sized}} {
			got, gerr := replay(b, ops)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("round %d (%s events): error %v, reference %v", round, form, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("round %d (%s events): %v", round, form, err)
			}
			for _, col := range [][2]any{
				{got.kind, want.kind}, {got.name, want.name}, {got.size, want.size}, {got.level, want.level},
				{got.parent, want.parent}, {got.valLen, want.valLen}, {got.attOwner, want.attOwner},
				{got.attName, want.attName}, {got.attValOf, want.attValOf}, {got.attValLn, want.attValLn},
				{got.attFirst, want.attFirst}, {got.content, want.content}, {got.dict.names, want.dict.names},
			} {
				if empty := reflect.ValueOf(col[0]).Len()+reflect.ValueOf(col[1]).Len() == 0; !empty && !reflect.DeepEqual(col[0], col[1]) {
					t.Fatalf("round %d (%s events): column differs\n got %v\nwant %v", round, form, col[0], col[1])
				}
			}
			for pre := range got.kind {
				if !bytes.Equal(got.ValueBytes(int32(pre)), want.ValueBytes(int32(pre))) {
					t.Fatalf("round %d (%s events): value of node %d differs", round, form, pre)
				}
			}
		}
		if werr != nil {
			failed++
		}
	}
	if failed < 300 || failed > 2700 {
		t.Fatalf("generator lost its balance: %d of 3000 streams rejected", failed)
	}
}
