package tree

// The token-at-a-time serialiser Doc.AppendXML replaced, kept verbatim as
// the reference the property test below compares against.

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// SerializeNode writes node pre (and its subtree) as XML text. For the
// document node all children are written in order; attributes are emitted in
// stored order. Text content and attribute values are escaped so that the
// output re-parses to an identical tree.
func (d *Doc) SerializeNode(w io.Writer, pre int32) error {
	s := serializer{d: d, w: w}
	s.node(pre)
	return s.err
}

// refXMLString renders node pre through the reference walker.
func refXMLString(d *Doc, pre int32) string {
	var sb strings.Builder
	_ = d.SerializeNode(&sb, pre)
	return sb.String()
}

type serializer struct {
	d   *Doc
	w   io.Writer
	err error
}

func (s *serializer) write(str string) {
	if s.err == nil {
		_, s.err = io.WriteString(s.w, str)
	}
}

func (s *serializer) node(pre int32) {
	d := s.d
	switch d.kind[pre] {
	case DocumentNode:
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			s.node(c)
		}
	case ElementNode:
		name := d.NodeName(pre)
		s.write("<")
		s.write(name)
		lo, hi := d.Attrs(pre)
		for i := lo; i < hi; i++ {
			s.write(" ")
			s.write(d.AttrName(i))
			s.write("=\"")
			s.write(EscapeAttr(d.AttrValue(i)))
			s.write("\"")
		}
		if d.Size(pre) == 0 {
			s.write("/>")
			return
		}
		s.write(">")
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			s.node(c)
		}
		s.write("</")
		s.write(name)
		s.write(">")
	case TextNode:
		s.write(EscapeText(d.Value(pre)))
	case CommentNode:
		s.write("<!--")
		s.write(d.Value(pre))
		s.write("-->")
	case PINode:
		s.write("<?")
		s.write(d.NodeName(pre))
		if v := d.Value(pre); v != "" {
			s.write(" ")
			s.write(v)
		}
		s.write("?>")
	}
}

// EscapeText escapes character data for element content.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "&<>\r") {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '>':
			sb.WriteString("&gt;")
		case '\r':
			sb.WriteString("&#13;")
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// EscapeAttr escapes an attribute value for a double-quoted attribute.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, "&<>\"\t\n\r") {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '>':
			sb.WriteString("&gt;")
		case '"':
			sb.WriteString("&quot;")
		case '\t':
			sb.WriteString("&#9;")
		case '\n':
			sb.WriteString("&#10;")
		case '\r':
			sb.WriteString("&#13;")
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// serialPieces is what the property test's generator assembles values from:
// every character either escaper rewrites, plain ASCII, valid multi-byte
// UTF-8 (an encoded U+FFFD among it) and invalid UTF-8 — a bare continuation
// byte, 0xff, a truncated two-byte sequence. A value drawn without any
// escapable character keeps its invalid bytes verbatim; one drawn with an
// escapable character has them replaced by U+FFFD (the quirk AppendXML
// preserves), so both cases occur many times per run.
var serialPieces = []string{
	"&", "<", ">", "\"", "\t", "\n", "\r", "'", " ", "a", "xyz", "é", "\uFFFD", "€",
	"\x80", "\xff", "\xc3", "plain ascii run",
}

func serialValue(r *rand.Rand, allowEmpty bool) string {
	n := r.Intn(5)
	if n == 0 && !allowEmpty {
		n = 1
	}
	var sb strings.Builder
	for ; n > 0; n-- {
		sb.WriteString(serialPieces[r.Intn(len(serialPieces))])
	}
	return sb.String()
}

// serialEvents is the event sink Builder and Appender share, so one generator
// drives both (Appender has no PI: appended subtrees cover the other kinds).
type serialEvents interface {
	Attr(name, value string)
	Text(value string)
	Comment(value string)
	EndElement()
}

// serialSubtree emits a random balanced run of events below the currently
// open element: nested and empty elements with attributes, text, comments
// and — through pi, when the sink has them — processing instructions with
// and without data.
func serialSubtree(r *rand.Rand, ev serialEvents, start func(string), pi func(target, data string), budget int) {
	depth := 0
	for ; budget > 0; budget-- {
		switch op := r.Intn(10); {
		case op < 4:
			start([]string{"a", "b", "so:c"}[r.Intn(3)])
			depth++
			for k, n := 0, r.Intn(4); k < n; k++ {
				ev.Attr(fmt.Sprintf("k%d", k), serialValue(r, true))
			}
			if r.Intn(3) == 0 { // an empty element
				ev.EndElement()
				depth--
			}
		case op < 6:
			if depth > 0 {
				ev.EndElement()
				depth--
			}
		case op < 8:
			ev.Text(serialValue(r, false))
		case op == 8:
			ev.Comment(serialValue(r, true))
		case pi != nil:
			pi("target", serialValue(r, true))
		}
	}
	for ; depth > 0; depth-- {
		ev.EndElement()
	}
}

// TestAppendXMLMatchesReference: on random documents — pristine, after
// Appender inserts, and after a tombstone delete — AppendXML, XMLString and
// AppendAttrXML produce exactly the reference walker's bytes for every node
// and attribute, and AppendXML preserves a non-empty dst prefix, aliasing
// dst when its capacity allows.
func TestAppendXMLMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	kinds := map[Kind]bool{}
	for iter := 0; iter < 300; iter++ {
		b := NewBuilder("prop.xml")
		if r.Intn(2) == 0 {
			b.Comment(serialValue(r, true)) // a non-element child of the document node
		}
		b.StartElement("root")
		serialSubtree(r, b, b.StartElement, b.PI, 1+r.Intn(40))
		b.EndElement()
		d, err := b.Done()
		if err != nil {
			t.Fatal(err)
		}
		snapshots := []*Doc{d}
		for round := 0; round < 2; round++ {
			a, err := NewAppender(d)
			if err != nil {
				t.Fatal(err)
			}
			serialSubtree(r, a, func(name string) { a.StartElement(name) }, nil, 1+r.Intn(10))
			if d, err = a.Commit(); err != nil {
				t.Fatal(err)
			}
			snapshots = append(snapshots, d)
		}
		if kids := d.Children(d.RootElement()); len(kids) > 0 {
			if d, err = d.WithTombstones([]int32{kids[r.Intn(len(kids))]}); err != nil {
				t.Fatal(err)
			}
			snapshots = append(snapshots, d)
		}
		for _, d := range snapshots {
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			for pre := int32(0); pre < int32(d.NumNodes()); pre++ {
				kinds[d.Kind(pre)] = true
				want := refXMLString(d, pre)
				if got := d.XMLString(pre); got != want {
					t.Fatalf("iter %d node %d: XMLString = %q, reference %q", iter, pre, got, want)
				}
				prefix := append(make([]byte, 0, 16+2*len(want)), "prefix "...)
				got := d.AppendXML(prefix, pre)
				if string(got) != "prefix "+want {
					t.Fatalf("iter %d node %d: AppendXML = %q, want prefix + %q", iter, pre, got, want)
				}
				if &got[0] != &prefix[0] {
					t.Fatalf("iter %d node %d: AppendXML reallocated a dst with room for the result", iter, pre)
				}
				if got := d.AppendXML(nil, pre); string(got) != want {
					t.Fatalf("iter %d node %d: AppendXML(nil) = %q, reference %q", iter, pre, got, want)
				}
			}
			for i := int32(0); i < int32(d.NumAttrs()); i++ {
				want := d.AttrName(i) + `="` + EscapeAttr(d.AttrValue(i)) + `"`
				if got := d.AppendAttrXML([]byte("p"), i); string(got) != "p"+want {
					t.Fatalf("iter %d attr %d: AppendAttrXML = %q, want p + %q", iter, i, got, want)
				}
			}
		}
	}
	for k := DocumentNode; k <= PINode; k++ {
		if !kinds[k] {
			t.Errorf("generator never produced a %v node", k)
		}
	}
}

// TestAppendXMLInvalidUTF8Quirk pins the two halves of the escapers' UTF-8
// behaviour on fixed inputs: verbatim without an escapable character, U+FFFD
// per invalid byte with one.
func TestAppendXMLInvalidUTF8Quirk(t *testing.T) {
	b := NewBuilder("quirk.xml")
	b.StartElement("r")
	b.Attr("plain", "a\xffb")
	b.Attr("esc", "a\xffb\"\xc3")
	b.Text("x\x80y")
	b.StartElement("e")
	b.EndElement()
	b.Text("\xff<\xe2\x82")
	b.EndElement()
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	const want = "<r plain=\"a\xffb\" esc=\"a\uFFFDb&quot;\uFFFD\">x\x80y<e/>\uFFFD&lt;\uFFFD\uFFFD</r>"
	if got := d.XMLString(0); got != want {
		t.Fatalf("XMLString = %q, want %q", got, want)
	}
	if ref := refXMLString(d, 0); ref != want {
		t.Fatalf("reference = %q, want %q", ref, want)
	}
}
