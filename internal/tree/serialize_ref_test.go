package tree

// The token-at-a-time serialiser Doc.AppendXML replaced, and the switch-based
// value escaper the escape tables replaced, kept as the references the
// property tests below compare against. Both write U+FFFD for every invalid
// UTF-8 byte, whatever else the value holds.

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
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
	if !strings.ContainsAny(s, "&<>\r") && utf8.ValidString(s) {
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
	if !strings.ContainsAny(s, "&<>\"\t\n\r") && utf8.ValidString(s) {
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
// byte, 0xff, a truncated two-byte sequence. Invalid bytes are drawn into
// values with and without an escapable character, many times per run.
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

// refAppendEscaped is the switch-driven value escaper appendEscaped's
// tables replaced, without its fast path: every byte goes through the
// switch, and every non-ASCII byte is decoded.
func refAppendEscaped(dst, s []byte, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); {
		esc, n := xmlEscape(s[i], attr), 1
		if s[i] >= utf8.RuneSelf {
			var r rune
			if r, n = utf8.DecodeRune(s[i:]); r == utf8.RuneError && n == 1 {
				esc = "\uFFFD"
			}
		}
		if esc != "" {
			dst = append(dst, s[last:i]...)
			dst = append(dst, esc...)
			last = i + n
		}
		i += n
	}
	return append(dst, s[last:]...)
}

// xmlEscape returns the replacement for byte b in element content (& < > and
// CR) or, with attr, in a double-quoted attribute value (also " TAB LF); ""
// means b stands for itself.
func xmlEscape(b byte, attr bool) string {
	switch b {
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	case '\r':
		return "&#13;"
	}
	if attr {
		switch b {
		case '"':
			return "&quot;"
		case '\t':
			return "&#9;"
		case '\n':
			return "&#10;"
		}
	}
	return ""
}

// TestAppendEscapedAgainstReference: the table-driven escaper writes exactly
// the reference's bytes, in text and attribute mode, for every single byte,
// every byte between two plain ones and after an escapable one, and random
// byte strings drawn heavily from escapable, multi-byte and invalid UTF-8
// bytes — onto a non-empty dst.
func TestAppendEscapedAgainstReference(t *testing.T) {
	check := func(s []byte) {
		t.Helper()
		for attr, e := range []*escaper{&textEsc, &attrEsc} {
			want := refAppendEscaped([]byte("p"), s, attr == 1)
			if got := appendEscaped([]byte("p"), s, e); string(got) != string(want) {
				t.Fatalf("appendEscaped(%q, attr=%v) = %q, reference %q", s, attr == 1, got, want)
			}
		}
	}
	for b := 0; b < 256; b++ {
		check([]byte{byte(b)})
		check([]byte{'a', byte(b), 'z'})
		check([]byte{'&', byte(b)})
		// The first byte that is not plain at the start, in the middle and
		// at the end of a plain run.
		check(append([]byte{byte(b)}, "plain run"...))
		check(append(append([]byte("plain"), byte(b)), " run"...))
		check(append([]byte("plain run"), byte(b)))
	}
	r := rand.New(rand.NewSource(1))
	alphabet := []byte("&<>\"\t\n\r 'az\x7f\x80\xbf\xc3\xa9\xe2\x82\xac\xed\xa0\xf0\x9f\xff")
	for iter := 0; iter < 20000; iter++ {
		s := make([]byte, r.Intn(24))
		for i := range s {
			if r.Intn(4) == 0 {
				s[i] = byte(r.Intn(256))
			} else {
				s[i] = alphabet[r.Intn(len(alphabet))]
			}
		}
		check(s)
	}
}

// TestAppendEscapedPlainTables pins every escaper's plain table, which lets
// appendEscaped copy a value's leading run by byte loads alone: a byte is
// plain exactly when it is ASCII and stands for itself. Every escaper of
// both forms is among those checked.
func TestAppendEscapedPlainTables(t *testing.T) {
	for i, e := range escapers {
		for b := range 256 {
			if want := e.esc[b] == "" && b < utf8.RuneSelf; e.plain[b] != want {
				t.Errorf("escaper %d: plain[%#x] = %v, want %v (escape %q)", i, b, e.plain[b], want, e.esc[b])
			}
		}
	}
	for _, f := range []*form{&xmlForm, &jsonForm} {
		for _, e := range []*escaper{f.text, f.attr, f.raw} {
			if !slices.Contains(escapers, e) {
				t.Errorf("an escaper of a form is missing from escapers")
			}
		}
	}
}

// TestAppendXMLInvalidUTF8 pins the one rule for invalid UTF-8 on fixed
// inputs: each invalid byte becomes U+FFFD in text and attribute values alike,
// with or without an escapable character beside it, while valid multi-byte
// characters (an encoded U+FFFD among them) pass through unchanged.
func TestAppendXMLInvalidUTF8(t *testing.T) {
	b := NewBuilder("utf8.xml")
	b.StartElement("r")
	b.Attr("plain", "a\xffb")
	b.Attr("esc", "a\xffb\"\xc3")
	b.Attr("valid", "\u00e9\uFFFD\u20ac")
	b.Text("x\x80y")
	b.StartElement("e")
	b.EndElement()
	b.Text("\xff<\xe2\x82")
	b.EndElement()
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	const want = "<r plain=\"a\uFFFDb\" esc=\"a\uFFFDb&quot;\uFFFD\" valid=\"\u00e9\uFFFD\u20ac\">" +
		"x\uFFFDy<e/>\uFFFD&lt;\uFFFD\uFFFD</r>"
	got := d.XMLString(0)
	if got != want {
		t.Fatalf("XMLString = %q, want %q", got, want)
	}
	if !utf8.ValidString(got) {
		t.Fatalf("XMLString = %q is not valid UTF-8", got)
	}
	if ref := refXMLString(d, 0); ref != want {
		t.Fatalf("reference = %q, want %q", ref, want)
	}
}
