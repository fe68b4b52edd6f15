package tree

import (
	"cmp"
	"unicode/utf8"
)

// The serialiser is one walk over the node columns (appendNode) with two
// output forms: XML text, and in the same pass the JSON string literal of
// exactly those bytes as encoding/json writes it with HTML escaping on. The
// JSON form's markup comes pre-escaped (< as \u003c, > as \u003e, " as \"),
// its values go through tables composed at init as JSON(XML-escape(b)), and
// its comments and PI data through the JSON table. Names are copied verbatim
// unless the dictionary flags one that needs an escape (Dict.jsonEscapes).

// AppendXML appends node pre (and its subtree) as XML text to dst and returns
// the extended slice. For the document node all children are written in
// order; attributes are emitted in stored order. Text content and attribute
// values are escaped so that the output re-parses to an identical tree.
func (d *Doc) AppendXML(dst []byte, pre int32) []byte { return d.appendNode(dst, pre, &xmlForm) }

// AppendXMLJSON appends, in one pass, the JSON string literal encoding/json
// writes (HTML escaping on) for what AppendXML writes for node pre.
func (d *Doc) AppendXMLJSON(dst []byte, pre int32) []byte {
	return append(d.appendNode(append(dst, '"'), pre, &jsonForm), '"')
}

// AppendRows appends the nodes pres, each as prefix, what AppendXML — or,
// with json, AppendXMLJSON — writes for it, and suffix, and returns dst and
// the rows written: it stops after the row that takes dst to limit bytes or
// more. A childless element goes straight to the walk's leaf step.
func (d *Doc) AppendRows(dst []byte, pres []int32, limit int, json bool, prefix, suffix string) ([]byte, int) {
	f := &xmlForm
	if json {
		f = &jsonForm
	}
	for k, pre := range pres {
		if dst = append(dst, prefix...); json {
			dst = append(dst, '"')
		}
		if d.kind[pre] == ElementNode && d.Size(pre) == 0 {
			dst = d.appendTag(dst, pre, f, f.empty)
		} else {
			dst = d.appendNode(dst, pre, f)
		}
		if json {
			dst = append(dst, '"')
		}
		if dst = append(dst, suffix...); len(dst) >= limit {
			return dst, k + 1
		}
	}
	return dst, len(pres)
}

// AppendAttrXML appends attribute row i as name="value", the value escaped
// for a double-quoted attribute.
func (d *Doc) AppendAttrXML(dst []byte, i int32) []byte { return d.appendAttr(dst, i, &xmlForm) }

// AppendAttrXMLJSON is AppendXMLJSON for what AppendAttrXML writes.
func (d *Doc) AppendAttrXMLJSON(dst []byte, i int32) []byte {
	return append(d.appendAttr(append(dst, '"'), i, &jsonForm), '"')
}

// XMLString renders node pre (and its subtree) as a string.
func (d *Doc) XMLString(pre int32) string {
	var buf [128]byte // most result rows fit: one allocation, the string
	return string(d.AppendXML(buf[:0], pre))
}

// AppendJSONString appends s as a JSON string literal, byte for byte what
// encoding/json writes for it with HTML escaping on: \" \\ \b \f \n \r \t,
// \u00XX for the other control characters and for < > &, \u2028 and \u2029,
// and \ufffd for each invalid UTF-8 byte.
func AppendJSONString(dst []byte, s string) []byte {
	return append(appendEscaped(append(dst, '"'), s, &jsonEsc), '"')
}

// appendNode is the serialiser's one walk, writing node pre in form f.
func (d *Doc) appendNode(dst []byte, pre int32, f *form) []byte {
	switch d.kind[pre] {
	case DocumentNode:
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			dst = d.appendNode(dst, c, f)
		}
	case ElementNode:
		if d.Size(pre) == 0 {
			return d.appendTag(dst, pre, f, f.empty) // the leaf step
		}
		dst = d.appendTag(dst, pre, f, f.end)
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			dst = d.appendNode(dst, c, f)
		}
		dst = appendName(append(dst, f.close...), d.NodeName(pre), f, d.dict.jsonEscapes)
		dst = append(dst, f.end...)
	case TextNode:
		dst = appendEscaped(dst, d.ValueBytes(pre), f.text)
	case CommentNode:
		dst = appendEscaped(append(dst, f.comment...), d.ValueBytes(pre), f.raw)
		dst = append(dst, f.commentEnd...)
	case PINode:
		dst = appendName(append(dst, f.pi...), d.NodeName(pre), f, d.dict.jsonEscapes)
		if v := d.ValueBytes(pre); len(v) > 0 {
			dst = appendEscaped(append(dst, ' '), v, f.raw)
		}
		dst = append(dst, f.piEnd...)
	}
	return dst
}

// appendTag writes element pre's name and attributes, closed by end: f.end
// before its children, or f.empty for a childless element (the walk's leaf
// step). Attribute markup is written by constant-size appends per form.
func (d *Doc) appendTag(dst []byte, pre int32, f *form, end string) []byte {
	names, esc := d.dict.names, d.dict.jsonEscapes
	dst = appendName(append(dst, f.open...), names[d.name[pre]], f, esc)
	for i, hi := d.attFirst[pre], d.attFirst[pre+1]; i < hi; i++ {
		dst = appendName(append(dst, ' '), names[d.attName[i]], f, esc)
		if f == &jsonForm {
			dst = append(appendEscaped(append(dst, `=\"`...), d.AttrValueBytes(i), f.attr), `\"`...)
		} else {
			dst = append(appendEscaped(append(dst, `="`...), d.AttrValueBytes(i), f.attr), '"')
		}
	}
	return append(dst, end...)
}

func (d *Doc) appendAttr(dst []byte, i int32, f *form) []byte {
	dst = appendName(dst, d.AttrName(i), f, d.dict.jsonEscapes)
	dst = appendEscaped(append(dst, f.value...), d.AttrValueBytes(i), f.attr)
	return append(dst, f.quote...)
}

// appendName appends name, escaped for f if esc (see Dict.jsonEscapes).
func appendName(dst []byte, name string, f *form, esc bool) []byte {
	if esc {
		return appendEscaped(dst, name, f.raw)
	}
	return append(dst, name...)
}

// form is one output form of the walk: what it writes for each piece of
// markup, and its escapers of text values, attribute values and raw text
// (names, comments, PI data).
type form struct {
	open, close, end, empty, value, quote, comment, commentEnd, pi, piEnd string
	text, attr, raw                                                       *escaper
}

// newForm spells the markup with the given <, > and ".
func newForm(lt, gt, quot string, text, attr, raw *escaper) form {
	return form{lt, lt + "/", gt, "/" + gt, "=" + quot, quot, lt + "!--", "--" + gt, lt + "?", "?" + gt, text, attr, raw}
}

// escaper is one escaping of a string: esc[b] is what byte b is written as,
// "" when it stands for itself. A byte >= 0x80 that starts a valid UTF-8
// sequence stands for itself with the sequence (lineSep escapes U+2028 and
// U+2029, as JSON writers do); esc[b] replaces it when it starts none. plain
// marks the ASCII bytes that stand for themselves.
type escaper struct {
	esc     [256]string
	plain   [256]bool
	lineSep bool
}

// appendEscaped appends s as e writes it. Up to the first byte that is not
// plain it only loads bytes; from there on, a run of bytes that stand for
// themselves costs one table lookup per byte and is copied in one append.
func appendEscaped[S chars](dst []byte, s S, e *escaper) []byte {
	i, last := 0, 0
	for i < len(s) && e.plain[s[i]] {
		i++
	}
	for i < len(s) {
		esc, n := e.esc[s[i]], 1
		if esc == "" {
			i++
			continue
		}
		if s[i] >= utf8.RuneSelf {
			switch r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))])); {
			case size == 1: // invalid: esc replaces the byte
			case e.lineSep && r == 0x2028:
				esc, n = `\u2028`, size
			case e.lineSep && r == 0x2029:
				esc, n = `\u2029`, size
			default:
				esc, n = "", size
			}
		}
		if esc != "" {
			dst = append(append(dst, s[last:i]...), esc...)
			last = i + n
		}
		i += n
	}
	return append(dst, s[last:]...)
}

// The escapers. textEsc and attrEsc escape element content (& < > and CR)
// and a double-quoted attribute value (also " TAB LF) for XML, writing U+FFFD
// for each invalid UTF-8 byte (xmlparse does not validate UTF-8), as
// encoding/xml.EscapeText does, so the output is always well-formed. jsonEsc
// is the one JSON string escaper; textJSON and attrJSON are composed from
// them at init. The XML form writes raw text verbatim (rawXML).
var (
	textEsc = escaper{esc: [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '\r': "&#13;"}}
	attrEsc = escaper{esc: [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '\r': "&#13;",
		'"': "&quot;", '\t': "&#9;", '\n': "&#10;"}}
	jsonEsc = escaper{lineSep: true, esc: [256]string{'"': `\"`, '\\': `\\`,
		'\b': `\b`, '\f': `\f`, '\n': `\n`, '\r': `\r`, '\t': `\t`, '<': `\u003c`, '>': `\u003e`, '&': `\u0026`}}
	textJSON = escaper{lineSep: true}
	attrJSON = escaper{lineSep: true}
	rawXML   escaper
	escapers = []*escaper{&textEsc, &attrEsc, &jsonEsc, &textJSON, &attrJSON, &rawXML}

	xmlForm  = newForm("<", ">", `"`, &textEsc, &attrEsc, &rawXML)
	jsonForm = newForm(`\u003c`, `\u003e`, `\"`, &textJSON, &attrJSON, &jsonEsc)
)

func init() {
	const hex = "0123456789abcdef"
	for b := range 256 {
		switch {
		case b >= utf8.RuneSelf:
			textEsc.esc[b], attrEsc.esc[b], jsonEsc.esc[b] = "\uFFFD", "\uFFFD", `\ufffd`
		case b < ' ' && jsonEsc.esc[b] == "":
			jsonEsc.esc[b] = `\u00` + hex[b>>4:b>>4+1] + hex[b&0xF:b&0xF+1]
		}
	}
	// Byte b as JSON(XML-escape(b)); an invalid byte's U+FFFD is valid UTF-8,
	// which JSON passes through.
	for b := range 256 {
		self := string([]byte{byte(b)})
		for x, c := range map[*escaper]*escaper{&textEsc: &textJSON, &attrEsc: &attrJSON} {
			if j := string(appendEscaped(nil, cmp.Or(x.esc[b], self), &jsonEsc)); j != self {
				c.esc[b] = j
			}
		}
	}
	for _, e := range escapers {
		for b := range utf8.RuneSelf {
			e.plain[b] = e.esc[b] == ""
		}
	}
}
