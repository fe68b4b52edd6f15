package tree

import "unicode/utf8"

// AppendXML appends node pre (and its subtree) as XML text to dst and returns
// the extended slice; it is the package's one serialiser. For the document
// node all children are written in order; attributes are emitted in stored
// order. Text content and attribute values are escaped so that the output
// re-parses to an identical tree.
func (d *Doc) AppendXML(dst []byte, pre int32) []byte {
	switch d.kind[pre] {
	case DocumentNode:
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			dst = d.AppendXML(dst, c)
		}
	case ElementNode:
		name := d.NodeName(pre)
		dst = append(dst, '<')
		dst = append(dst, name...)
		for i, hi := d.Attrs(pre); i < hi; i++ {
			dst = d.AppendAttrXML(append(dst, ' '), i)
		}
		if d.Size(pre) == 0 {
			return append(dst, "/>"...)
		}
		dst = append(dst, '>')
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			dst = d.AppendXML(dst, c)
		}
		dst = append(dst, "</"...)
		dst = append(dst, name...)
		dst = append(dst, '>')
	case TextNode:
		dst = appendEscaped(dst, d.ValueBytes(pre), false)
	case CommentNode:
		dst = append(dst, "<!--"...)
		dst = append(dst, d.ValueBytes(pre)...)
		dst = append(dst, "-->"...)
	case PINode:
		dst = append(dst, "<?"...)
		dst = append(dst, d.NodeName(pre)...)
		if v := d.ValueBytes(pre); len(v) > 0 {
			dst = append(dst, ' ')
			dst = append(dst, v...)
		}
		dst = append(dst, "?>"...)
	}
	return dst
}

// AppendAttrXML appends attribute row i as name="value", the value escaped
// for a double-quoted attribute.
func (d *Doc) AppendAttrXML(dst []byte, i int32) []byte {
	dst = append(dst, d.AttrName(i)...)
	dst = append(dst, '=', '"')
	dst = appendEscaped(dst, d.AttrValueBytes(i), true)
	return append(dst, '"')
}

// XMLString renders node pre (and its subtree) as a string.
func (d *Doc) XMLString(pre int32) string {
	var buf [128]byte // most result rows fit: one allocation, the string
	return string(d.AppendXML(buf[:0], pre))
}

// appendEscaped appends s escaped for element content, or with attr for a
// double-quoted attribute value. Every invalid UTF-8 byte becomes U+FFFD
// (xmlparse does not validate UTF-8), as in encoding/xml.EscapeText, so the
// output is always well-formed. A plain ASCII value is copied verbatim after
// one table lookup per byte; from the first escapable or non-ASCII byte on,
// the value is decoded rune by rune.
func appendEscaped(dst, s []byte, attr bool) []byte {
	escapes := &textEscapes
	if attr {
		escapes = &attrEscapes
	}
	first := 0
	for first < len(s) && escapes[s[first]] == "" {
		first++
	}
	if first == len(s) {
		return append(dst, s...)
	}
	last := 0
	for i := first; i < len(s); {
		esc, n := escapes[s[i]], 1
		if s[i] >= utf8.RuneSelf {
			if _, size := utf8.DecodeRune(s[i:]); size > 1 {
				esc, n = "", size // a valid sequence stands for itself
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

// textEscapes and attrEscapes hold the replacement of each byte in element
// content (& < > and CR) and in a double-quoted attribute value (also " TAB
// LF); "" means the byte stands for itself. Every byte >= 0x80 maps to U+FFFD,
// its replacement when it does not start a valid UTF-8 sequence.
var (
	textEscapes = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '\r': "&#13;"}
	attrEscapes = [256]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '\r': "&#13;",
		'"': "&quot;", '\t': "&#9;", '\n': "&#10;"}
)

func init() {
	for b := utf8.RuneSelf; b < 256; b++ {
		textEscapes[b], attrEscapes[b] = "\uFFFD", "\uFFFD"
	}
}
