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
// double-quoted attribute value. A value holding no escapable character is
// copied verbatim; one that does is decoded rune by rune, so an invalid UTF-8
// byte in it becomes U+FFFD (xmlparse does not validate UTF-8) — a quirk
// serialised output has always had and keeps byte for byte.
func appendEscaped(dst, s []byte, attr bool) []byte {
	first := 0
	for first < len(s) && xmlEscape(s[first], attr) == "" {
		first++
	}
	if first == len(s) {
		return append(dst, s...)
	}
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
