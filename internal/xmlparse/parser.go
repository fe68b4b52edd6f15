// Package xmlparse implements a from-scratch, non-validating XML parser that
// shreds documents straight into the columnar store of internal/tree. It
// handles elements, attributes (single- or double-quoted), character data,
// CDATA sections, comments, processing instructions, the XML declaration, a
// (skipped) DOCTYPE, and the predefined plus numeric character references.
// Namespace prefixes are kept verbatim as part of the name — the engine
// treats QNames as opaque strings, exactly like the paper's configurable
// "qualified-name" options.
package xmlparse

import (
	"bytes"
	"fmt"
	"os"
	"unicode/utf8"

	"soxq/internal/tree"
)

// Options tunes parsing behaviour.
type Options struct {
	// DropWhitespaceText discards text nodes that consist solely of XML
	// whitespace (space, tab, CR, LF). Useful for pretty-printed documents
	// where indentation is not data.
	DropWhitespaceText bool
}

// SyntaxError describes a well-formedness violation with its position.
type SyntaxError struct {
	Doc  string
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmlparse: %s:%d:%d: %s", e.Doc, e.Line, e.Col, e.Msg)
}

// Parse shreds data into a document named name.
func Parse(name string, data []byte) (*tree.Doc, error) {
	return ParseWithOptions(name, data, Options{})
}

// ParseFile reads and shreds the file at path, using path as document name.
func ParseFile(path string) (*tree.Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// ParseWithOptions shreds data into a document named name using opts. The
// parser works on the input bytes throughout: names are interned and values
// appended to the store straight from data, and the store's columns are sized
// once, from counts over the input, before the first event.
func ParseWithOptions(name string, data []byte, opts Options) (*tree.Doc, error) {
	p := &parser{name: name, data: data, b: tree.NewBuilder(name), opts: opts}
	p.reserve()
	if err := p.run(); err != nil {
		return nil, err
	}
	return p.b.Done()
}

// reserve sizes the store's columns from one hop over the '<' bytes: a node
// other than text begins at a '<' that opens no end tag, a text node ends at
// a '<' that follows no '>', an attribute needs its '=', and content is what
// the input holds beyond three bytes a tag ("<a>") and four an attribute
// (`b=""`). Only '<' or '=' inside values make that estimate low, and then one
// column grows by append. The len(data) caps are what the densest well-formed
// input ("x<a/>") holds: garbage reserves no more than a document could.
func (p *parser) reserve() {
	d, lt, nodes := p.data, 0, 1
	for i := 0; i < len(d); i++ {
		j := bytes.IndexByte(d[i:], '<')
		if j < 0 {
			break
		}
		i += j
		lt++
		if i+1 < len(d) && d[i+1] != '/' {
			nodes++
		}
		if i > 0 && d[i-1] != '>' {
			nodes++
		}
	}
	attrs := min(bytes.Count(d, []byte("=")), len(d)/4)
	p.b.Reserve(min(nodes, len(d)/2+1), attrs, max(len(d)-3*lt-4*attrs, 0))
}

type parser struct {
	name string
	data []byte
	pos  int
	b    *tree.Builder
	opts Options

	depth   int    // open element depth
	sawRoot bool   // a root element has been completed or opened
	buf     []byte // scratch for the values that need decoding
	names   [64]struct {
		name []byte // a slice of data
		id   int32
	}
}

// intern returns the store's id of a name read from the input. A document's
// few hot names are recognised by one comparison with the name last seen in
// their (length, first byte) slot, not by a hash per occurrence.
func (p *parser) intern(name []byte) int32 {
	e := &p.names[(len(name)*31+int(name[0]))&63]
	if string(e.name) != string(name) {
		e.name, e.id = name, p.b.Intern(name)
	}
	return e.id
}

// errf reports a violation at p.pos. Line and column are not tracked while
// parsing; they are counted here, from the input before p.pos.
func (p *parser) errf(format string, args ...any) error {
	before := p.data[:p.pos]
	return &SyntaxError{Doc: p.name, Msg: fmt.Sprintf(format, args...),
		Line: 1 + bytes.Count(before, []byte("\n")), Col: p.pos - bytes.LastIndexByte(before, '\n')}
}

func (p *parser) eof() bool { return p.pos >= len(p.data) }

func (p *parser) rest() []byte { return p.data[p.pos:] }

func (p *parser) hasPrefix(s string) bool { return bytes.HasPrefix(p.rest(), []byte(s)) }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (p *parser) skipSpace() {
	for !p.eof() && isSpace(p.data[p.pos]) {
		p.pos++
	}
}

// isNameStart / isNameChar implement a pragmatic superset of XML name rules
// covering ASCII names plus any multi-byte UTF-8 (accepted verbatim).
func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// IsName reports whether s is a name as the parser reads one: the rule every
// element and attribute name of a parsed document satisfied, and so the rule
// a name written into a document must satisfy for the result to parse back.
func IsName(s string) bool {
	if s == "" || !isNameStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isNameChar(s[i]) {
			return false
		}
	}
	return true
}

// Byte classes of character data and attribute values: one pass over a value
// ORs them together, and the value leaves the append-from-input path only for
// what it contains.
const (
	cLT   uint8 = 1 << iota // '<': ends text, illegal in an attribute value
	cGT                     // '>': may close a "]]>"
	cAmp                    // '&': a reference to decode
	cCR                     // '\r': end-of-line normalisation
	cNorm                   // '\t' '\n' '\r': a space in an attribute value
	cData                   // anything but XML whitespace
)

var class, nameChar = func() (cl [256]uint8, nc [256]bool) {
	for c := range cl {
		cl[c], nc[c] = cData, isNameChar(byte(c))
	}
	cl[' '], cl['\t'], cl['\n'], cl['\r'] = 0, cNorm, cNorm, cNorm|cCR
	cl['<'], cl['>'], cl['&'] = cLT|cData, cGT|cData, cAmp|cData
	return cl, nc
}()

// readName reads the name at p.pos, or returns nil and stays put.
func (p *parser) readName() []byte {
	d, i := p.data, p.pos
	if i >= len(d) || !isNameStart(d[i]) {
		return nil
	}
	for i++; i < len(d) && nameChar[d[i]]; i++ {
	}
	name := d[p.pos:i]
	p.pos = i
	return name
}

func (p *parser) expect(s string) error {
	if !p.hasPrefix(s) {
		return p.errf("expected %q", s)
	}
	p.pos += len(s)
	return nil
}

func (p *parser) run() error {
	// Optional XML declaration.
	if p.hasPrefix("<?xml") && len(p.data) > 5 && (isSpace(p.data[5]) || p.data[5] == '?') {
		end := bytes.Index(p.data, []byte("?>"))
		if end < 0 {
			return p.errf("unterminated XML declaration")
		}
		p.pos = end + 2
	}
	for !p.eof() {
		var err error
		if p.data[p.pos] == '<' {
			err = p.markup()
		} else {
			err = p.text()
		}
		if err != nil {
			return err
		}
	}
	if p.depth != 0 {
		return p.errf("unexpected end of input: %d unclosed element(s), innermost <%s>", p.depth, p.b.OpenName())
	}
	if !p.sawRoot {
		return p.errf("document has no root element")
	}
	return nil
}

func (p *parser) markup() error {
	if p.pos+1 < len(p.data) {
		switch p.data[p.pos+1] {
		case '/':
			return p.endTag()
		case '?':
			return p.pi()
		case '!':
			switch {
			case p.hasPrefix("<!--"):
				return p.comment()
			case p.hasPrefix("<![CDATA["):
				return p.cdata()
			case p.hasPrefix("<!DOCTYPE"):
				return p.doctype()
			}
		}
	}
	return p.startTag()
}

func (p *parser) comment() error {
	p.pos += 4
	idx := bytes.Index(p.rest(), []byte("-->"))
	if idx < 0 {
		return p.errf("unterminated comment")
	}
	body := p.rest()[:idx]
	if bytes.Contains(body, []byte("--")) {
		return p.errf("'--' not allowed inside comment")
	}
	p.b.CommentBytes(body)
	p.pos += idx + 3
	return nil
}

func (p *parser) cdata() error {
	if p.depth == 0 {
		return p.errf("CDATA outside the root element")
	}
	p.pos += 9
	idx := bytes.Index(p.rest(), []byte("]]>"))
	if idx < 0 {
		return p.errf("unterminated CDATA section")
	}
	p.b.TextBytes(p.rest()[:idx])
	p.pos += idx + 3
	return nil
}

// doctype skips over an (optionally bracketed) document type declaration.
func (p *parser) doctype() error {
	if p.sawRoot {
		return p.errf("DOCTYPE after root element")
	}
	bracket := 0
	for p.pos += len("<!DOCTYPE"); !p.eof(); p.pos++ {
		switch p.data[p.pos] {
		case '[':
			bracket++
		case ']':
			bracket--
		case '>':
			if bracket == 0 {
				p.pos++
				return nil
			}
		}
	}
	return p.errf("unterminated DOCTYPE")
}

func (p *parser) pi() error {
	p.pos += 2
	target := p.readName()
	if target == nil {
		return p.errf("expected processing-instruction target")
	}
	if bytes.EqualFold(target, []byte("xml")) {
		return p.errf("reserved PI target %q", target)
	}
	idx := bytes.Index(p.rest(), []byte("?>"))
	if idx < 0 {
		return p.errf("unterminated processing instruction")
	}
	p.b.PIID(p.intern(target), bytes.TrimLeft(p.rest()[:idx], " \t\r\n"))
	p.pos += idx + 2
	return nil
}

func (p *parser) startTag() error {
	p.pos++ // '<'
	name := p.readName()
	if name == nil {
		return p.errf("malformed start tag")
	}
	if p.depth == 0 {
		if p.sawRoot {
			return p.errf("multiple root elements: second root <%s>", name)
		}
		p.sawRoot = true
	}
	p.b.StartElementID(p.intern(name))
	p.depth++

	for {
		p.skipSpace()
		if p.eof() {
			return p.errf("unterminated start tag <%s>", name)
		}
		switch p.data[p.pos] {
		case '>':
			p.pos++
			return nil
		case '/':
			if err := p.expect("/>"); err != nil {
				return err
			}
			p.b.EndElement()
			p.depth--
			return nil
		}
		attName := p.readName()
		if attName == nil {
			return p.errf("malformed attribute in <%s>", name)
		}
		// The attribute rows the builder holds for this element are the names
		// seen so far in the tag.
		attID := p.intern(attName)
		if p.b.HasAttr(attID) {
			return p.errf("duplicate attribute %q in <%s>", attName, name)
		}
		p.skipSpace()
		if err := p.expect("="); err != nil {
			return err
		}
		p.skipSpace()
		val, err := p.attValue()
		if err != nil {
			return err
		}
		p.b.AttrID(attID, val)
	}
}

// attValue reads a quoted attribute value. The result is a slice of the
// input, or of p.buf when the value needed decoding.
func (p *parser) attValue() ([]byte, error) {
	d := p.data
	if p.eof() || (d[p.pos] != '"' && d[p.pos] != '\'') {
		return nil, p.errf("attribute value must be quoted")
	}
	quote, start, flags := d[p.pos], p.pos+1, uint8(0)
	i := start
	for ; i < len(d) && d[i] != quote; i++ {
		flags |= class[d[i]]
	}
	raw := d[start:i]
	if flags&cLT != 0 {
		p.pos = start + bytes.IndexByte(raw, '<')
		return nil, p.errf("'<' not allowed in attribute value")
	}
	if p.pos = i; p.eof() {
		return nil, p.errf("unterminated attribute value")
	}
	p.pos++
	if flags&(cAmp|cNorm) == 0 {
		return raw, nil
	}
	return p.decodeEntities(raw, true)
}

func (p *parser) endTag() error {
	p.pos += 2
	name := p.readName()
	if name == nil {
		return p.errf("malformed end tag")
	}
	p.skipSpace()
	if err := p.expect(">"); err != nil {
		return err
	}
	if p.depth == 0 {
		return p.errf("end tag </%s> without open element", name)
	}
	if open := p.b.OpenName(); open != string(name) {
		return p.errf("end tag </%s> does not match <%s>", name, open)
	}
	p.b.EndElement()
	p.depth--
	return nil
}

func (p *parser) text() error {
	d, start, flags := p.data, p.pos, uint8(0)
	i := start
	for ; i < len(d) && d[i] != '<'; i++ {
		flags |= class[d[i]]
	}
	val := d[start:i]
	p.pos = i
	if flags&cGT != 0 {
		if idx := bytes.Index(val, []byte("]]>")); idx >= 0 {
			p.pos = start + idx + 2
			return p.errf("']]>' not allowed in character data")
		}
	}
	blank := flags&cData == 0
	if flags&cAmp != 0 {
		var err error
		if val, err = p.decodeEntities(val, false); err != nil {
			return err
		}
		blank = len(bytes.TrimLeft(val, " \t\r\n")) == 0
	}
	if p.depth == 0 {
		if !blank {
			return p.errf("character data outside the root element")
		}
		return nil // ignorable whitespace between top-level constructs
	}
	if p.opts.DropWhitespaceText && blank {
		return nil
	}
	if flags&(cCR|cAmp) != 0 {
		val = p.normalizeNewlines(val)
	}
	p.b.TextBytes(val)
	return nil
}

// normalizeNewlines applies XML end-of-line handling: CRLF and lone CR
// become LF. A value that changes is rewritten into p.buf (in place when it
// is p.buf already: the output never overtakes the input).
func (p *parser) normalizeNewlines(s []byte) []byte {
	if bytes.IndexByte(s, '\r') < 0 {
		return s
	}
	out := p.buf[:0]
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\r' {
			c = '\n'
			if i+1 < len(s) && s[i+1] == '\n' {
				i++
			}
		}
		out = append(out, c)
	}
	p.buf = out
	return out
}

var predefined = map[string]byte{"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\''}

// decodeEntities expands the five predefined entities and numeric character
// references of s into p.buf. In attribute values, tabs/newlines are
// normalised to spaces per the XML attribute-value normalisation rules.
func (p *parser) decodeEntities(s []byte, inAttr bool) ([]byte, error) {
	out := p.buf[:0]
	for i := 0; i < len(s); {
		c := s[i]
		if inAttr && (c == '\t' || c == '\n' || c == '\r') {
			out = append(out, ' ')
			if c == '\r' && i+1 < len(s) && s[i+1] == '\n' {
				i++
			}
			i++
			continue
		}
		if c != '&' {
			out = append(out, c)
			i++
			continue
		}
		semi := bytes.IndexByte(s[i:], ';')
		if semi < 0 || semi == 1 {
			return nil, p.errf("malformed entity reference")
		}
		ent := s[i+1 : i+semi]
		if c, ok := predefined[string(ent)]; ok {
			out = append(out, c)
		} else if ent[0] == '#' {
			digits, base := ent[1:], int64(10)
			if len(digits) > 0 && (digits[0] == 'x' || digits[0] == 'X') {
				digits, base = digits[1:], 16
			}
			r, ok := parseCharRef(digits, base)
			if !ok {
				return nil, p.errf("bad character reference &%s;", ent)
			}
			out = utf8.AppendRune(out, r)
		} else {
			return nil, p.errf("unknown entity &%s;", ent)
		}
		i += semi + 1
	}
	p.buf = out
	return out, nil
}

// parseCharRef reads the digits of a character reference; ok is false for no
// digits, a bad digit, and a code point XML does not allow.
func parseCharRef(digits []byte, base int64) (r rune, ok bool) {
	var v int64
	for _, c := range digits {
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, false
		}
		if v = v*base + d; v > 0x10FFFF {
			return 0, false
		}
	}
	return rune(v), len(digits) > 0 && v != 0 && (v < 0xD800 || v > 0xDFFF)
}
