package xmlparse

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"soxq/internal/tree"
)

// held returns what d holds: its nodes, attributes and value bytes.
func held(d *tree.Doc) (nodes, attrs, content int) {
	for pre := int32(0); pre < int32(d.NumNodes()); pre++ {
		content += len(d.ValueBytes(pre))
	}
	for i := int32(0); i < int32(d.NumAttrs()); i++ {
		content += len(d.AttrValueBytes(i))
	}
	return d.NumNodes(), d.NumAttrs(), content
}

// TestReserveCountsWhatTheDocumentHolds pins the load's column estimate: on
// input without references or CRs it is exact, names and markup counting as
// nothing; on any well-formed input it is never low, so no column re-grows
// during a parse.
func TestReserveCountsWhatTheDocumentHolds(t *testing.T) {
	var long, mixed strings.Builder
	long.WriteString("<collection_of_records>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&long, `<person_record identifier="p%d" start_offset="%d" end_offset="%d">`+
			`<name_of_person>Alice</name_of_person><empty_marker_element/></person_record>`, i, 10*i, 10*i+9)
	}
	long.WriteString("</collection_of_records>")
	mixed.WriteString("<m>")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&mixed, "<p\n\tn = '%d' q=\"a > b = c\">lead<!-- note -->x<![CDATA[ <raw> ]]>y<b/>z = w</p>\n", i)
	}
	mixed.WriteString("</m>")
	for _, src := range []string{long.String(), mixed.String(), `<a x="1"><b>hi</b><c/></a>`, `<a><!----></a>`} {
		d := mustParse(t, src)
		n, a, c := reserve([]byte(src))
		if hn, ha, hc := held(d); n != hn || a != ha || c != hc {
			t.Errorf("%.40q: reserve counts %d nodes, %d attributes, %d content bytes; the document holds %d, %d, %d",
				src, n, a, c, hn, ha, hc)
		}
	}
	for _, src := range diffInputs() {
		reserveNotLow(t, []byte(src))
	}
}

// reserveNotLow checks, when src parses, that reserve counts at least what
// the document holds (FuzzParse runs it on every input).
func reserveNotLow(t *testing.T, src []byte) {
	d, err := Parse("x.xml", src)
	if err != nil {
		return
	}
	n, a, c := reserve(src)
	if hn, ha, hc := held(d); n < hn || a < ha || c < hc {
		t.Errorf("%q: reserve counts %d nodes, %d attributes, %d content bytes, below the %d, %d, %d held",
			src, n, a, c, hn, ha, hc)
	}
}

// TestReserveIsLinear runs the estimate over inputs that make an unbounded
// forward search per byte quadratic: markup openers that never close and
// references whose ';' is far away. Each is 4 MB; a linear hop reads it in
// milliseconds, a quadratic one in minutes.
func TestReserveIsLinear(t *testing.T) {
	const n = 4 << 20
	for name, src := range map[string][]byte{
		"ampersands":   append(append([]byte("<a><!--"), bytes.Repeat([]byte("&"), n)...), "-->;</a>"...),
		"comments":     bytes.Repeat([]byte("<!"), n/2),
		"PIs":          bytes.Repeat([]byte("<?"), n/2),
		"CDATA":        bytes.Repeat([]byte("<![CDATA["), n/9),
		"open values":  append([]byte(`<a b="`), bytes.Repeat([]byte("<a b='"), n/6)...),
		"tag openers":  bytes.Repeat([]byte("<a "), n/3),
		"end openers":  bytes.Repeat([]byte("</"), n/2),
		"text and '<'": bytes.Repeat([]byte("x<"), n/2),
	} {
		start := time.Now()
		reserve(src)
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: reserve took %v over %d bytes", name, d, len(src))
		}
	}
}
