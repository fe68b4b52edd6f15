package tree_test

import (
	"fmt"
	"strings"
	"testing"

	"soxq/internal/tree"
	"soxq/internal/xmark"
	"soxq/internal/xmlparse"
)

// slackDocs are the loaded shapes the slack contract is checked on: the
// streaming benchmarks' scene corpus, a stand-off XMark document, a
// text-heavy document with references, CRLF line ends, a comment and a
// CDATA section, and one whose text is full of '=' and "&lt;" (which no
// attribute or tag may be counted from).
func slackDocs(t *testing.T) map[string][]byte {
	t.Helper()
	var scenes strings.Builder
	scenes.WriteString("<doc>")
	for s := 0; s < 2000; s++ {
		base := s * 100
		fmt.Fprintf(&scenes, `<scene id="s%d" start="%d" end="%d"/>`, s, base, base+99)
		for h := 0; h < 60; h++ {
			fmt.Fprintf(&scenes, `<hit start="%d" end="%d"/>`, base+h, base+h+1)
		}
	}
	scenes.WriteString("</doc>")

	raw, err := xmark.GenerateBytes(xmark.Config{Scale: 0.01, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := xmlparse.Parse("plain.xml", raw)
	if err != nil {
		t.Fatal(err)
	}
	so, err := xmark.StandOffize(plain, xmark.DefaultStandOffConfig())
	if err != nil {
		t.Fatal(err)
	}

	var text strings.Builder
	text.WriteString("<?xml version=\"1.0\"?>\r\n<!-- notes & drafts -->\r\n<book>\r\n")
	for i := 0; i < 800; i++ {
		fmt.Fprintf(&text, "<p n=\"%d\" title=\"Tom &amp; Jerry\">Tom &amp; Jerry said &quot;caf&#233;&quot; &lt;twice&gt;,\r\n"+
			"then left the room for the %dth time &#x1F600;<![CDATA[ <raw> & ]]> and came back.</p>\r\n", i, i)
	}
	text.WriteString("</book>\r\n")

	var eq strings.Builder
	eq.WriteString("<eq>")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&eq, "<l>a = b &lt; c == %d &lt;= e = f</l>\n", i)
	}
	eq.WriteString("</eq>")

	return map[string][]byte{
		"scene corpus": []byte(scenes.String()), "stand-off XMark": so.XML,
		"text with references and CRLF": []byte(text.String()), "text with = and &lt;": []byte(eq.String()),
	}
}

// TestLoadedColumnsHoldTheWriteQuarter pins what a load leaves resident: every
// column of a parsed document has room for its rows plus the quarter
// annotation writes extend in place (tree.Builder.Reserve), and for no more
// than a size class's rounding beyond; and one annotation insert, as
// InsertAnnotation makes it, lands in that quarter, so every column of the
// new snapshot is still the loaded one's array.
func TestLoadedColumnsHoldTheWriteQuarter(t *testing.T) {
	const rounding = 8 << 10 // bytes: the allocator's page for a large object
	for name, data := range slackDocs(t) {
		d, err := xmlparse.Parse(name, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loaded := tree.Columns(d)
		for _, c := range loaded {
			if over := (c.Cap - c.Len - c.Len/4) * c.Size; over < 0 || over > rounding {
				t.Errorf("%s: column %s holds %d rows in %d: %d bytes beside the write quarter", name, c.Name, c.Len, c.Cap, over)
			}
		}
		a, err := tree.NewAppender(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a.StartElement("hit")
		a.Attr("start", "12")
		a.Attr("end", "34")
		a.EndElement()
		d2, err := a.Commit()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, c := range tree.Columns(d2) {
			if c.Data != loaded[i].Data && loaded[i].Len > 0 { // an empty column has nothing to copy
				t.Errorf("%s: the insert copied column %s (%d rows, capacity %d at load)", name, c.Name, loaded[i].Len, loaded[i].Cap)
			}
		}
	}
}
