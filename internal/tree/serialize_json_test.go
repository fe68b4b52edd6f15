package tree

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// Names, values and raw text the one-pass JSON form must write exactly as
// the XML form followed by encoding/json would. lsep and psep are U+2028 and
// U+2029, which JSON escapes and XML does not; invalid UTF-8 becomes U+FFFD in
// XML-escaped values but a \ufffd escape in names, comments and PI data.
const (
	lsep = "\xe2\x80\xa8"
	psep = "\xe2\x80\xa9"
)

var jsonNames = []string{
	"plain", `q"uote`, `back\slash`, "lt<gt>", "amp&", "tab\tnl\n", "ctl\x01\x1f",
	"caf\xc3\xa9", "\xe5\x90\x8d\xe5\x89\x8d", "bad\xffname", "cut\xe2\x82", "line" + lsep + "sep" + psep,
}

var jsonValues = []string{
	"", "plain", "x & y < z > \"q\" 'a' \\ /", "\r\t\n", "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\xef\xbf\xbd",
	"a\xffb\xc3", "\xe2\x82", "\xed\xa0\x80", lsep + "mid" + psep, "&" + lsep + "\xff<",
	// The first byte to escape at the start, in the middle and at the end of
	// a plain run, for each class of escape.
	"<plain", "pl&ain", "plain>", `"plain`, `pl\ain`, "plain\"", "\tplain", "pl\rain", "plain\n",
	"\x01plain", "pl\x1fain", "\xffplain", "pl\xffain", "plain\xff", lsep + "plain", "plain" + psep,
}

// allASCII holds every byte below 0x80, so each XML-escapable byte, CR, TAB
// and LF among them, meets the composed tables in text and in attributes.
func allASCII() string {
	b := make([]byte, 0x80)
	for i := range b {
		b[i] = byte(i)
	}
	return string(b)
}

// jsonTable builds the documents TestAppendXMLJSONMatchesTwoPasses checks.
// The Builder takes names the parser would reject, so names with quotes,
// controls, invalid UTF-8 and line separators can be interned.
func jsonTable(t *testing.T) map[string]*Doc {
	t.Helper()
	docs := map[string]*Doc{}
	done := func(key string, b *Builder) *Doc {
		d, err := b.Done()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		docs[key] = d
		return d
	}

	// Clean names: the dictionary bit stays clear, names are copied.
	b := NewBuilder("clean.xml")
	b.StartElement("doc")
	for i, v := range append(jsonValues, allASCII()) {
		b.StartElement("hit")
		b.Attr("start", "123410")
		b.Attr("v", v)
		b.Text(v)
		b.EndElement()
		b.Comment(v)
		b.PI("pi", v)
		if i%2 == 0 {
			b.Text(v)
		}
	}
	b.EndElement()
	if d := done("clean", b); d.Dict().jsonEscapes {
		t.Fatal("clean: dictionary flags a name that needs no JSON escape")
	}

	// Names needing escapes in elements, attributes and PI targets.
	b = NewBuilder("names.xml")
	b.StartElement("doc")
	for i, n := range jsonNames {
		b.StartElement(n)
		b.Attr(n, jsonValues[i%len(jsonValues)])
		b.Attr("a", n)
		b.Text(n)
		b.StartElement(n)
		b.EndElement()
		b.EndElement()
		b.PI(n, n)
		b.Comment(n)
	}
	b.EndElement()
	names := done("names", b)
	if !names.Dict().jsonEscapes {
		t.Fatal("names: dictionary does not flag its escaped names")
	}
	// A clean name new to it clones the flagged dictionary: the bit goes too.
	a, err := NewAppender(names)
	if err != nil {
		t.Fatal(err)
	}
	a.StartElement("fresh")
	a.EndElement()
	if docs["names+fresh"], err = a.Commit(); err != nil {
		t.Fatal(err)
	}

	// A comment and a PI beside the root element, under the document node.
	b = NewBuilder("top.xml")
	b.Comment("top" + lsep)
	b.PI("top", "\xff")
	b.StartElement("r")
	b.EndElement()
	done("top", b)

	// Fragments of one container share a dictionary; one of them interns an
	// escaped name, which flags it for every fragment.
	fb := NewContainer(16, 8, 256)
	for i, n := range []string{"f", `f"`, "f\xff"} {
		fb.StartFragment()
		fb.StartElement(n)
		fb.Attr("v", jsonValues[i+2])
		fb.Text(jsonValues[i+5])
		fb.EndElement()
	}
	done("fragments", fb)

	// A mutation snapshot: an Appender interns an escaped name into its
	// copy-on-write dictionary, then the element between two text nodes is
	// tombstoned, leaving them adjacent.
	b = NewBuilder("mut.xml")
	b.StartElement("root")
	b.StartElement("p")
	b.Text("before & ")
	b.StartElement("x")
	b.Text("gone")
	b.EndElement()
	b.Text(" after" + lsep)
	b.EndElement()
	b.EndElement()
	base := done("base", b)
	a, err = NewAppender(base)
	if err != nil {
		t.Fatal(err)
	}
	a.StartElement(`new"<name>` + psep)
	a.Attr(`at"tr`, "v\xff")
	a.Text("t")
	a.EndElement()
	grown, err := a.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if base.Dict().jsonEscapes || !grown.Dict().jsonEscapes {
		t.Fatalf("dictionary bit: base %v, appended %v; want false, true",
			base.Dict().jsonEscapes, grown.Dict().jsonEscapes)
	}
	x := int32(-1)
	for pre := int32(0); pre < int32(grown.NumNodes()); pre++ {
		if grown.Kind(pre) == ElementNode && grown.NodeName(pre) == "x" {
			x = pre
		}
	}
	dead, err := grown.WithTombstones([]int32{x})
	if err != nil {
		t.Fatal(err)
	}
	docs["appended"], docs["tombstoned"] = grown, dead
	return docs
}

// TestAppendXMLJSONMatchesTwoPasses: for every live node and every attribute
// of the table, the one-pass JSON form is json.Marshal of the XML form (HTML
// escaping on), onto an empty and onto a non-empty dst; a whole document
// written into a buffer with room allocates nothing, whatever it escapes.
func TestAppendXMLJSONMatchesTwoPasses(t *testing.T) {
	check := func(what string, xml, oneNil, onePrefix []byte) {
		t.Helper()
		want, err := json.Marshal(string(xml))
		if err != nil {
			t.Fatal(err)
		}
		if string(oneNil) != string(want) {
			t.Fatalf("%s: one pass %s, two passes %s (XML %q)", what, oneNil, want, xml)
		}
		if string(onePrefix) != "p"+string(want) {
			t.Fatalf("%s: onto a prefix %s, want p%s", what, onePrefix, want)
		}
	}
	for key, d := range jsonTable(t) {
		for pre := int32(0); pre < int32(d.NumNodes()); pre++ {
			if !d.Alive(pre) {
				continue
			}
			what := key + " node " + d.Kind(pre).String()
			check(what, d.AppendXML(nil, pre), d.AppendXMLJSON(nil, pre), d.AppendXMLJSON([]byte("p"), pre))
		}
		for i := int32(0); i < int32(d.NumAttrs()); i++ {
			check(key+" attribute", d.AppendAttrXML(nil, i), d.AppendAttrXMLJSON(nil, i), d.AppendAttrXMLJSON([]byte("p"), i))
		}
		buf := d.AppendXMLJSON(nil, 0)
		if n := testing.AllocsPerRun(10, func() { buf = d.AppendXMLJSON(buf[:0], 0) }); n != 0 {
			t.Errorf("%s: %.0f allocations per document", key, n)
		}
	}
}

// TestAppendRowsMatchesPerRow: over the live nodes of every document of the
// JSON table, and of one whose root element was childless until an Appender
// grew it (its size is the snapshot's, not the shared column's), AppendRows
// writes, row for row, prefix + AppendXML or AppendXMLJSON + suffix onto a
// non-empty dst, in runs of one row and of every row from each start, and
// stops after the row that takes dst to the limit: 0, 1, none, and one
// below, at and one above the end of rows at the start, middle and end.
func TestAppendRowsMatchesPerRow(t *testing.T) {
	docs := jsonTable(t)
	b := NewBuilder("leaf.xml")
	b.StartElement("r")
	b.EndElement()
	leaf, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAppender(leaf)
	if err != nil {
		t.Fatal(err)
	}
	a.StartElement("hit")
	a.Attr("start", "1")
	a.EndElement()
	if docs["grown"], err = a.Commit(); err != nil {
		t.Fatal(err)
	}
	if g := docs["grown"]; g.size[1] != 0 || g.Size(1) == 0 {
		t.Fatalf("grown root: shared size %d, snapshot size %d; want 0 and more", g.size[1], g.Size(1))
	}
	for key, d := range docs {
		var pres []int32
		for pre := int32(0); pre < int32(d.NumNodes()); pre++ {
			if d.Alive(pre) {
				pres = append(pres, pre)
			}
		}
		for _, asJSON := range []bool{false, true} {
			prefix, suffix, row := "<row>", "</row>\n", d.AppendXML
			if asJSON {
				prefix, suffix, row = `{"xml":`, "}\n", d.AppendXMLJSON
			}
			rows := make([][]byte, len(pres))
			for i, pre := range pres {
				rows[i] = append(row([]byte(prefix), pre), suffix...)
			}
			for s := range pres {
				want, ends := []byte("p"), []int(nil)
				for _, r := range rows[s:] {
					want = append(want, r...)
					ends = append(ends, len(want))
				}
				limits := []int{0, 1, math.MaxInt}
				for _, j := range []int{0, len(ends) / 2, len(ends) - 1} {
					limits = append(limits, ends[j]-1, ends[j], ends[j]+1)
				}
				for _, run := range [][]int32{pres[s : s+1], pres[s:]} {
					for _, limit := range limits {
						wantK := len(run)
						for j, e := range ends[:len(run)] {
							if e >= limit {
								wantK = j + 1
								break
							}
						}
						got, k := d.AppendRows([]byte("p"), run, limit, asJSON, prefix, suffix)
						if k != wantK || string(got) != string(want[:ends[k-1]]) {
							t.Fatalf("%s json=%v rows %d+%d limit %d: wrote %d rows %q, want %d rows %q",
								key, asJSON, s, len(run), limit, k, got, wantK, want[:ends[wantK-1]])
						}
					}
				}
			}
		}
	}
}

// BenchmarkAppendXMLJSON writes one row of the corpus query's shape as its
// NDJSON string into a reused buffer, as the server does per row: no
// allocation.
func BenchmarkAppendXMLJSON(b *testing.B) {
	bd := NewBuilder("row.xml")
	bd.StartElement("doc")
	bd.StartElement("hit")
	bd.Attr("start", "123410")
	bd.Attr("end", "123415")
	bd.EndElement()
	bd.EndElement()
	d, err := bd.Done()
	if err != nil {
		b.Fatal(err)
	}
	dst := d.AppendXMLJSON(nil, 2)
	b.ReportAllocs()
	for b.Loop() {
		dst = d.AppendXMLJSON(dst[:0], 2)
	}
}

// BenchmarkAppendXMLJSONRows writes one 64-row run of the corpus query's
// rows as NDJSON lines into a reused buffer, as the server does per run: one
// AppendRows call, no allocation.
func BenchmarkAppendXMLJSONRows(b *testing.B) {
	bd := NewBuilder("run.xml")
	bd.StartElement("doc")
	pres := make([]int32, 64)
	for i := range pres {
		bd.StartElement("hit")
		bd.Attr("start", strconv.Itoa(123410+20*i))
		bd.Attr("end", strconv.Itoa(123411+20*i))
		bd.EndElement()
		pres[i] = int32(2 + i)
	}
	bd.EndElement()
	d, err := bd.Done()
	if err != nil {
		b.Fatal(err)
	}
	dst, _ := d.AppendRows(nil, pres, math.MaxInt, true, `{"xml":`, "}\n")
	b.ReportAllocs()
	for b.Loop() {
		dst, _ = d.AppendRows(dst[:0], pres, math.MaxInt, true, `{"xml":`, "}\n")
	}
}
