package xmlparse

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"soxq/internal/tree"
	"soxq/internal/xmark"
)

// sameParse holds the byte parser to the reference on one input: the same
// accept/reject decision, the same SyntaxError position and message, and on
// acceptance the same tree. It returns the tree (nil on a rejected input).
func sameParse(t testing.TB, data []byte, opts Options) *tree.Doc {
	t.Helper()
	got, gerr := ParseWithOptions("diff.xml", data, opts)
	want, werr := refParse("diff.xml", data, opts)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("accept/reject differs on %q (%+v):\n new %v\n ref %v", clip(data), opts, gerr, werr)
	}
	if gerr != nil {
		gs, gok := gerr.(*SyntaxError)
		ws, wok := werr.(*SyntaxError)
		if gok != wok || (gok && *gs != *ws) || (!gok && gerr.Error() != werr.Error()) {
			t.Fatalf("errors differ on %q (%+v):\n new %v\n ref %v", clip(data), opts, gerr, werr)
		}
		return nil
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate on %q: %v", clip(data), err)
	}
	if diff := treeDiff(got, want); diff != "" {
		t.Fatalf("trees differ on %q (%+v): %s", clip(data), opts, diff)
	}
	return got
}

func clip(data []byte) string {
	if len(data) > 300 {
		return string(data[:300]) + "…"
	}
	return string(data)
}

// treeDiff compares two documents node by node and attribute by attribute,
// then as serialised bytes; "" means equal.
func treeDiff(a, b *tree.Doc) string {
	if a.NumNodes() != b.NumNodes() || a.NumAttrs() != b.NumAttrs() || a.Dict().Len() != b.Dict().Len() {
		return fmt.Sprintf("nodes %d/%d, attrs %d/%d, names %d/%d",
			a.NumNodes(), b.NumNodes(), a.NumAttrs(), b.NumAttrs(), a.Dict().Len(), b.Dict().Len())
	}
	for id := int32(0); id < int32(a.Dict().Len()); id++ {
		if a.Dict().Name(id) != b.Dict().Name(id) {
			return fmt.Sprintf("name id %d: %q vs %q", id, a.Dict().Name(id), b.Dict().Name(id))
		}
	}
	for pre := int32(0); pre < int32(a.NumNodes()); pre++ {
		if a.Kind(pre) != b.Kind(pre) || a.NameID(pre) != b.NameID(pre) || a.Size(pre) != b.Size(pre) ||
			a.Level(pre) != b.Level(pre) || a.Parent(pre) != b.Parent(pre) ||
			!bytes.Equal(a.ValueBytes(pre), b.ValueBytes(pre)) {
			return fmt.Sprintf("node %d: %v %q size %d level %d parent %d %q vs %v %q size %d level %d parent %d %q",
				pre, a.Kind(pre), a.NodeName(pre), a.Size(pre), a.Level(pre), a.Parent(pre), a.ValueBytes(pre),
				b.Kind(pre), b.NodeName(pre), b.Size(pre), b.Level(pre), b.Parent(pre), b.ValueBytes(pre))
		}
		alo, ahi := a.Attrs(pre)
		if blo, bhi := b.Attrs(pre); alo != blo || ahi != bhi {
			return fmt.Sprintf("node %d: attribute rows [%d,%d) vs [%d,%d)", pre, alo, ahi, blo, bhi)
		}
	}
	for i := int32(0); i < int32(a.NumAttrs()); i++ {
		if a.AttrOwner(i) != b.AttrOwner(i) || a.AttrNameID(i) != b.AttrNameID(i) ||
			!bytes.Equal(a.AttrValueBytes(i), b.AttrValueBytes(i)) {
			return fmt.Sprintf("attribute %d: %d %s=%q vs %d %s=%q", i,
				a.AttrOwner(i), a.AttrName(i), a.AttrValueBytes(i), b.AttrOwner(i), b.AttrName(i), b.AttrValueBytes(i))
		}
	}
	if !bytes.Equal(a.AppendXML(nil, 0), b.AppendXML(nil, 0)) {
		return "AppendXML bytes differ"
	}
	return ""
}

// bothOpts runs sameParse with and without DropWhitespaceText.
func bothOpts(t testing.TB, data []byte) {
	t.Helper()
	sameParse(t, data, Options{})
	sameParse(t, data, Options{DropWhitespaceText: true})
}

// sceneXML is the stand-off benchmark shape: scenes tiling the position range,
// each followed by hits inside it.
func sceneXML(scenes, hits int) []byte {
	b := []byte("<doc>")
	for s := 0; s < scenes; s++ {
		base := int64(s) * 100
		b = append(b, `<scene id="s`...)
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, `" start="`...)
		b = strconv.AppendInt(b, base, 10)
		b = append(b, `" end="`...)
		b = strconv.AppendInt(b, base+99, 10)
		b = append(b, `"/>`...)
		for h := 0; h < hits; h++ {
			b = append(b, `<hit start="`...)
			b = strconv.AppendInt(b, base+int64(h), 10)
			b = append(b, `" end="`...)
			b = strconv.AppendInt(b, base+int64(h)+1, 10)
			b = append(b, `"/>`...)
		}
	}
	return append(b, "</doc>"...)
}

// TestParseAgainstReferenceDocuments is arm (a) of the differential: the
// documents the benchmarks load — XMark, its stand-off form, a scene document.
func TestParseAgainstReferenceDocuments(t *testing.T) {
	plain, err := xmark.GenerateBytes(xmark.Config{Scale: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bothOpts(t, plain)
	cfg := xmark.DefaultStandOffConfig()
	cfg.Seed = 7
	so, err := xmark.StandOffize(sameParse(t, plain, Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bothOpts(t, so.XML)
	bothOpts(t, sceneXML(50, 60))
}

// diffInputs are the hand-written inputs of the package's other tests plus
// the shapes those leave out (declaration and DOCTYPE forms, references at
// value edges, end-of-line and whitespace handling, positions after newlines).
func diffInputs() []string {
	return []string{
		// TestParseErrors.
		``, `<!-- only a comment -->`, `<a><b></b>`, `<a></b>`, `<a/><b/>`, `<a/>junk`, `</a>`,
		`<a x="1" x="2"/>`, `<a x=1/>`, `<a x="<"/>`, `<a>&nope;</a>`, `<a>&#xZZ;</a>`, `<a>&#0;</a>`,
		`<a><!-- x</a>`, `<a><!-- a -- b --></a>`, `<a><![CDATA[x</a>`, `<![CDATA[x]]><a/>`, `<a><?pi x</a>`,
		`<a><?xMl data?></a>`, `<a`, `<1a/>`, `<a>x]]>y</a>`, `<a/><!DOCTYPE a>`,
		// TestErrorPositions and the accepting tests.
		"<a>\n<b>\n</c>\n</a>",
		`<a x="1"><b>hi</b><c/></a>`, `<a x="1" y="2"/>`, `<a>pre<b>mid</b>post</a>`,
		`<root><!--comment--><?target data?></root>`, `<ns:a ns:b="v"><x.y-z/></ns:a>`,
		`<a>&amp;&lt;&gt;&quot;&apos;</a>`,
		"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE site [ <!ELEMENT site ANY> ]>\n<site><x/></site>",
		`<a><![CDATA[1 < 2 & "x" ]]>tail</a>`, `<a b="&#65;&#x42;c">&#x263A;</a>`, "<a b=\"x\ty\nz\"/>",
		"<a>l1\r\nl2\rl3</a>", "<a>\n  <b>x</b>\n  <c/>\n</a>", `<a b='it"s'/>`,
		// Beyond them.
		`<?xml?><a/>`, `<?xml`, `<?xmlx?><a/>`, `<?xml version="1.0"?>`, ` <?xml version="1.0"?><a/>`,
		`<!DOCTYPE a [ <!ENTITY x "]>"> ]><a/>`, `<!DOCTYPE a`, `<!DOCTYP a><a/>`, `<!-><a/>`, `<a><!></a>`,
		`<a x = "1"  y	=
'2' />`, `<a x="1"y="2"/>`, `<a x="1" x>`, `<a x="1" x/>`, `<a x y="1"/>`, `<a x="1`, `<a x="&lt;" y='&#x3C;'/>`,
		`<a x="a&#13;&#10;b	c&#9;d"/>`, "<a x=\"l1\r\nl2\rl3\n\"/>", `<a x="&amp"/>`, `<a x="&;"/>`, `<a x="&#;"/>`,
		`<a x="&#x;"/>`, `<a x="&#x110000;"/>`, `<a x="&#xD800;"/>`, `<a x="&#1114111;"/>`, `<a x="&#99999999999999999999;"/>`,
		`<a>&#32;</a>`, `<a> &#32;	</a>`, `<a>&#13;</a>`, `<a>x&#13;&#10;y</a>`, `<a>&#13;
</a>`, "<a>\r\r\n\n\r</a>",
		"&#32;<a/>", " \n<a/>\n ", "<a/>&#32;", "<a/>&amp;", "x<a/>", "<a/>\n<!--c-->\n<?p d?>\n", "<!--c--><a/><!--d-->",
		`<a>]]></a>`, `<a>]]</a>`, `<a>]>]]x]]>]</a>`, `<a>></a>`, `<a><![CDATA[]]></a>`, `<a><![CDATA[]]>]]></a>`,
		`<a>x<![CDATA[y]]>z<![CDATA[w]]></a>`, `<a> <![CDATA[ ]]> </a>`, `<a><b/><![CDATA[x]]></a>`, `<a><![CDATA[x]]><b/>y</a>`,
		`<a><!----></a>`, `<a><!---></a>`, `<a><!-- - --></a>`, `<a><?p?></a>`, `<a><?p   d ?></a>`, `<a><? p?></a>`, `<a><?XML?></a>`,
		`<a></a >`, `<a></a x>`, `<a></ a>`, `<a/ >`, `<a /b>`, `< a/>`, `<a><</a>`, `<a>&</a>`, `<`, `<!`, `<?`, `</`, `<a/><`,
		"<a>\n\n  <b x=\"\n\">\n</b>\n  &bad;\n</a>", "<a>\n<b>\nx]]>", "<é ü='ö'>ß</é>", "<a>\xff\xfe</a>", "<a\x00/>",
		`<a:b:c _x="1" x-1.2="2"/>`, `<-a/>`, `<a -x="1"/>`, `<a><b><c><d/></c></b></a><e/>`, `<a><b></a></b>`,
	}
}

// TestParseAgainstReferenceInputs is arm (b): every hand-written input and the
// random documents of TestAgainstEncodingXML, each also cut at every byte.
func TestParseAgainstReferenceInputs(t *testing.T) {
	inputs := diffInputs()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		inputs = append(inputs, randomDoc(rng))
	}
	for _, src := range inputs {
		for cut := 0; cut <= len(src); cut++ {
			bothOpts(t, []byte(src[:cut]))
		}
	}
}

// hostileDoc is arm (c): a seeded generator mixing every construct the parser
// knows, well-formed most of the time and then damaged by a few byte edits.
func hostileDoc(rng *rand.Rand) []byte {
	var sb strings.Builder
	pick := func(s ...string) string { return s[rng.Intn(len(s))] }
	space := func() string { return pick("", "", " ", "\n", "\t", "\r\n", "  ") }
	chars := func() {
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			sb.WriteString(pick("x", "hello world", " ", "\n", "\r\n", "\r", "\t", "&amp;", "&lt;", "&gt;", "&quot;", "&apos;",
				"&#65;", "&#x263A;", "&#13;", "&#32;", "&#10;", "]]", "]", ">", "é☺", "a=b", "/", "&bogus;", "&#xD800;"))
		}
	}
	names := []string{"a", "b", "cc", "ns:d", "e-f", "g.h", "_i", "scene", "hit"}
	var emit func(depth int)
	emit = func(depth int) {
		name := pick(names...)
		sb.WriteString("<" + name)
		for i, n := 0, rng.Intn(4); i < n; i++ {
			q := pick(`"`, `"`, `'`)
			sb.WriteString(pick(" ", " ", "\n", "  ", "") + pick("start", "end", "id", "x:y", "at"+strconv.Itoa(i)) + space() + "=" + space() + q)
			for j, m := 0, rng.Intn(3); j < m; j++ {
				sb.WriteString(pick("v", "12", " ", "\t", "\n", "\r\n", "&amp;", "&#x41;", "&#9;", "'", `"`, ">", "&lt;", "<", "é"))
			}
			sb.WriteString(q)
		}
		sb.WriteString(space())
		if depth > 4 || rng.Intn(4) == 0 {
			sb.WriteString("/>")
			return
		}
		sb.WriteString(">")
		for i, n := 0, rng.Intn(5); i < n; i++ {
			switch rng.Intn(8) {
			case 0, 1:
				chars()
			case 2:
				sb.WriteString(pick(" ", "\n  ", "\r\n", "\t"))
			case 3:
				sb.WriteString("<![CDATA[" + pick("", "x", "<&>", "]]", " ", "\r\n") + "]]>")
			case 4:
				sb.WriteString("<!--" + pick("", " c ", "-", "a-b", "<x>", "--") + "-->")
			case 5:
				sb.WriteString("<?" + pick("p", "xml-x", "Xml", "t") + pick("", " ", "  d ", " a?b") + "?>")
			default:
				emit(depth + 1)
			}
		}
		sb.WriteString("</" + pick(name, name, name, name, name, "a") + space() + ">")
	}
	sb.WriteString(pick("", "", `<?xml version="1.0"?>`, "<?xml version='1.0' encoding='UTF-8'?>\n", " "))
	sb.WriteString(pick("", "", "<!DOCTYPE a>", "<!DOCTYPE a [ <!ELEMENT a ANY> ]>\n", "<!-- head -->\n", "\n"))
	emit(0)
	sb.WriteString(pick("", "", "\n", "<!-- tail -->", "<?p?>", " x", "<a/>"))
	doc := []byte(sb.String())
	for edits := rng.Intn(3) * rng.Intn(2); edits > 0 && len(doc) > 0; edits-- {
		i := rng.Intn(len(doc))
		switch rng.Intn(3) {
		case 0:
			doc = append(doc[:i], doc[i+1:]...)
		case 1:
			doc[i] = "<>&;\"'/=! ]-?x\n"[rng.Intn(15)]
		default:
			doc = doc[:i]
		}
	}
	return doc
}

func TestParseAgainstReferenceGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	accepted := 0
	for i := 0; i < 4000; i++ {
		doc := hostileDoc(rng)
		if sameParse(t, doc, Options{}) != nil {
			accepted++
		}
		sameParse(t, doc, Options{DropWhitespaceText: true})
	}
	if accepted < 400 || accepted > 3600 {
		t.Fatalf("generator lost its balance: %d of 4000 documents accepted", accepted)
	}
}

// FuzzParse is the native fuzz target over the same oracle: on any bytes the
// parser neither panics nor hangs, and it agrees with the reference parser on
// the decision, the error position and message, and the tree.
func FuzzParse(f *testing.F) {
	for _, src := range diffInputs() {
		f.Add([]byte(src))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		f.Add(hostileDoc(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bothOpts(t, data)
	})
}
