package xqeval

import (
	"math/rand"
	"testing"

	"soxq/internal/tree"
	"soxq/internal/xmlparse"
)

// TestFragSizeAgainstPerItem: a constructor's container estimate — content items
// of several documents interleaved with attribute and atomic items, counted
// in batches per run of one document, some runs longer than a batch — is what
// counting every item's subtree node by node gives, for element content and
// for atomized values.
func TestFragSizeAgainstPerItem(t *testing.T) {
	var docs []*tree.Doc
	for _, src := range []string{
		`<a x="1"><b y="22">text<c/></b><!--note--><?pi data?>tail</a>`,
		`<r><s start="1" end="20"><t start="2" end="3">w</t></s><s start="30" end="40"/></r>`,
		`<z q="long attribute value">only text</z>`,
	} {
		d, err := xmlparse.Parse("d.xml", []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	// extent counts a subtree node by node: nodes, attribute rows, bytes of
	// text and attribute values.
	extent := func(d *tree.Doc, pre int32) (nodes, attrs, content int) {
		for p := pre; p <= pre+d.Size(pre); p++ {
			nodes++
			content += len(d.ValueBytes(p))
			for a, hi := d.Attrs(p); a < hi; a++ {
				attrs++
				content += len(d.AttrValueBytes(a))
			}
		}
		return nodes, attrs, content
	}
	r := rand.New(rand.NewSource(48))
	for round := 0; round < 200; round++ {
		var items []Item
		var want, wantValue fragSize
		mixed := r.Intn(2) == 0 // else node items of one document only
		d := docs[r.Intn(len(docs))]
		for n := r.Intn(3 * extentBlock); n > 0; n-- {
			if mixed {
				d = docs[r.Intn(len(docs))]
			}
			switch k := r.Intn(5); {
			case k < 3 || !mixed:
				pre := int32(r.Intn(d.NumNodes()))
				items = append(items, NodeItem(d, pre))
				nodes, attrs, content := extent(d, pre)
				want.nodes, want.attrs, want.content = want.nodes+nodes, want.attrs+attrs, want.content+content
				wantValue.content += content + 1
			case k == 3 && d.NumAttrs() > 0:
				att := int32(r.Intn(d.NumAttrs()))
				items = append(items, AttrItem(d, 1, att))
				want.attrs++
				want.content += len(d.AttrValueBytes(att))
				wantValue.content += len(d.AttrValueBytes(att)) + 1
			default:
				s := "atom"[:r.Intn(5)]
				items = append(items, Str(s))
				want.nodes++
				want.content += len(s) + 1
				wantValue.content += len(s) + 1
			}
		}
		var got, gotValue fragSize
		got.addContent(items)
		gotValue.addValue(items)
		if got != want || gotValue != wantValue {
			t.Fatalf("round %d: content %+v, want %+v; value %+v, want %+v", round, got, want, gotValue, wantValue)
		}
	}
}
