package tree

import (
	"math/rand"
	"reflect"
	"testing"
)

// attrRecorder forwards a serialSubtree event stream and records, per element
// in document order, the attributes written to it.
type attrRecorder struct {
	serialEvents
	want [][]string // name=value per attribute, one list per element
}

// start wraps an element-opening event so that it opens a record.
func (r *attrRecorder) start(open func(string)) func(string) {
	return func(name string) {
		open(name)
		r.want = append(r.want, nil)
	}
}

func (r *attrRecorder) Attr(name, value string) {
	r.serialEvents.Attr(name, value)
	r.want[len(r.want)-1] = append(r.want[len(r.want)-1], name+"="+value)
}

// elementAttrs reads back the attributes of every live element of d, in
// document order.
func elementAttrs(d *Doc) (out [][]string) {
	for pre := int32(0); pre < int32(d.NumNodes()); pre++ {
		if d.Kind(pre) != ElementNode || !d.Alive(pre) {
			continue
		}
		var kv []string
		for i, hi := d.Attrs(pre); i < hi; i++ {
			kv = append(kv, d.AttrName(i)+"="+d.AttrValue(i))
		}
		out = append(out, kv)
	}
	return out
}

// TestAttributeRowsReadBack drives random event streams — elements with 0–3
// attributes, nested and empty, between text, comments and PIs — through a
// Builder, fragments of one container (sized too small for some of them), an
// Appender's Commit and CopySubtree of the results, and reads every element's
// attributes back through attFirst: exactly those written to it, in order,
// and the document validates.
func TestAttributeRowsReadBack(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	check := func(what string, d *Doc, err error, want [][]string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := elementAttrs(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: attributes\n got %q\nwant %q\n%s", what, got, want, d.XMLString(0))
		}
	}
	for iter := 0; iter < 300; iter++ {
		b := NewBuilder("b.xml")
		rec := &attrRecorder{serialEvents: b}
		rec.start(b.StartElement)("root")
		serialSubtree(r, rec, rec.start(b.StartElement), b.PI, 1+r.Intn(40))
		b.EndElement()
		d, err := b.Done()
		check("Builder", d, err, rec.want)

		a, err := NewAppender(d)
		if err != nil {
			t.Fatal(err)
		}
		arec := &attrRecorder{serialEvents: a, want: append([][]string(nil), rec.want...)}
		serialSubtree(r, arec, arec.start(func(name string) { a.StartElement(name) }), nil, 1+r.Intn(20))
		d2, err := a.Commit()
		check("Appender", d2, err, arec.want)

		fb := NewContainer(r.Intn(60), r.Intn(30), r.Intn(200))
		fb.StartFragment()
		frec := &attrRecorder{serialEvents: fb}
		frec.start(fb.StartElement)("frag")
		serialSubtree(r, frec, frec.start(fb.StartElement), fb.PI, 1+r.Intn(30))
		fb.EndElement()
		want := frec.want
		for _, src := range []struct {
			d    *Doc
			want [][]string
		}{{d, rec.want}, {d2, arec.want}} {
			fb.StartFragment()
			fb.StartElement("copy")
			fb.Attr("of", "src")
			fb.CopySubtree(src.d, 0)
			fb.EndElement()
			want = append(append(want, []string{"of=src"}), src.want...)
		}
		f, err := fb.Done()
		check("container", f, err, want)
	}
}
