package xqeval

import (
	"sort"
	"strings"

	"soxq/internal/tree"
	"soxq/internal/xqast"
)

// fragSize totals what the fragments of one constructor evaluation will hold,
// to size the slab they are cut from (tree.FragmentSlab). An estimate that
// errs high wastes some bytes of the slab; one that errs low lets a fragment
// grow off it.
type fragSize struct{ nodes, attrs, content int }

// slab allocates the slab for frags fragments of the size counted so far.
func (z fragSize) slab(frags int) *tree.FragmentSlab {
	return tree.NewFragmentSlab(frags, z.nodes, z.attrs, z.content)
}

// addContent counts items inserted as element content: nodes by deep copy,
// attribute nodes as attributes, atomic values as text.
func (z *fragSize) addContent(items []Item) {
	for _, it := range items {
		switch it.Kind {
		case KNode:
			n, a, c := it.D.SubtreeExtent(it.Pre)
			z.nodes, z.attrs, z.content = z.nodes+n, z.attrs+a, z.content+c
		case KAttr:
			z.attrs++
			z.content += valueLen(it)
		default:
			z.nodes++
			z.content += valueLen(it) + 1 // and the joining space
		}
	}
}

// addValue counts items atomized into attribute or text values.
func (z *fragSize) addValue(items []Item) {
	for _, it := range items {
		z.content += valueLen(it) + 1
	}
}

// valueLen bounds the length of an item's string value from above.
func valueLen(it Item) int {
	switch it.Kind {
	case KNode:
		_, _, c := it.D.SubtreeExtent(it.Pre)
		return c
	case KAttr:
		return len(it.D.AttrValueBytes(it.Att))
	case KString, KUntyped:
		return len(it.S)
	default:
		return 24 // a formatted number or boolean
	}
}

// appendValue appends the string values of items, joined by single spaces —
// the value of an attribute or text constructor (XQuery 3.7.1.1).
func appendValue(dst []byte, items []Item) []byte {
	for k, it := range items {
		if k > 0 {
			dst = append(dst, ' ')
		}
		switch it.Kind {
		case KNode:
			dst = it.D.AppendStringValue(dst, it.Pre)
		case KAttr:
			dst = append(dst, it.D.AttrValueBytes(it.Att)...)
		default:
			dst = append(dst, it.StringValue()...)
		}
	}
	return dst
}

// evalDirectElem evaluates a direct element constructor, producing one new
// element (a fragment document of its own) per iteration.
func (ev *Evaluator) evalDirectElem(v *xqast.DirectElem, f *frame) (LLSeq, error) {
	// Evaluate attribute value templates and content in the current frame.
	type valuePart struct {
		lit string // literal text, used when seq is unset
		seq *LLSeq // evaluated enclosed expression
	}
	size := fragSize{nodes: 2 * f.n, attrs: len(v.Attrs) * f.n} // document node + element
	attrs := make([][]valuePart, len(v.Attrs))
	for ai, a := range v.Attrs {
		for _, part := range a.Value {
			if sl, ok := part.(*xqast.StringLit); ok {
				attrs[ai] = append(attrs[ai], valuePart{lit: sl.V})
				size.content += len(sl.V) * f.n
				continue
			}
			seq, err := ev.eval(part, f)
			if err != nil {
				return LLSeq{}, err
			}
			attrs[ai] = append(attrs[ai], valuePart{seq: &seq})
			size.addValue(seq.Items)
		}
	}
	content := make([]LLSeq, len(v.Content))
	for ci, c := range v.Content {
		seq, err := ev.eval(c, f)
		if err != nil {
			return LLSeq{}, err
		}
		content[ci] = seq
		size.addContent(seq.Items)
	}
	slab := size.slab(f.n)
	elem := slab.Intern(v.Name)
	attrIDs := make([]int32, len(v.Attrs))
	for ai, a := range v.Attrs {
		attrIDs[ai] = slab.Intern(a.Name)
	}
	out := LLSeq{Off: ascOff(f.n), Items: make([]Item, f.n)}
	var val []byte
	for i := 0; i < f.n; i++ {
		fb := slab.NewFragment()
		fb.StartElementID(elem)
		for ai := range v.Attrs {
			val = val[:0]
			for _, part := range attrs[ai] {
				if part.seq == nil {
					val = append(val, part.lit...)
				} else {
					val = appendValue(val, part.seq.Group(i))
				}
			}
			fb.AttrID(attrIDs[ai], val)
		}
		sawContent := false
		prevAtomic := false
		for ci, c := range content {
			_, enclosed := v.Content[ci].(*xqast.Enclosed)
			if err := appendContent(fb, c.Group(i), enclosed, &sawContent, &prevAtomic); err != nil {
				return LLSeq{}, err
			}
		}
		fb.EndElement()
		doc, err := fb.Done()
		if err != nil {
			return LLSeq{}, errf(codeType, "element constructor: %v", err)
		}
		out.Items[i] = NodeItem(doc, 1) // pre 1 is the constructed element
	}
	return out, nil
}

// appendContent copies one evaluated content expression into the builder.
// Nodes are inserted by deep copy; atomic values become text, and adjacent
// atomic values from enclosed expressions are joined with single spaces
// (XQuery 3.7.1.3) — also across adjacent enclosed expressions, hence
// prevAtomic is threaded through consecutive calls. Literal constructor text
// is inserted verbatim and breaks atomic adjacency.
func appendContent(fb *tree.Builder, items []Item, enclosed bool, sawContent, prevAtomic *bool) error {
	for _, it := range items {
		switch it.Kind {
		case KNode:
			fb.CopySubtree(it.D, it.Pre)
			*sawContent = true
			*prevAtomic = false
		case KAttr:
			if *sawContent {
				return errf(codeAttrLate, "attribute %q follows non-attribute content", it.D.AttrName(it.Att))
			}
			fb.CopyAttr(it.D, it.Att)
			*prevAtomic = false
		default:
			s := it.StringValue()
			if enclosed && *prevAtomic {
				fb.Text(" ")
			}
			fb.Text(s)
			if s != "" {
				*sawContent = true
			}
			*prevAtomic = enclosed
		}
	}
	return nil
}

func (ev *Evaluator) evalComputedElem(v *xqast.ComputedElem, f *frame) (LLSeq, error) {
	names, err := ev.constructorNames(v.NameExpr, f)
	if err != nil {
		return LLSeq{}, err
	}
	content, err := ev.eval(v.Content, f)
	if err != nil {
		return LLSeq{}, err
	}
	size := fragSize{nodes: 2 * f.n}
	size.addContent(content.Items)
	slab := size.slab(f.n)
	out := LLSeq{Off: ascOff(f.n), Items: make([]Item, f.n)}
	for i := 0; i < f.n; i++ {
		fb := slab.NewFragment()
		fb.StartElementID(slab.Intern(nameAt(names, v.Name, i)))
		saw, prevAtomic := false, false
		if err := appendContent(fb, content.Group(i), true, &saw, &prevAtomic); err != nil {
			return LLSeq{}, err
		}
		fb.EndElement()
		doc, err := fb.Done()
		if err != nil {
			return LLSeq{}, errf(codeType, "element constructor: %v", err)
		}
		out.Items[i] = NodeItem(doc, 1)
	}
	return out, nil
}

func (ev *Evaluator) evalComputedAttr(v *xqast.ComputedAttr, f *frame) (LLSeq, error) {
	names, err := ev.constructorNames(v.NameExpr, f)
	if err != nil {
		return LLSeq{}, err
	}
	content, err := ev.eval(v.Content, f)
	if err != nil {
		return LLSeq{}, err
	}
	// A free-standing attribute node lives on a carrier element in its own
	// fragment; inserting it into constructor content copies the name/value
	// pair.
	size := fragSize{nodes: 2 * f.n, attrs: f.n}
	size.addValue(content.Items)
	slab := size.slab(f.n)
	carrier := slab.Intern("attribute-carrier")
	out := LLSeq{Off: ascOff(f.n), Items: make([]Item, f.n)}
	var val []byte
	for i := 0; i < f.n; i++ {
		val = appendValue(val[:0], content.Group(i))
		fb := slab.NewFragment()
		fb.StartElementID(carrier)
		fb.AttrID(slab.Intern(nameAt(names, v.Name, i)), val)
		fb.EndElement()
		doc, err := fb.Done()
		if err != nil {
			return LLSeq{}, errf(codeType, "attribute constructor: %v", err)
		}
		lo, _ := doc.Attrs(1)
		out.Items[i] = AttrItem(doc, 1, lo)
	}
	return out, nil
}

func (ev *Evaluator) evalComputedText(v *xqast.ComputedText, f *frame) (LLSeq, error) {
	content, err := ev.eval(v.Content, f)
	if err != nil {
		return LLSeq{}, err
	}
	size := fragSize{nodes: 3 * f.n} // document node, carrier, text
	size.addValue(content.Items)
	slab := size.slab(f.n)
	carrier := slab.Intern("text-carrier")
	b := newLLBuilderCap(f.n, f.n)
	var val []byte
	for i := 0; i < f.n; i++ {
		val = appendValue(val[:0], content.Group(i))
		fb := slab.NewFragment()
		fb.StartElementID(carrier)
		fb.TextBytes(val)
		fb.EndElement()
		doc, err := fb.Done()
		if err != nil {
			return LLSeq{}, errf(codeType, "text constructor: %v", err)
		}
		if doc.NumNodes() < 3 {
			b.add() // empty text constructor yields the empty sequence
			continue
		}
		b.add(NodeItem(doc, 2)) // pre 2 is the text node
	}
	return b.done(), nil
}

// constructorNames evaluates a computed constructor's name expression per
// iteration; nil when the name is static.
func (ev *Evaluator) constructorNames(nameExpr xqast.Expr, f *frame) ([]string, error) {
	if nameExpr == nil {
		return nil, nil
	}
	names := make([]string, f.n)
	seq, err := ev.eval(nameExpr, f)
	if err != nil {
		return nil, err
	}
	for i := 0; i < f.n; i++ {
		g := seq.Group(i)
		if len(g) != 1 {
			return nil, errf(codeType, "computed constructor name must be a single item")
		}
		name := strings.TrimSpace(g[0].StringValue())
		if name == "" {
			return nil, errf(codeType, "computed constructor name is empty")
		}
		names[i] = name
	}
	return names, nil
}

// nameAt returns iteration i's constructor name.
func nameAt(names []string, static string, i int) string {
	if names == nil {
		return static
	}
	return names[i]
}

// newFragmentElem builds a single-element fragment with the given attributes
// (sorted by name for determinism) and returns it as a node item.
func newFragmentElem(name string, attrs map[string]string) Item {
	fb := tree.NewFragmentBuilder()
	fb.StartElement(name)
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fb.Attr(k, attrs[k])
	}
	fb.EndElement()
	doc, err := fb.Done()
	if err != nil {
		panic("xqeval: internal fragment construction failed: " + err.Error())
	}
	return NodeItem(doc, 1)
}
