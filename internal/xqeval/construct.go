package xqeval

import (
	"sort"
	"strings"

	"soxq/internal/tree"
	"soxq/internal/xqast"
)

// fragSize totals what the fragments of one constructor evaluation will hold,
// to size the container they are built into (tree.NewContainer). An estimate
// that errs high wastes some bytes of the container; one that errs low makes
// a column grow. warm keeps what warmBlock read, so that the reads stay.
type fragSize struct{ nodes, attrs, content, warm int }

// container starts the container of the size counted so far.
func (z fragSize) container() *tree.Builder {
	return tree.NewContainer(z.nodes, z.attrs, z.content)
}

// seal seals a constructor's container and points items at it: their Pre
// fields hold their nodes' pres in it.
func seal(fb *tree.Builder, items []Item, what string) error {
	doc, err := fb.Done()
	if err != nil {
		return errf(codeType, "%s constructor: %v", what, err)
	}
	for i := range items {
		items[i].Kind, items[i].D = KNode, doc
	}
	return nil
}

// addContent counts items inserted as element content: nodes by deep copy,
// attribute nodes as attributes, atomic values as text.
func (z *fragSize) addContent(items []Item) {
	z.addTrees(items, true)
	for _, it := range items {
		switch it.Kind {
		case KNode: // counted by addTrees
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
	z.addTrees(items, false)
	for _, it := range items {
		z.content += valueLen(it) + 1
	}
}

// extentBlock is addTrees' batch of roots of one document, held on the stack.
const extentBlock = 64

// addTrees counts the node items' subtrees: value bytes (a bound on a node's
// string value), and with copies set nodes and attribute rows too.
func (z *fragSize) addTrees(items []Item, copies bool) {
	var roots, scratch [extentBlock]int32
	for len(items) > 0 {
		d, n, rest := rootBatch(items, &roots)
		nodes, attrs, content := d.SubtreesExtent(roots[:n], scratch[:])
		z.content, items = z.content+content, rest
		if copies {
			z.nodes, z.attrs = z.nodes+nodes, z.attrs+attrs
		}
	}
}

// warmBlock reads what copies of the seqs' node items of iterations
// [i, i+extentBlock) read at their roots (tree.Doc.WarmRoots), right before
// those fragments are built: a block's roots, unlike a chunk's, touch few
// enough pages that the copies still find the lines and their translations.
func (z *fragSize) warmBlock(i, n int, seqs ...LLSeq) {
	var roots [extentBlock]int32
	for _, s := range seqs {
		for items := s.Items[s.Off[i]:s.Off[min(i+extentBlock, n)]]; len(items) > 0; {
			d, k, rest := rootBatch(items, &roots)
			z.warm, items = z.warm^int(d.WarmRoots(roots[:k])), rest
		}
	}
}

// rootBatch gathers into roots the pres of the node items heading items, up to
// extentBlock of one document; it returns the document, the count and the rest.
func rootBatch(items []Item, roots *[extentBlock]int32) (d *tree.Doc, n int, rest []Item) {
	d = items[0].D
	k := 0
	for ; k < len(items) && n < extentBlock && items[k].D == d; k++ {
		if items[k].Kind == KNode {
			roots[n], n = items[k].Pre, n+1
		}
	}
	return d, n, items[k:]
}

// valueLen bounds the length of a non-node item's string value from above.
func valueLen(it Item) int {
	switch it.Kind {
	case KNode:
		return 0 // counted by addTrees
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
// element per iteration, each in a fragment of its own, all in one container.
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
	fb := size.container()
	elem := fb.InternString(v.Name)
	attrIDs := make([]int32, len(v.Attrs))
	for ai, a := range v.Attrs {
		attrIDs[ai] = fb.InternString(a.Name)
	}
	out := LLSeq{Off: ascOff(f.n), Items: make([]Item, f.n)}
	var val []byte
	for i := 0; i < f.n; i++ {
		if i%extentBlock == 0 {
			size.warmBlock(i, f.n, content...)
		}
		out.Items[i].Pre = fb.StartFragment() + 1 // the constructed element
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
	}
	if err := seal(fb, out.Items, "element"); err != nil {
		return LLSeq{}, err
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
	fb := size.container()
	out := LLSeq{Off: ascOff(f.n), Items: make([]Item, f.n)}
	for i := 0; i < f.n; i++ {
		if i%extentBlock == 0 {
			size.warmBlock(i, f.n, content)
		}
		out.Items[i].Pre = fb.StartFragment() + 1
		fb.StartElement(nameAt(names, v.Name, i))
		saw, prevAtomic := false, false
		if err := appendContent(fb, content.Group(i), true, &saw, &prevAtomic); err != nil {
			return LLSeq{}, err
		}
		fb.EndElement()
	}
	if err := seal(fb, out.Items, "element"); err != nil {
		return LLSeq{}, err
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
	fb := size.container()
	carrier := fb.InternString("attribute-carrier")
	out := LLSeq{Off: ascOff(f.n), Items: make([]Item, f.n)}
	var val []byte
	for i := 0; i < f.n; i++ {
		val = appendValue(val[:0], content.Group(i))
		out.Items[i].Pre = fb.StartFragment() + 1
		fb.StartElementID(carrier)
		fb.AttrID(fb.InternString(nameAt(names, v.Name, i)), val)
		fb.EndElement()
	}
	if err := seal(fb, out.Items, "attribute"); err != nil {
		return LLSeq{}, err
	}
	for i := range out.Items { // each carrier's one attribute
		it := &out.Items[i]
		it.Kind = KAttr
		it.Att, _ = it.D.Attrs(it.Pre)
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
	fb := size.container()
	carrier := fb.InternString("text-carrier")
	b := newLLBuilderCap(f.n, f.n)
	var val []byte
	for i := 0; i < f.n; i++ {
		if val = appendValue(val[:0], content.Group(i)); len(val) == 0 {
			b.add() // empty text constructor yields the empty sequence
			continue
		}
		b.add(Item{Pre: fb.StartFragment() + 2}) // the text node
		fb.StartElementID(carrier)
		fb.TextBytes(val)
		fb.EndElement()
	}
	out := b.done()
	if err := seal(fb, out.Items, "text"); err != nil {
		return LLSeq{}, err
	}
	return out, nil
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
