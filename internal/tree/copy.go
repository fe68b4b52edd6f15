package tree

import "math"

// CopySubtree appends a deep copy of node pre of src — of its children, for a
// document node — as the next content of the innermost open element. An
// element's subtree is copied by column ranges: kind, size and value lengths
// as they are, level, parent and value offsets rebased, names mapped into this
// document's dictionary through a memo; no string is made for a name or a
// value. A text node goes through Text, so it merges with an adjacent one.
func (b *Builder) CopySubtree(src *Doc, pre int32) {
	if b.err != nil {
		return
	}
	switch src.kind[pre] {
	case DocumentNode:
		for c := src.FirstChild(pre); c >= 0; c = src.NextSibling(c) {
			b.CopySubtree(src, c)
		}
	case TextNode:
		text(b, src.ValueBytes(pre))
	case CommentNode, PINode:
		leaf(b, src.kind[pre], b.remap(src, src.name[pre]), src.ValueBytes(pre))
	case ElementNode:
		if src.base != nil && !src.wholeRange(pre) {
			// The subtree is not what its column range says: copy the live
			// children one by one, and let Text merge what has become adjacent.
			b.StartElementID(b.remap(src, src.name[pre]))
			for a, hi := src.Attrs(pre); a < hi; a++ {
				b.CopyAttr(src, a)
			}
			for c := src.FirstChild(pre); c >= 0; c = src.NextSibling(c) {
				b.CopySubtree(src, c)
			}
			b.EndElement()
			return
		}
		b.copyRange(src, pre)
	}
}

// CopyAttr attaches a copy of attribute row att of src to the most recently
// opened element.
func (b *Builder) CopyAttr(src *Doc, att int32) {
	attr(b, b.remap(src, src.attName[att]), src.AttrValueBytes(att))
}

// copyRange appends the all-live subtree of element pre of src. It reads only
// what it writes: levels follow from rebased parents, offsets only of values.
func (b *Builder) copyRange(src *Doc, pre int32) {
	d := b.doc
	lo, hi := pre, pre+src.Size(pre)+1
	if len(d.kind)+int(hi-lo) > math.MaxInt32 {
		b.fail("document exceeds 2^31 nodes")
		return
	}
	shift := int32(len(d.kind)) - lo
	parent := b.open[len(b.open)-1]
	for p := lo; p < hi; p++ {
		if p > lo {
			parent = src.parent[p] + shift
		}
		d.kind = append(d.kind, src.kind[p])
		d.name = append(d.name, b.remap(src, src.name[p]))
		d.size = append(d.size, src.Size(p))
		d.parent = append(d.parent, parent)
		d.valLen = append(d.valLen, src.valLen[p])
		d.valOff = append(d.valOff, int64(len(d.content)))
		if src.valLen[p] > 0 {
			d.content = append(d.content, src.ValueBytes(p)...)
		}
		d.attFirst = append(d.attFirst, int32(len(d.attName))) // node p's attributes end the table
		for a, ahi := src.Attrs(p); a < ahi; a++ {
			addAttr(d, b.remap(src, src.attName[a]), src.AttrValueBytes(a))
		}
	}
	b.inTag = false
}

// remap returns this document's id of src's name id.
func (b *Builder) remap(src *Doc, id int32) int32 {
	if id == NoName || src.dict == b.doc.dict {
		return id
	}
	if b.remapFrom != src.dict {
		b.remapFrom, b.remapIDs = src.dict, b.remapIDs[:0]
	}
	for int(id) >= len(b.remapIDs) {
		b.remapIDs = append(b.remapIDs, -1)
	}
	if b.remapIDs[id] < 0 {
		b.remapIDs[id] = b.doc.dict.Intern(src.dict.Name(id))
	}
	return b.remapIDs[id]
}

// wholeRange reports whether the column range of element pre's subtree is the
// subtree a copy must hold. Not so on a mutation snapshot when a descendant
// is tombstoned, or when two text nodes are adjacent siblings (an Appender
// does not merge new text into a node older snapshots share).
func (d *Doc) wholeRange(pre int32) bool {
	for p, end := pre+1, pre+d.Size(pre); p <= end; p++ {
		if !d.Alive(p) || d.kind[p] == TextNode && d.kind[p-1] == TextNode && d.parent[p] == d.parent[p-1] {
			return false
		}
	}
	return true
}

// SubtreesExtent totals what copies of the subtrees rooted at roots hold,
// tombstoned descendants included: nodes, attribute rows and bytes of values.
// One pass per column, so that the misses of consecutive roots overlap. roots
// and scratch, which must be at least as long, are overwritten.
func (d *Doc) SubtreesExtent(roots, scratch []int32) (nodes, attrs, content int) {
	ends := scratch[:len(roots)]
	for i, p := range roots {
		ends[i] = p + d.Size(p)
		nodes += int(ends[i]-p) + 1
	}
	for i, p := range roots {
		for _, n := range d.valLen[p : ends[i]+1] {
			content += int(n)
		}
	}
	for i, p := range roots { // from here on, roots[i] and ends[i] bound attribute rows
		roots[i], ends[i] = d.attFirst[p], d.attFirst[ends[i]+1]
		attrs += int(ends[i] - roots[i])
	}
	for i, a := range roots {
		for _, n := range d.attValLn[a:ends[i]] {
			content += int(n)
		}
	}
	return nodes, attrs, content
}

// WarmRoots reads the cells a copy of each of roots reads at the root alone —
// kind, name, size, value length, attFirst, its attribute rows and the first
// byte of each non-empty value — so that copies made right after find them
// cached instead of stalling on a chain of misses each; deeper rows are
// contiguous and a copy streams them. The result folds in every load, so
// that the compiler cannot drop one.
func (d *Doc) WarmRoots(roots []int32) (warm int32) {
	for _, p := range roots {
		warm ^= int32(d.kind[p]) ^ d.name[p] ^ d.Size(p) ^ d.valLen[p] ^ d.attFirst[p+1]
	}
	for _, p := range roots {
		for a, hi := d.attFirst[p], d.attFirst[p+1]; a < hi; a++ {
			warm ^= d.attName[a] ^ d.attValLn[a]
			if d.attValLn[a] > 0 {
				warm ^= int32(d.content[d.attValOf[a]])
			}
		}
	}
	return warm
}
