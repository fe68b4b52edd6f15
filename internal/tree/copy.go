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

// copyRange appends the all-live subtree of element pre of src.
func (b *Builder) copyRange(src *Doc, pre int32) {
	d := b.doc
	lo, hi := pre, pre+src.Size(pre)+1
	if len(d.kind)+int(hi-lo) > math.MaxInt32 {
		b.fail("document exceeds 2^31 nodes")
		return
	}
	base := int32(len(d.kind))
	shift := base - lo
	dLevel := int16(len(b.open)) - src.level[lo]
	d.kind = append(d.kind, src.kind[lo:hi]...)
	d.size = append(d.size, src.size[lo:hi]...)
	for p := lo; p < hi && int(p) < len(src.sizeHead); p++ {
		d.size[p+shift] = src.sizeHead[p] // a snapshot's grown root element
	}
	d.valLen = append(d.valLen, src.valLen[lo:hi]...)
	for p := lo; p < hi; p++ {
		d.name = append(d.name, b.remap(src, src.name[p]))
		d.level = append(d.level, src.level[p]+dLevel)
		d.parent = append(d.parent, src.parent[p]+shift)
		d.valOff = append(d.valOff, int64(len(d.content)))
		d.content = append(d.content, src.ValueBytes(p)...)
		for a, ahi := src.Attrs(p); a < ahi; a++ {
			d.attOwner = append(d.attOwner, p+shift)
			d.attName = append(d.attName, b.remap(src, src.attName[a]))
			d.attValOf = append(d.attValOf, int64(len(d.content)))
			d.attValLn = append(d.attValLn, src.attValLn[a])
			d.content = append(d.content, src.AttrValueBytes(a)...)
		}
	}
	d.parent[base] = b.open[len(b.open)-1]
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

// SubtreeExtent returns what a copy of node pre's subtree holds, tombstoned
// descendants included: nodes, attribute rows and bytes of values.
func (d *Doc) SubtreeExtent(pre int32) (nodes, attrs, content int) {
	end := pre + d.Size(pre)
	for _, n := range d.valLen[pre : end+1] {
		content += int(n)
	}
	alo, ahi := d.attFirst[pre], d.attFirst[end+1]
	for _, n := range d.attValLn[alo:ahi] {
		content += int(n)
	}
	return int(end-pre) + 1, int(ahi - alo), content
}
