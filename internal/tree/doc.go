// Package tree implements the shredded XML document store that the engine
// evaluates queries against. Like MonetDB/XQuery, each document is a set of
// columns indexed by the pre-order rank of the node (the "pre" value, which
// doubles as node id, section 4.3 of the paper) together with a subtree size
// and parent per node. This pre/size/parent encoding supports all XPath axes
// and the staircase join, while attribute values and text content live in a
// byte arena so that multi-gigabyte documents do not drown the Go heap in
// small strings.
package tree

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind classifies a node.
type Kind uint8

const (
	// DocumentNode is the virtual root; pre 0 of every Doc, and the head of
	// every fragment of a container.
	DocumentNode Kind = iota
	// ElementNode is an XML element.
	ElementNode
	// TextNode is character data.
	TextNode
	// CommentNode is an XML comment.
	CommentNode
	// PINode is a processing instruction.
	PINode
)

func (k Kind) String() string {
	switch k {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case PINode:
		return "processing-instruction"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NoName marks nodes without a name (text, comments, the document node).
const NoName int32 = -1

// Doc is one shredded XML document or a container of constructed fragments.
// All slices are indexed by pre-order rank; pre 0 is always a document node.
// A container's fragments follow one another, each a document node without a
// parent and its subtree (see FragmentRoot). A Doc is immutable after the
// Builder seals it and therefore safe for concurrent readers.
//
// Mutation produces a new Doc snapshot instead of changing this one: an
// Appender appends subtrees under the root element and WithTombstones marks
// subtrees deleted. Snapshots share the column arrays of their ancestors
// (appends land beyond every older snapshot's slice length, tombstones live
// in copy-on-write bitset pages), so in-flight readers of an older snapshot
// are never disturbed — see mutate.go.
type Doc struct {
	// Name is the document URI under which the document was loaded, or ""
	// for constructed fragments.
	Name string
	// Fragment marks containers of fragments built by node constructors
	// rather than parsing.
	Fragment bool

	kind   []Kind
	name   []int32 // dict id of element name / PI target, or NoName
	size   []int32 // number of descendants of the node
	parent []int32 // pre of parent; -1 for a document node

	// Text/comment/PI content: slice [valOff:valOff+valLen] of content.
	valOff []int64
	valLen []int32

	// Attribute table, clustered on owner pre (ascending). attFirst[pre]
	// gives the first attribute row of a node; attFirst[pre+1] bounds it
	// (attFirst has len(kind)+1 entries, the last one len(attName)).
	attName  []int32
	attValOf []int64
	attValLn []int32
	attFirst []int32

	content []byte // arena holding every text and attribute value
	dict    *Dict  // element/attribute name dictionary
	order   int64  // global creation rank, for stable cross-document order

	elemIndexOnce sync.Once
	elemIndex     map[int32][]int32 // element name id -> ascending pre list

	// Snapshot state (nil/zero on a pristine, Builder-sealed doc).
	// base points at the pristine ancestor of a mutation lineage; mutSeq
	// counts the mutations applied since (0 on the pristine doc). sizeHead
	// overrides size[0..len) — appending under the root element grows the
	// document node's and root element's subtree without touching the size
	// column older snapshots still read. dead is the tombstone bitset (whole
	// subtrees) as a table of deadPageNodes-node pages: a nil page, or one
	// past the table's end, is all alive, and a delete copies the table and
	// only the pages it touches. elems holds the element list of every name
	// the lineage's mutations touched, sorted by name id (immutable once the
	// snapshot is committed, but for a stale list's filtered copy, set once
	// on first read; other names read the pristine index).
	base     *Doc
	mutSeq   uint64
	sizeHead []int32
	dead     []*deadPage
	elems    []nameElems
}

// Tombstone pages: deadPageNodes nodes, 512 bytes, each.
const (
	deadPageShift = 12
	deadPageNodes = 1 << deadPageShift
	deadPageWords = deadPageNodes / 64
)

// deadPage is one page of the tombstone bitset: bit p&63 of word
// p>>6 & (deadPageWords-1) is set when node p of the page's range is dead.
type deadPage [deadPageWords]uint64

// nameElems is one element name's ascending pre list. A delete that kills
// elements of the name does not cut them out: it marks the list stale, and
// the snapshot's first read of it filters pres through Alive into live,
// once. A stale list thus holds at most the pres killed since the name was
// last read.
type nameElems struct {
	id    int32
	stale bool
	pres  []int32
	live  atomic.Pointer[[]int32]
}

// read returns the live list of e on snapshot d. Concurrent first reads of a
// stale list may each filter it; the first to publish wins and every reader
// returns that one.
func (e *nameElems) read(d *Doc) []int32 {
	if !e.stale {
		return e.pres
	}
	if l := e.live.Load(); l != nil {
		return *l
	}
	l := make([]int32, 0, len(e.pres))
	for _, p := range e.pres {
		if d.Alive(p) {
			l = append(l, p)
		}
	}
	e.live.CompareAndSwap(nil, &l)
	return *e.live.Load()
}

// findElems locates name id in the sorted elems list: its slot, and whether
// the slot holds it.
func findElems(elems []nameElems, id int32) (int, bool) {
	lo, hi := 0, len(elems)
	for lo < hi {
		if m := (lo + hi) / 2; elems[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(elems) && elems[lo].id == id
}

var docOrderCounter atomic.Int64

// OrderKey returns a process-wide unique rank assigned at construction time.
// XQuery leaves the relative document order of distinct trees implementation
// defined; we order them by creation, which is stable within a session.
// Mutation snapshots keep their ancestor's rank: the document's identity (and
// its order relative to other documents) is stable across writes.
func (d *Doc) OrderKey() int64 { return d.order }

// Alive reports whether node pre is part of this snapshot's logical document
// (not tombstoned). Tombstones always cover whole subtrees, so every ancestor
// of a live node is live.
func (d *Doc) Alive(pre int32) bool {
	if k := uint32(pre) >> deadPageShift; k < uint32(len(d.dead)) {
		if pg := d.dead[k]; pg != nil {
			return pg[pre>>6&(deadPageWords-1)]&(1<<(uint(pre)&63)) == 0
		}
	}
	return true
}

// NumNodes returns the node count including the document node.
func (d *Doc) NumNodes() int { return len(d.kind) }

// NumAttrs returns the total attribute count.
func (d *Doc) NumAttrs() int { return len(d.attName) }

// Dict exposes the name dictionary (read-only).
func (d *Doc) Dict() *Dict { return d.dict }

// Kind returns the kind of node pre.
func (d *Doc) Kind(pre int32) Kind { return d.kind[pre] }

// NameID returns the dictionary id of the node's name, or NoName.
func (d *Doc) NameID(pre int32) int32 { return d.name[pre] }

// NodeName returns the name of an element/PI node, or "".
func (d *Doc) NodeName(pre int32) string {
	id := d.name[pre]
	if id == NoName {
		return ""
	}
	return d.dict.Name(id)
}

// Size returns the number of descendants of node pre. A node's subtree is
// the pre range [pre, pre+Size(pre)]. On a mutation snapshot the prefix
// through the root element reads the snapshot's own size overrides (appends
// grow those two subtrees without touching the shared column).
func (d *Doc) Size(pre int32) int32 {
	if int(pre) < len(d.sizeHead) {
		return d.sizeHead[pre]
	}
	return d.size[pre]
}

// Parent returns the pre of the parent node, or -1 for a document node.
func (d *Doc) Parent(pre int32) int32 { return d.parent[pre] }

// FragmentRoot returns the pre of the document node of the tree holding
// node pre: 0 in a loaded document, the fragment's own in a container.
func (d *Doc) FragmentRoot(pre int32) int32 {
	if !d.Fragment {
		return 0
	}
	for d.parent[pre] >= 0 {
		pre = d.parent[pre]
	}
	return pre
}

// ValueBytes returns the content of a text/comment/PI node without copying.
// The returned slice must not be modified.
func (d *Doc) ValueBytes(pre int32) []byte {
	return d.content[d.valOff[pre] : d.valOff[pre]+int64(d.valLen[pre])]
}

// Value returns the content of a text/comment/PI node as a string.
func (d *Doc) Value(pre int32) string { return string(d.ValueBytes(pre)) }

// Attrs returns the attribute row range [lo,hi) of node pre.
func (d *Doc) Attrs(pre int32) (lo, hi int32) {
	return d.attFirst[pre], d.attFirst[pre+1]
}

// AttrNameID returns the dictionary id of attribute row i's name.
func (d *Doc) AttrNameID(i int32) int32 { return d.attName[i] }

// AttrName returns the name of attribute row i.
func (d *Doc) AttrName(i int32) string { return d.dict.Name(d.attName[i]) }

// AttrValueBytes returns the value of attribute row i without copying.
func (d *Doc) AttrValueBytes(i int32) []byte {
	return d.content[d.attValOf[i] : d.attValOf[i]+int64(d.attValLn[i])]
}

// AttrValue returns the value of attribute row i as a string.
func (d *Doc) AttrValue(i int32) string { return string(d.AttrValueBytes(i)) }

// Attr looks up an attribute of node pre by name id and returns its row
// index, or -1 when absent.
func (d *Doc) Attr(pre int32, nameID int32) int32 {
	lo, hi := d.Attrs(pre)
	for i := lo; i < hi; i++ {
		if d.attName[i] == nameID {
			return i
		}
	}
	return -1
}

// AttrByName looks up an attribute of node pre by name string.
func (d *Doc) AttrByName(pre int32, name string) (value string, ok bool) {
	id, found := d.dict.Lookup(name)
	if !found {
		return "", false
	}
	i := d.Attr(pre, id)
	if i < 0 {
		return "", false
	}
	return d.AttrValue(i), true
}

// ElementsByName returns the ascending pre list of live elements named id.
// The index is built lazily on first use and shared by all callers; the
// returned slice must not be modified. A mutation snapshot serves its own
// list for the names its lineage touched — each commit derives it from the
// parent's list plus the nodes it appended, and the first read after a
// tombstone filters out the nodes killed since (see mutate.go) — and the
// pristine ancestor's list for every other name.
func (d *Doc) ElementsByName(id int32) []int32 {
	if d.base != nil {
		if k, ok := findElems(d.elems, id); ok {
			return d.elems[k].read(d)
		}
		return d.base.ElementsByName(id)
	}
	d.elemIndexOnce.Do(func() {
		idx := make(map[int32][]int32)
		for pre := int32(0); pre < int32(len(d.kind)); pre++ {
			if d.kind[pre] == ElementNode {
				idx[d.name[pre]] = append(idx[d.name[pre]], pre)
			}
		}
		d.elemIndex = idx
	})
	return d.elemIndex[id]
}

// StringValue computes the XPath string-value of node pre: for text,
// comment and PI nodes their content; for elements and the document node the
// concatenation of all descendant text nodes in document order.
func (d *Doc) StringValue(pre int32) string {
	switch d.kind[pre] {
	case TextNode, CommentNode, PINode:
		return d.Value(pre)
	}
	end := pre + d.Size(pre)
	var total int
	for p := pre + 1; p <= end; p++ {
		if d.kind[p] == TextNode && d.Alive(p) {
			total += int(d.valLen[p])
		}
	}
	if total == 0 {
		return ""
	}
	return string(d.AppendStringValue(make([]byte, 0, total), pre))
}

// AppendStringValue appends the string-value of node pre to dst.
func (d *Doc) AppendStringValue(dst []byte, pre int32) []byte {
	if d.kind[pre] != ElementNode && d.kind[pre] != DocumentNode {
		return append(dst, d.ValueBytes(pre)...)
	}
	for p, end := pre+1, pre+d.Size(pre); p <= end; p++ {
		if d.kind[p] == TextNode && d.Alive(p) {
			dst = append(dst, d.ValueBytes(p)...)
		}
	}
	return dst
}

// IsAncestorOf reports whether node a is a proper ancestor of node b, using
// the pre/size containment property of the encoding.
func (d *Doc) IsAncestorOf(a, b int32) bool {
	return a < b && b <= a+d.Size(a)
}

// FirstChild returns the pre of the first live child of node pre, or -1.
func (d *Doc) FirstChild(pre int32) int32 {
	if d.Size(pre) == 0 {
		return -1
	}
	c := pre + 1
	if !d.Alive(c) {
		return d.NextSibling(c)
	}
	return c
}

// NextSibling returns the pre of the next live following sibling, or -1.
// Tombstoned siblings are stepped over structurally (a dead subtree keeps its
// pre/size shape, it just no longer belongs to the document). A document
// node has no siblings: the next fragment of a container is not one.
func (d *Doc) NextSibling(pre int32) int32 {
	parent := d.parent[pre]
	if parent < 0 {
		return -1
	}
	for {
		next := pre + d.Size(pre) + 1
		if next >= int32(len(d.kind)) || d.parent[next] != parent {
			return -1
		}
		if d.Alive(next) {
			return next
		}
		pre = next
	}
}

// Children returns the pre values of all child nodes of pre.
func (d *Doc) Children(pre int32) []int32 {
	var out []int32
	for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
		out = append(out, c)
	}
	return out
}

// Validate performs internal consistency checks over the encoding; it is
// used by tests and the fuzzing harness, not on the hot path.
func (d *Doc) Validate() error {
	n := int32(len(d.kind))
	if n == 0 || d.kind[0] != DocumentNode {
		return fmt.Errorf("tree: doc must start with a document node")
	}
	if len(d.attFirst) != int(n)+1 || d.attFirst[0] != 0 || d.attFirst[n] != int32(len(d.attName)) {
		return fmt.Errorf("tree: attFirst does not span the %d attribute rows of %d nodes", len(d.attName), n)
	}
	for pre := int32(0); pre < n; pre++ {
		if lo, hi := d.attFirst[pre], d.attFirst[pre+1]; hi < lo {
			return fmt.Errorf("tree: attFirst falls at node %d", pre)
		} else if hi > lo && d.kind[pre] != ElementNode {
			return fmt.Errorf("tree: attribute %d owned by non-element %d", lo, pre)
		}
	}
	root := int32(0) // the next fragment's document node
	for pre := int32(0); pre < n; pre++ {
		p := d.parent[pre]
		if pre == root {
			if p != -1 || d.kind[pre] != DocumentNode || pre > 0 && !d.Fragment {
				return fmt.Errorf("tree: node %d does not start a fragment", pre)
			}
			root = pre + d.Size(pre) + 1
			continue
		}
		if p < 0 || p >= pre {
			return fmt.Errorf("tree: node %d has bad parent %d", pre, p)
		}
		if pre+d.Size(pre) > p+d.Size(p) {
			return fmt.Errorf("tree: node %d leaks out of parent %d", pre, p)
		}
		if d.kind[pre] != ElementNode && d.Size(pre) != 0 {
			return fmt.Errorf("tree: leaf node %d has size %d", pre, d.Size(pre))
		}
		// Tombstones cover whole subtrees: under a dead subtree root every
		// descendant is dead too.
		if !d.Alive(pre) && d.Alive(p) {
			for c := pre + 1; c <= pre+d.Size(pre); c++ {
				if d.Alive(c) {
					return fmt.Errorf("tree: live node %d inside dead subtree %d", c, pre)
				}
			}
		}
	}
	if root != n {
		return fmt.Errorf("tree: fragments span %d of %d nodes", root, n)
	}
	return nil
}
