package tree

import (
	"fmt"
	"slices"
)

// This file implements the document write path: append-only snapshots.
//
// A sealed Doc never changes. Instead, a mutation derives a new *Doc snapshot
// that shares the column arrays of its ancestors:
//
//   - Appends (Appender) push new rows beyond every older snapshot's slice
//     length — old snapshots cannot see them because their slice headers cap
//     reads — and override the two subtree sizes that grow (document node and
//     root element) in a small per-snapshot sizeHead array.
//   - Deletes (WithTombstones) mark whole subtrees dead in a copy-on-write
//     bitset; the pre/size shape is untouched, traversal just skips dead
//     nodes.
//
// Writers must be serialized by the caller and must always mutate the newest
// snapshot (the engine holds its write lock across a mutation); readers of
// any snapshot are lock-free and never disturbed. This is the storage half of
// the LSM-style annotation write path — internal/core layers the region-index
// delta merge on top.

// RootElement returns the pre of the document's root element, or -1 when the
// document node has no element child (possible for fragments).
func (d *Doc) RootElement() int32 {
	for c := d.FirstChild(0); c >= 0; c = d.NextSibling(c) {
		if d.kind[c] == ElementNode {
			return c
		}
	}
	return -1
}

// cloneSnapshot derives a new snapshot sharing all column storage with d.
// The caller adjusts sizeHead/dead/elems as its mutation requires. (Doc holds
// a sync.Once, so snapshots are built field-by-field rather than by struct
// copy.)
func (d *Doc) cloneSnapshot() *Doc {
	c := &Doc{
		Name:     d.Name,
		Fragment: d.Fragment,
		kind:     d.kind,
		name:     d.name,
		size:     d.size,
		level:    d.level,
		parent:   d.parent,
		valOff:   d.valOff,
		valLen:   d.valLen,
		attOwner: d.attOwner,
		attName:  d.attName,
		attValOf: d.attValOf,
		attValLn: d.attValLn,
		attFirst: d.attFirst,
		content:  d.content,
		dict:     d.dict,
		order:    d.order,
		mutSeq:   d.mutSeq + 1,
		sizeHead: d.sizeHead,
		dead:     d.dead,
		deadCnt:  d.deadCnt,
		elems:    d.elems,
	}
	if d.base != nil {
		c.base = d.base
	} else {
		c.base = d
	}
	return c
}

// WithTombstones returns a snapshot with the subtrees rooted at the given
// pres marked deleted. The document node and the root element cannot be
// tombstoned; already-dead pres are rejected (the caller addressed a node the
// snapshot no longer contains).
func (d *Doc) WithTombstones(pres []int32) (*Doc, error) {
	if len(pres) == 0 {
		return d, nil
	}
	root := d.RootElement()
	n := int32(len(d.kind))
	c := d.cloneSnapshot()
	nd := make([]uint64, (int(n)+63)/64)
	copy(nd, d.dead)
	hit := map[int32]struct{}{} // names of the elements this call kills
	for _, pre := range pres {
		switch {
		case pre <= 0 || pre >= n:
			return nil, fmt.Errorf("tree: tombstone pre %d out of range", pre)
		case pre == root:
			return nil, fmt.Errorf("tree: cannot tombstone the root element")
		case !d.Alive(pre):
			return nil, fmt.Errorf("tree: node %d is already deleted", pre)
		}
		for p := pre; p <= pre+d.Size(pre); p++ {
			w, b := p>>6, uint(p)&63
			if nd[w]&(1<<b) == 0 {
				nd[w] |= 1 << b
				c.deadCnt++
				if d.kind[p] == ElementNode {
					hit[d.name[p]] = struct{}{}
				}
			}
		}
	}
	c.dead = nd
	// Element lists of the names that lost a node: the parent's live list
	// minus the newly dead, O(that name's layer). Nothing else is rescanned.
	c.elems = slices.Clone(d.elems)
	for id := range hit {
		l := c.ownElems(id)
		live := make([]int32, 0, len(*l))
		for _, p := range *l {
			if c.Alive(p) {
				live = append(live, p)
			}
		}
		*l = live
	}
	return c, nil
}

// ownElems returns the snapshot's own element list of name id for the
// mutation deriving the snapshot to replace, on its own copy of elems. A name
// the lineage had not touched starts from the pristine list, capped so that
// an append copies it rather than extending it in place.
func (d *Doc) ownElems(id int32) *[]int32 {
	k, ok := findElems(d.elems, id)
	if !ok {
		l := d.base.ElementsByName(id)
		d.elems = slices.Insert(d.elems, k, nameElems{id, l[:len(l):len(l)]})
	}
	return &d.elems[k].pres
}

// Appender extends a sealed document with new subtrees appended as the last
// children of its root element, producing a new snapshot on Commit. The event
// API mirrors Builder:
//
//	a, err := tree.NewAppender(doc)
//	pre := a.StartElement("hit")
//	a.Attr("start", "10")
//	a.Attr("end", "20")
//	a.EndElement()
//	doc2, err := a.Commit()
//
// The appended rows land beyond doc's slice lengths, so doc (and every older
// snapshot) is unaffected. An Appender is single-use and not safe for
// concurrent use; callers serialize writers and always append to the newest
// snapshot.
type Appender struct {
	d   *Doc // the snapshot under construction
	src *Doc // the snapshot being extended

	open       []int32 // stack of open appended elements; open[0] = root element
	inTag      bool
	err        error
	finished   bool
	baseN      int32 // node count before this append session
	rootElem   int32
	dictCloned bool
}

// NewAppender starts an append session on d. It fails when the document has
// no root element or has content after it (appending as last children of the
// root element requires the root element's subtree to end the document).
func NewAppender(d *Doc) (*Appender, error) {
	root := d.RootElement()
	if root < 0 {
		return nil, fmt.Errorf("tree: document %q has no root element", d.Name)
	}
	n := int32(len(d.kind))
	if root+d.Size(root) != n-1 {
		return nil, fmt.Errorf("tree: document %q has content after the root element", d.Name)
	}
	return &Appender{
		d:        d.cloneSnapshot(),
		src:      d,
		open:     []int32{root},
		baseN:    n,
		rootElem: root,
	}, nil
}

func (a *Appender) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("tree: "+format, args...)
	}
}

// intern resolves a name against the shared dictionary, cloning it
// copy-on-write before the first genuinely new name is added.
func (a *Appender) intern(name string) int32 {
	if id, ok := a.d.dict.Lookup(name); ok {
		return id
	}
	if !a.dictCloned {
		a.d.dict = a.d.dict.clone()
		a.dictCloned = true
	}
	return a.d.dict.Intern(name)
}

func (a *Appender) pushNode(k Kind, nameID int32, value []byte) int32 {
	d := a.d
	pre := int32(len(d.kind))
	parent := a.open[len(a.open)-1]
	d.kind = append(d.kind, k)
	d.name = append(d.name, nameID)
	d.size = append(d.size, 0)
	d.level = append(d.level, d.level[parent]+1)
	d.parent = append(d.parent, parent)
	if value != nil {
		d.valOff = append(d.valOff, int64(len(d.content)))
		d.valLen = append(d.valLen, int32(len(value)))
		d.content = append(d.content, value...)
	} else {
		d.valOff = append(d.valOff, 0)
		d.valLen = append(d.valLen, 0)
	}
	return pre
}

// StartElement opens an element node and returns its pre in the snapshot
// Commit will produce.
func (a *Appender) StartElement(name string) int32 {
	if a.err != nil {
		return -1
	}
	if a.finished {
		a.fail("StartElement after Commit")
		return -1
	}
	pre := a.pushNode(ElementNode, a.intern(name), nil)
	a.open = append(a.open, pre)
	a.inTag = true
	return pre
}

// Attr attaches an attribute to the most recently opened element.
func (a *Appender) Attr(name, value string) {
	if a.err != nil {
		return
	}
	if !a.inTag || len(a.open) <= 1 {
		a.fail("Attr(%q) outside an open tag", name)
		return
	}
	d := a.d
	owner := a.open[len(a.open)-1]
	nameID := a.intern(name)
	if d.hasAttr(owner, nameID) {
		a.fail("duplicate attribute %q on element %q", name, d.NodeName(owner))
		return
	}
	d.attOwner = append(d.attOwner, owner)
	d.attName = append(d.attName, nameID)
	d.attValOf = append(d.attValOf, int64(len(d.content)))
	d.attValLn = append(d.attValLn, int32(len(value)))
	d.content = append(d.content, value...)
}

// Text appends a text node (empty text is dropped; adjacent texts appended in
// this session are merged, like Builder — never with pre-existing nodes,
// whose rows are shared with older snapshots).
func (a *Appender) Text(value string) {
	if a.err != nil || value == "" {
		return
	}
	if a.finished {
		a.fail("Text after Commit")
		return
	}
	d := a.d
	if n := int32(len(d.kind)); n > a.baseN && d.kind[n-1] == TextNode && !a.inTag &&
		d.parent[n-1] == a.open[len(a.open)-1] &&
		d.valOff[n-1]+int64(d.valLen[n-1]) == int64(len(d.content)) {
		d.content = append(d.content, value...)
		d.valLen[n-1] += int32(len(value))
		return
	}
	a.pushNode(TextNode, NoName, []byte(value))
	a.inTag = false
}

// Comment appends a comment node.
func (a *Appender) Comment(value string) {
	if a.err != nil {
		return
	}
	a.pushNode(CommentNode, NoName, []byte(value))
	a.inTag = false
}

// EndElement closes the innermost open appended element and fixes its subtree
// size.
func (a *Appender) EndElement() {
	if a.err != nil {
		return
	}
	if len(a.open) <= 1 {
		a.fail("EndElement without matching StartElement")
		return
	}
	pre := a.open[len(a.open)-1]
	a.open = a.open[:len(a.open)-1]
	a.d.size[pre] = int32(len(a.d.kind)) - pre - 1
	a.inTag = false
}

// Commit seals the append session and returns the new snapshot. The appender
// must not be reused.
func (a *Appender) Commit() (*Doc, error) {
	if a.err != nil {
		return nil, a.err
	}
	if len(a.open) != 1 {
		return nil, fmt.Errorf("%w: %q", ErrUnclosedElement, a.d.NodeName(a.open[len(a.open)-1]))
	}
	a.finished = true
	d := a.d
	n := int32(len(d.kind))
	added := n - a.baseN

	// Size overrides: only the document node and the root element grew. The
	// head is rebuilt per snapshot (never mutated in place — the previous
	// snapshot may share it).
	head := make([]int32, a.rootElem+1)
	for pre := int32(0); pre <= a.rootElem; pre++ {
		head[pre] = a.src.Size(pre)
	}
	head[0] += added
	head[a.rootElem] += added
	d.sizeHead = head

	// Extend attFirst for the appended nodes. The previous terminator
	// attFirst[baseN] already equals the first appended attribute row, so the
	// shared array extends in place.
	row := d.attFirst[a.baseN]
	for pre := a.baseN + 1; pre <= n; pre++ {
		for row < int32(len(d.attOwner)) && d.attOwner[row] < pre {
			row++
		}
		d.attFirst = append(d.attFirst, row)
	}

	// The tombstone bitset (when present) must cover the appended pres; the
	// extra words are zero, so the new nodes are alive everywhere.
	for int64(len(d.dead))*64 < int64(n) && d.dead != nil {
		d.dead = append(d.dead, 0)
	}

	// Element lists: the parent's list of each appended element's name plus
	// the new pres, which exceed every older one. A list the lineage already
	// owns extends in place beyond the parent's length (the column
	// discipline); the pristine document's list is never extended in place.
	d.elems = slices.Clone(a.src.elems)
	for pre := a.baseN; pre < n; pre++ {
		if d.kind[pre] == ElementNode {
			l := d.ownElems(d.name[pre])
			*l = append(*l, pre)
		}
	}
	return d, nil
}
