package tree

// FragmentSlab backs the fragments of one node-constructor evaluation: their
// Doc structs, every column, the attFirst tables and the value arena are cut
// from arrays allocated once, sized by the caller from the content it is about
// to insert, and all fragments share one name dictionary. Each fragment is
// still a Doc of its own — own pre space, document node and order rank — so
// node identity, root(), parent and sibling steps and document order are those
// of separately built fragments.
//
// A fragment that outgrows what is left of a slab array continues in an array
// of its own through ordinary append growth; the slab's free space stays where
// it was for the next fragment. Sealed fragments are capacity-clipped, so a
// later append to one (see Appender) copies instead of running into its
// neighbour. Whoever retains one fragment retains the whole slab.
//
// Fragments are built one at a time: the Builder NewFragment returns is valid
// until the next NewFragment call. A slab is not safe for concurrent use.
type FragmentSlab struct {
	b    Builder // re-armed per fragment; keeps the open stack and remap memo
	dict *Dict
	docs []Doc

	// The unused tail of every slab array (length 0, capacity what is left).
	kind     []Kind
	name     []int32
	size     []int32
	level    []int16
	parent   []int32
	valOff   []int64
	valLen   []int32
	attName  []int32
	attValOf []int64
	attValLn []int32
	attFirst []int32
	content  []byte
}

// NewFragmentSlab sizes a slab for frags fragments holding nodes nodes (their
// document nodes included), attrs attributes and content bytes of values in
// total. The numbers are estimates: too low costs allocations, not
// correctness.
func NewFragmentSlab(frags, nodes, attrs, content int) *FragmentSlab {
	return &FragmentSlab{
		dict:     NewDict(),
		docs:     make([]Doc, frags),
		kind:     make([]Kind, 0, nodes),
		name:     make([]int32, 0, nodes),
		size:     make([]int32, 0, nodes),
		level:    make([]int16, 0, nodes),
		parent:   make([]int32, 0, nodes),
		valOff:   make([]int64, 0, nodes),
		valLen:   make([]int32, 0, nodes),
		attName:  make([]int32, 0, attrs),
		attValOf: make([]int64, 0, attrs),
		attValLn: make([]int32, 0, attrs),
		attFirst: make([]int32, 0, nodes+frags),
		content:  make([]byte, 0, content),
	}
}

// Intern returns the id of name in the dictionary the slab's fragments share.
func (s *FragmentSlab) Intern(name string) int32 { return s.dict.Intern(name) }

// NewFragment starts the next fragment on the slab.
func (s *FragmentSlab) NewFragment() *Builder {
	var d *Doc
	if len(s.docs) > 0 {
		d, s.docs = &s.docs[0], s.docs[1:]
	} else {
		d = new(Doc)
	}
	d.Fragment, d.dict = true, s.dict
	d.kind, d.name, d.size, d.level, d.parent = s.kind, s.name, s.size, s.level, s.parent
	d.valOff, d.valLen, d.content = s.valOff, s.valLen, s.content
	d.attName, d.attValOf, d.attValLn = s.attName, s.attValOf, s.attValLn
	d.attFirst = append(s.attFirst, 0)
	b := &s.b
	b.doc, b.slab, b.open = d, s, b.open[:0]
	b.inTag, b.err, b.finished = false, nil, false
	b.open = append(b.open, pushNode(b, DocumentNode, NoName, ""))
	return b
}

// seal clips a finished fragment's columns to their lengths and moves the
// slab's free tails behind the ones that still lie on it.
func (s *FragmentSlab) seal(d *Doc) {
	sealCol(&d.kind, &s.kind)
	sealCol(&d.name, &s.name)
	sealCol(&d.size, &s.size)
	sealCol(&d.level, &s.level)
	sealCol(&d.parent, &s.parent)
	sealCol(&d.valOff, &s.valOff)
	sealCol(&d.valLen, &s.valLen)
	sealCol(&d.attName, &s.attName)
	sealCol(&d.attValOf, &s.attValOf)
	sealCol(&d.attValLn, &s.attValLn)
	sealCol(&d.attFirst, &s.attFirst)
	sealCol(&d.content, &s.content)
}

// sealCol seals one column. The fragment started on the slab's free tail, so
// it still lies there exactly when the capacities agree: growing past the
// tail would have moved it to a larger array.
func sealCol[T any](col, free *[]T) {
	n := len(*col)
	if cap(*col) == cap(*free) {
		*free = (*free)[n:n]
	}
	*col = (*col)[:n:n]
}
