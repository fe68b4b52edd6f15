package tree

// Dict is an append-only string dictionary mapping element and attribute
// names to dense int32 ids. One Dict belongs to one Doc (documents do not
// share dictionaries, keeping each document self-contained, which mirrors
// the per-fragment indexing argument of section 3.3).
//
// Dict is not safe for concurrent writers; after the owning Doc is sealed it
// is only read.
type Dict struct {
	byName map[string]int32
	names  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byName: make(map[string]int32)}
}

// Intern returns the id for name, assigning a fresh id when unseen.
func (d *Dict) Intern(name string) int32 { return intern(d, name) }

// intern is Intern over a string or a slice of the input; the map probe
// converts without allocating, so only a name's first sighting makes a string.
func intern[S chars](d *Dict, name S) int32 {
	if id, ok := d.byName[string(name)]; ok {
		return id
	}
	id := int32(len(d.names))
	s := string(name)
	d.names = append(d.names, s)
	d.byName[s] = id
	return id
}

// Lookup returns the id for name without interning.
func (d *Dict) Lookup(name string) (int32, bool) {
	id, ok := d.byName[name]
	return id, ok
}

// clone returns an independent copy with identical id assignments. An
// Appender interning a name unseen by the shared dictionary clones first
// (copy-on-write), so concurrent readers of older snapshots never observe a
// map write.
func (d *Dict) clone() *Dict {
	c := &Dict{
		byName: make(map[string]int32, len(d.byName)),
		names:  append([]string(nil), d.names...),
	}
	for name, id := range d.byName {
		c.byName[name] = id
	}
	return c
}

// Name returns the string for id.
func (d *Dict) Name(id int32) string { return d.names[id] }

// Len returns the number of interned names.
func (d *Dict) Len() int { return len(d.names) }
