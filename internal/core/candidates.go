package core

import "sort"

// Candidates is the candidate sequence of a StandOff join (sections 3.2 and
// 4.3): the set of area-annotations that may appear in the result. Without a
// selection, the entire region index is the candidate sequence; with a
// pushed-down selection (e.g. an element name test), an index intersection
// on node id is performed that preserves the start ordering of the region
// index.
//
// The sequence is stored struct-of-arrays: parallel start/end/id columns in
// each of the orders the joins consume, so the merge loops scan contiguous
// memory instead of chasing per-row indirections. The unrestricted view
// aliases the index's own columns; filtered views materialise their own.
type Candidates struct {
	ix  *RegionIndex
	all bool

	areas []int32 // candidate area pres, document order

	// Region columns, sorted by (start, end, id).
	rStart, rEnd []int64
	rID          []int32

	// Bounds columns: one row per area (covering region), sorted by
	// (start, end, id). Alias the region columns when every candidate is
	// single-region.
	bStart, bEnd []int64
	bID          []int32

	// Region columns sorted by (end, start, id); lazy for filtered views
	// (see endCols), pre-built for FilterByName-cached ones.
	eStart, eEnd []int64
	eID          []int32

	// Suffix-min id arrays over the start- and end-ordered columns, backing
	// the streaming-merge watermarks; lazy (see MinPreStartFrom/MinPreEndFrom).
	startMin []int32
	endMin   []int32
}

// All returns the unrestricted candidate sequence (the whole index).
func (ix *RegionIndex) All() *Candidates {
	ix.materialize()
	return &Candidates{
		ix: ix, all: true,
		areas:  ix.areas,
		rStart: ix.rStart, rEnd: ix.rEnd, rID: ix.rID,
		bStart: ix.bStart, bEnd: ix.bEnd, bID: ix.bID,
	}
}

// Filter returns the candidate sequence restricted to the given node pres,
// which must be sorted ascending and duplicate-free (document order, as an
// element-name index delivers them). Nodes that are not area-annotations are
// dropped silently: they can never be returned by a StandOff step. The
// intersection scans the region index once, preserving its start order
// (section 4.3).
func (ix *RegionIndex) Filter(pres []int32) *Candidates {
	ix.materialize()
	c := &Candidates{ix: ix}
	if len(pres) == 0 {
		return c
	}
	bits := make([]uint64, (ix.doc.NumNodes()+63)/64)
	for _, p := range pres {
		if ix.IsArea(p) {
			bits[p>>6] |= 1 << (uint(p) & 63)
			c.areas = append(c.areas, p)
		}
	}
	if !sort.SliceIsSorted(c.areas, func(i, j int) bool { return c.areas[i] < c.areas[j] }) {
		sort.Slice(c.areas, func(i, j int) bool { return c.areas[i] < c.areas[j] })
	}
	for i := range ix.rID {
		if id := ix.rID[i]; bits[id>>6]&(1<<(uint(id)&63)) != 0 {
			c.rStart = append(c.rStart, ix.rStart[i])
			c.rEnd = append(c.rEnd, ix.rEnd[i])
			c.rID = append(c.rID, id)
		}
	}
	if !ix.multiRegion {
		c.bStart, c.bEnd, c.bID = c.rStart, c.rEnd, c.rID
		return c
	}
	for i := range ix.bID {
		if id := ix.bID[i]; bits[id>>6]&(1<<(uint(id)&63)) != 0 {
			c.bStart = append(c.bStart, ix.bStart[i])
			c.bEnd = append(c.bEnd, ix.bEnd[i])
			c.bID = append(c.bID, id)
		}
	}
	return c
}

// FilterByName returns the candidate sequence of all area-annotations with
// the given element name id, caching the intersection per name: repeated
// StandOff steps with the same name test (every query re-run, every loop)
// then skip the index scan — the "pre-created effective indices" that
// section 3.3 argues per-document steps make possible.
func (ix *RegionIndex) FilterByName(nameID int32) *Candidates {
	if v, ok := ix.nameCands.Load(nameID); ok {
		return v.(*Candidates)
	}
	// On a delta index, a name no insert or delete ever touched has exactly
	// the base's candidate set (inserted areas carry touched names; deletes
	// record every killed area's name) and is served by the base's per-name
	// cache; a touched name merges that cached sequence with its own delta
	// rows. Neither looks at another layer's rows.
	var c *Candidates
	switch {
	case ix.base == nil:
		c = ix.Filter(ix.doc.ElementsByName(nameID))
	case ix.nameTouched(nameID):
		c = ix.layer(nameID)
	default:
		return ix.base.FilterByName(nameID)
	}
	// Pre-build the end-ordered columns and the watermark suffix-mins, so
	// cached candidates are immediately usable by the overlap joins and the
	// streaming merge without a lazy write after publication.
	c.endCols()
	c.startSuffixMin()
	c.endSuffixMin()
	actual, _ := ix.nameCands.LoadOrStore(nameID, c)
	return actual.(*Candidates)
}

// AreaPres returns the candidate area-annotation pres in document order.
func (c *Candidates) AreaPres() []int32 { return c.areas }

// Len returns the number of candidate areas.
func (c *Candidates) Len() int { return len(c.areas) }

// boundsCols returns the bounds columns (one row per area) in start order.
func (c *Candidates) boundsCols() (start, end []int64, id []int32) {
	return c.bStart, c.bEnd, c.bID
}

// regionCols returns the region columns in start order.
func (c *Candidates) regionCols() (start, end []int64, id []int32) {
	return c.rStart, c.rEnd, c.rID
}

// endCols returns the region columns in (end, start, id) order. The
// unrestricted view shares the index's lazily built columns; a filtered view
// sorts its own once.
func (c *Candidates) endCols() (start, end []int64, id []int32) {
	if c.all {
		return c.ix.endCols()
	}
	if c.eID == nil && len(c.rID) > 0 {
		c.eStart, c.eEnd, c.eID = byEnd(c.rStart, c.rEnd, c.rID)
	}
	return c.eStart, c.eEnd, c.eID
}

// regionLen returns the number of candidate region rows.
func (c *Candidates) regionLen() int { return len(c.rID) }

// regionRow returns the k-th candidate region row in start order.
func (c *Candidates) regionRow(k int) (start, end int64, id int32) {
	return c.rStart[k], c.rEnd[k], c.rID[k]
}

// regionRowByEnd returns the k-th candidate region row in end order.
func (c *Candidates) regionRowByEnd(k int) (start, end int64, id int32) {
	es, ee, eid := c.endCols()
	return es[k], ee[k], eid[k]
}

func (c *Candidates) boundsLen() int { return len(c.bID) }

// boundsRow returns the k-th candidate bounds row (one per area) in start
// order.
func (c *Candidates) boundsRow(k int) (start, end int64, id int32) {
	return c.bStart[k], c.bEnd[k], c.bID[k]
}

// MinPreStartFrom returns the smallest candidate area pre whose bounding
// region starts at or after s (ok=false when no candidate starts there).
// This is the containment-join watermark of the chunked StandOff stream: a
// candidate contained in a context area whose regions all start at or after
// s must itself start at or after s, so every candidate pre below the
// returned value is final once the remaining context frontier reaches s.
func (c *Candidates) MinPreStartFrom(s int64) (int32, bool) {
	mins := c.startSuffixMin()
	bs := c.bStart
	k := sort.Search(len(bs), func(k int) bool { return bs[k] >= s })
	if k >= len(mins) {
		return 0, false
	}
	return mins[k], true
}

// MinPreEndFrom returns the smallest candidate area pre having a region that
// ends at or after e (ok=false when none does) — the overlap-join watermark:
// a candidate overlapping a context area whose regions all start at or after
// e must have a region ending at or after e.
func (c *Candidates) MinPreEndFrom(e int64) (int32, bool) {
	mins := c.endSuffixMin()
	_, ee, _ := c.endCols()
	k := sort.Search(len(ee), func(k int) bool { return ee[k] >= e })
	if k >= len(mins) {
		return 0, false
	}
	return mins[k], true
}

// startSuffixMin returns the suffix-min of area ids over the bounds rows in
// start order. Unfiltered candidates share the index's array; filtered ones
// build their own lazily (a filtered Candidates cached by FilterByName has it
// pre-built, like the end-ordered columns, so cached candidates stay
// read-only).
func (c *Candidates) startSuffixMin() []int32 {
	if c.all {
		bMin, _ := c.ix.suffixMins()
		return bMin
	}
	if c.startMin == nil {
		c.startMin = suffixMinIDs(len(c.bID), func(k int) int32 { return c.bID[k] })
	}
	return c.startMin
}

// endSuffixMin returns the suffix-min of region ids over the end-ordered
// region rows.
func (c *Candidates) endSuffixMin() []int32 {
	if c.all {
		_, eMin := c.ix.suffixMins()
		return eMin
	}
	if c.endMin == nil {
		_, _, eid := c.endCols()
		c.endMin = suffixMinIDs(len(eid), func(k int) int32 { return eid[k] })
	}
	return c.endMin
}
