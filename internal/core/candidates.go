package core

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Candidates is the candidate sequence of a StandOff join (sections 3.2 and
// 4.3): the set of area-annotations that may appear in the result. Without a
// selection, the entire region index is the candidate sequence (All); with a
// pushed-down selection (e.g. an element name test), the selected areas'
// regions are read from the index's per-area geometry into the start
// ordering of the region index, without reading the unrestricted table.
//
// The sequence is stored struct-of-arrays: parallel start/end/id columns in
// each of the orders the joins consume, so the merge loops scan contiguous
// memory instead of chasing per-row indirections. Every view owns its
// columns; the unrestricted one is the index's start|end|id table itself.
//
// A view may be shared (the unrestricted one and those FilterByName caches
// are), so what it builds after creation it builds once: the suffix-mins of
// the start order, and the end order with its suffix-mins.
type Candidates struct {
	areas []int32 // candidate area pres, document order

	// Region columns, sorted by (start, end, id).
	rStart, rEnd []int64
	rID          []int32

	// Bounds columns: one row per area (covering region), sorted by
	// (start, end, id). Alias the region columns when every candidate is
	// single-region.
	bStart, bEnd []int64
	bID          []int32

	// Suffix-min ids of the bounds rows in start order, backing the
	// containment watermark (MinPreStartFrom).
	startOnce sync.Once
	startMin  []int32

	// The region columns in (end, start, id) order and their suffix-min ids
	// (the overlap joins and MinPreEndFrom), built on first use. from and dr,
	// when set, are the view this one was derived from and the rows that make
	// it this one: when from has built its end order, the build merges
	// instead of sorting.
	endOnce  sync.Once
	endBuilt atomic.Bool
	from     *Candidates
	dr       *deltaRows
	eStart   []int64
	eEnd     []int64
	eID      []int32
	endMin   []int32
}

// All returns the unrestricted candidate sequence (the whole index), built
// on first use: a base index sorts its geometry into the start-ordered
// region and bounds tables, a delta index merges its writes into its base's.
func (ix *RegionIndex) All() *Candidates {
	ix.allOnce.Do(ix.buildAll)
	return ix.all
}

// Filter returns the candidate sequence restricted to the given node pres,
// which must be sorted ascending and duplicate-free (document order, as an
// element-name index delivers them). Nodes that are not area-annotations are
// dropped silently: they can never be returned by a StandOff step. The
// view is built from the areas' geometry in start order (section 4.3); the
// unrestricted table is neither read nor built.
func (ix *RegionIndex) Filter(pres []int32) *Candidates {
	var live []int32
	for _, p := range pres {
		if ix.IsArea(p) {
			live = append(live, p)
		}
	}
	if !slices.IsSorted(live) {
		slices.Sort(live)
	}
	return ix.candidatesFrom(live)
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
	// A base index builds the view from its geometry. On a delta index, a
	// name no insert or delete ever touched has exactly the base's candidate
	// set (inserted areas carry touched names; deletes record every killed
	// area's name) and is served by the base's per-name cache; a touched
	// name applies its writes since the lineage's newest layer of it
	// (delta.go). Neither looks at another layer's rows.
	var c *Candidates
	switch {
	case ix.base == nil:
		c = ix.Filter(ix.doc.ElementsByName(nameID))
	case ix.nameTouched(nameID):
		c = ix.layer(nameID)
	default:
		return ix.base.FilterByName(nameID)
	}
	// Every chunked narrow step reads the start watermark, so its suffix-mins
	// are built now; the end order waits for a select-wide step (endOrder).
	c.startSuffixMin()
	actual, _ := ix.nameCands.LoadOrStore(nameID, c)
	if ix.base != nil {
		ix.carry(nameID, actual.(*Candidates))
	}
	return actual.(*Candidates)
}

// CandidatesOf returns the candidate sequence of the given areas named
// nameID: areas of ix, or of its base on a delta index, where a tombstoned
// one is dropped; duplicate-free, in any order. When they are all of the
// name's areas and FilterByName has cached those, the cached sequence is
// returned as is; otherwise the sequence is built from point lookups and a
// sort of the k areas' rows, not by a scan of the index. The result keeps
// pres.
func (ix *RegionIndex) CandidatesOf(nameID int32, pres []int32) *Candidates {
	live, named := pres, ix
	if ix.base != nil {
		live = pres[:0]
		for _, p := range pres {
			if !ix.tombstoned(p) {
				live = append(live, p)
			}
		}
		if !ix.nameTouched(nameID) {
			named = ix.base
		}
	}
	if v, ok := named.nameCands.Load(nameID); ok && v.(*Candidates).Len() == len(live) {
		return v.(*Candidates)
	}
	slices.Sort(live)
	return ix.candidatesFrom(live)
}

// Within returns the part of c whose areas lie in the pre range [lo, hi]:
// c itself when that is all of it, else a view built like CandidatesOf's,
// its areas cut from c's by binary search.
func (ix *RegionIndex) Within(c *Candidates, lo, hi int32) *Candidates {
	a, _ := slices.BinarySearch(c.areas, lo)
	b, _ := slices.BinarySearch(c.areas, hi+1)
	if a == 0 && b == len(c.areas) {
		return c
	}
	return ix.candidatesFrom(c.areas[a:b:b])
}

// candidatesFrom builds the candidate sequence of the live areas, ascending,
// from their regions; rows that arrive in start order, as those of a
// document written in position order do, are not sorted.
func (ix *RegionIndex) candidatesFrom(live []int32) *Candidates {
	rows := make([]row, 0, len(live))
	for _, p := range live {
		for _, r := range ix.RegionsOf(p) {
			rows = append(rows, row{r.Start, r.End, p})
		}
	}
	c := &Candidates{areas: live}
	c.rStart, c.rEnd, c.rID = sortedCols(rows)
	if !ix.multiRegion {
		c.bStart, c.bEnd, c.bID = c.rStart, c.rEnd, c.rID
		return c
	}
	rows = rows[:0]
	for _, p := range live {
		regs := ix.RegionsOf(p)
		rows = append(rows, row{regs[0].Start, regs[len(regs)-1].End, p})
	}
	c.bStart, c.bEnd, c.bID = sortedCols(rows)
	return c
}

// ContextAreas resolves the context nodes pres, node pres[i] bound in
// iteration iters[i] (every node in iteration 0 when iters is nil), to the
// Areas a join reads: each node's regions are looked up once, a node that is
// not an area-annotation drops, and one sort orders the rest by (start, end,
// iteration, pre), which within one iteration is a by-name view's order.
// With an arena the columns are on loan from it until the next ContextAreas
// call with it.
func (ix *RegionIndex) ContextAreas(pres, iters []int32, a *JoinArena) Areas {
	rows := a.getCtxRows(len(pres))
	for i, p := range pres {
		if r := ix.RegionsOf(p); len(r) > 0 {
			row := ctxRow{pre: p, start: r[0].Start, end: r[len(r)-1].End}
			if iters != nil {
				row.key = iters[i]
			}
			rows = append(rows, row)
		}
	}
	return sortedAreas(rows, iters != nil, false, a)
}

// Areas returns the view's areas as a context of MatchAreas: its bounds
// rows, as they are.
func (c *Candidates) Areas() Areas {
	return Areas{Start: c.bStart, End: c.bEnd, Pre: c.bID}
}

// AttrOrder is the value ordering of one attribute over the areas of one
// element name that carry it: once by the value's bytes, once by its numeric
// value (values that do not parse, and NaN, left out), ties by pre in both.
// It holds no comparison rule; callers binary-search it by their own. The
// columns must not be modified.
type AttrOrder struct {
	Str []ValuePre[[]byte]
	Num []ValuePre[float64]
}

// ValuePre is one entry of an AttrOrder column.
type ValuePre[V any] struct {
	Val V
	Pre int32
}

type attrKey struct{ name, attr int32 }

// attrOrderBuilds counts AttrOrder builds, process-wide (see AttrOrderBuilds).
var attrOrderBuilds atomic.Uint64

// AttrOrderBuilds returns how many value orderings were built, process-wide.
func AttrOrderBuilds() uint64 { return attrOrderBuilds.Load() }

// AttrOrder returns the value ordering of attribute attrID over the base
// areas named nameID, built on first use and cached like FilterByName. num
// parses a value as a number; the cache is keyed on the two names alone, so
// every caller must pass the same rule. A delta index serves its base's
// ordering and builds none: its caller drops tombstoned pres (CandidatesOf
// does) and tests the name's live inserts (InsertedAreas) itself.
func (ix *RegionIndex) AttrOrder(nameID, attrID int32, num func([]byte) (float64, bool)) *AttrOrder {
	if ix.base != nil {
		return ix.base.AttrOrder(nameID, attrID, num)
	}
	key := attrKey{nameID, attrID}
	if v, ok := ix.attrOrders.Load(key); ok {
		return v.(*AttrOrder)
	}
	attrOrderBuilds.Add(1)
	o, d := &AttrOrder{}, ix.doc
	for _, pre := range ix.FilterByName(nameID).areas {
		if a := d.Attr(pre, attrID); a >= 0 {
			v := d.AttrValueBytes(a)
			o.Str = append(o.Str, ValuePre[[]byte]{v, pre})
			if x, ok := num(v); ok && !math.IsNaN(x) {
				o.Num = append(o.Num, ValuePre[float64]{x, pre})
			}
		}
	}
	slices.SortFunc(o.Str, func(a, b ValuePre[[]byte]) int { return cmp.Or(bytes.Compare(a.Val, b.Val), cmp.Compare(a.Pre, b.Pre)) })
	slices.SortFunc(o.Num, func(a, b ValuePre[float64]) int { return cmp.Or(cmp.Compare(a.Val, b.Val), cmp.Compare(a.Pre, b.Pre)) })
	actual, _ := ix.attrOrders.LoadOrStore(key, o)
	return actual.(*AttrOrder)
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

// endCols returns the region columns in (end, start, id) order.
func (c *Candidates) endCols() (start, end []int64, id []int32) {
	c.endOrder()
	return c.eStart, c.eEnd, c.eID
}

// endOrder builds the end order and its suffix-mins, once: merged from the
// view c was derived from when that view has built its own, sorted otherwise.
func (c *Candidates) endOrder() {
	c.endOnce.Do(func() {
		if c.from != nil && c.from.endBuilt.Load() {
			c.eStart, c.eEnd, c.eID = mergeByEnd(c.from.eStart, c.from.eEnd, c.from.eID, c.dr)
		} else {
			c.eStart, c.eEnd, c.eID = byEnd(c.rStart, c.rEnd, c.rID)
		}
		c.from, c.dr = nil, nil
		c.endMin = suffixMinIDs(c.eID)
		c.endBuilt.Store(true)
	})
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
// start order.
func (c *Candidates) startSuffixMin() []int32 {
	c.startOnce.Do(func() { c.startMin = suffixMinIDs(c.bID) })
	return c.startMin
}

// endSuffixMin returns the suffix-min of region ids over the end-ordered
// region rows.
func (c *Candidates) endSuffixMin() []int32 {
	c.endOrder()
	return c.endMin
}
