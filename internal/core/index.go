package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"soxq/internal/interval"
	"soxq/internal/tree"
)

// RegionIndex is the paper's region index (section 4.3): a start|end|id
// table clustered on start, where id is the pre-order rank of the
// area-annotation element. Non-contiguous areas are represented by repeating
// the same id in several rows. In addition the index keeps, per annotated
// node, its region list (for context fetch) and a bounds table with one row
// per area (used by the containment fast path). Its unrestricted candidate
// view (All) builds the end order the overlap joins read on first use.
//
// A RegionIndex is immutable after Build and safe for concurrent use.
// Annotation writes derive new index layers instead of mutating (see
// delta.go): a delta index carries the base pointer and its delta columns,
// serves named candidate sequences and point lookups from them, and fills the
// merged orderings below only for a reader that needs every row.
type RegionIndex struct {
	doc  *tree.Doc
	opts Options

	// Delta layers (nil/empty on a base index; see delta.go). insPre ascends
	// and insPre[i] owns insRegs[insOff[i]:insOff[i+1]]; delPre lists every
	// tombstoned area, ascending, and delLog the same deletes in derivation
	// order with their names. The insert columns and the delete log extend
	// the parent layer's in place, so derivation must be linear and
	// serialized (engine write lock).
	base            *RegionIndex
	insPre, insName []int32
	insOff          []int32
	insRegs         []interval.Region
	delPre          []int32
	delLog          []tomb
	mergeOnce       sync.Once

	// carried is the lineage's layer memo, on its base index only: element
	// name id -> *carriedLayer, the newest materialised layer of that name.
	carried sync.Map

	// Live area, region-row and multi-region-area counts: set at build,
	// carried and adjusted by every delta derivation.
	nAreas, nRegions, nMulti int

	// Region rows, sorted by (start, end, id).
	rStart []int64
	rEnd   []int64
	rID    []int32

	// Bounds rows: one row per area (covering region), sorted by
	// (start, end, id). Aliases the region rows when every area is
	// single-region.
	bStart []int64
	bEnd   []int64
	bID    []int32

	// Per-area geometry: areas is the ascending pre list of annotated
	// nodes; area i owns areaRegs[areaOff[i]:areaOff[i+1]], or areaRegs[i]
	// while every area has one region and areaOff is nil (see addRegions).
	areas    []int32
	areaOff  []int32
	areaRegs []interval.Region
	rank     []int32 // pre -> position in areas, -1 for no area; ends at the last area
	rows     []row   // build scratch: the region rows before sorting

	multiRegion bool

	all *Candidates // the unrestricted view; a delta index sets it at its full merge

	nameCands  sync.Map // element name id -> *Candidates (FilterByName cache)
	attrOrders sync.Map // attrKey -> *AttrOrder (AttrOrder cache, base only)
}

// BuildIndex scans doc for area-annotations according to opts and builds the
// region index. In attribute mode an element is an area-annotation iff it
// carries both the start and end attributes; having only one of the two is a
// configuration or data error and is rejected. In region-element mode an
// element is an area-annotation iff it has one or more region child
// elements, each holding start and end child elements.
func BuildIndex(doc *tree.Doc, opts Options) (*RegionIndex, error) {
	ix := &RegionIndex{doc: doc, opts: opts}
	var err error
	if opts.UseRegionElements {
		err = ix.scanRegionElements()
	} else {
		err = ix.scanAttributes()
	}
	if err != nil {
		return nil, err
	}
	ix.sortRows()
	return ix, nil
}

func (ix *RegionIndex) scanAttributes() error {
	d := ix.doc
	startID, ok1 := d.Dict().Lookup(ix.opts.Start)
	endID, ok2 := d.Dict().Lookup(ix.opts.End)
	if !ok1 || !ok2 {
		// The document has no such attributes at all: an empty index.
		if ok1 != ok2 {
			return fmt.Errorf("core: document %q has %q attributes but no %q attributes",
				d.Name, pick(ok1, ix.opts.Start, ix.opts.End), pick(ok1, ix.opts.End, ix.opts.Start))
		}
		return nil
	}
	areas := 0
	for i := int32(0); i < int32(d.NumAttrs()); i++ {
		if d.AttrNameID(i) == startID {
			areas++
		}
	}
	ix.reserve(areas, areas)
	n := int32(d.NumNodes())
	for pre := int32(0); pre < n; pre++ {
		if d.Kind(pre) != tree.ElementNode || !d.Alive(pre) {
			continue
		}
		si := d.Attr(pre, startID)
		ei := d.Attr(pre, endID)
		if si < 0 && ei < 0 {
			continue
		}
		if si < 0 || ei < 0 {
			return fmt.Errorf("core: element <%s> (pre %d) has only one of %q/%q",
				d.NodeName(pre), pre, ix.opts.Start, ix.opts.End)
		}
		start, err := ix.parsePos(d.AttrValueBytes(si))
		if err != nil {
			return fmt.Errorf("core: element <%s> (pre %d): bad %s: %v", d.NodeName(pre), pre, ix.opts.Start, err)
		}
		end, err := ix.parsePos(d.AttrValueBytes(ei))
		if err != nil {
			return fmt.Errorf("core: element <%s> (pre %d): bad %s: %v", d.NodeName(pre), pre, ix.opts.End, err)
		}
		if start > end {
			return fmt.Errorf("core: element <%s> (pre %d): region start %d > end %d",
				d.NodeName(pre), pre, start, end)
		}
		ix.addArea(pre, []interval.Region{{Start: start, End: end}})
	}
	return nil
}

func (ix *RegionIndex) scanRegionElements() error {
	d := ix.doc
	regionID, ok := d.Dict().Lookup(ix.opts.Region)
	if !ok {
		return nil
	}
	startID, _ := d.Dict().Lookup(ix.opts.Start)
	endID, _ := d.Dict().Lookup(ix.opts.End)
	n := int32(d.NumNodes())
	regions := len(d.ElementsByName(regionID))
	ix.reserve(regions, regions)
	for pre := int32(0); pre < n; pre++ {
		if d.Kind(pre) != tree.ElementNode || d.NameID(pre) == regionID || !d.Alive(pre) {
			continue
		}
		var regions []interval.Region
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			if d.Kind(c) != tree.ElementNode || d.NameID(c) != regionID {
				continue
			}
			r, err := ix.readRegionElement(c, startID, endID)
			if err != nil {
				return err
			}
			regions = append(regions, r)
		}
		if len(regions) == 0 {
			continue
		}
		area, err := interval.NewArea(regions...)
		if err != nil {
			return fmt.Errorf("core: element <%s> (pre %d): %v", d.NodeName(pre), pre, err)
		}
		ix.addArea(pre, area.Regions())
	}
	return nil
}

func (ix *RegionIndex) readRegionElement(pre, startID, endID int32) (interval.Region, error) {
	d := ix.doc
	var startStr, endStr string
	var haveStart, haveEnd bool
	for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
		if d.Kind(c) != tree.ElementNode {
			continue
		}
		switch d.NameID(c) {
		case startID:
			startStr, haveStart = d.StringValue(c), true
		case endID:
			endStr, haveEnd = d.StringValue(c), true
		}
	}
	if !haveStart || !haveEnd {
		return interval.Region{}, fmt.Errorf("core: <%s> region (pre %d) misses <%s> or <%s>",
			ix.opts.Region, pre, ix.opts.Start, ix.opts.End)
	}
	start, err := ix.opts.ParsePosition(strings.Trim(startStr, " \t\n\r"))
	if err != nil {
		return interval.Region{}, fmt.Errorf("core: region (pre %d): %v", pre, err)
	}
	end, err := ix.opts.ParsePosition(strings.Trim(endStr, " \t\n\r"))
	if err != nil {
		return interval.Region{}, fmt.Errorf("core: region (pre %d): %v", pre, err)
	}
	return interval.NewRegion(start, end)
}

// reserve sizes the build for at most areas areas and regions region rows, so
// that addArea never re-grows a column.
func (ix *RegionIndex) reserve(areas, regions int) {
	ix.areas = make([]int32, 0, areas)
	ix.areaRegs = make([]interval.Region, 0, regions)
	ix.rows = make([]row, 0, regions)
}

// addArea appends one area; pres must ascend across calls.
func (ix *RegionIndex) addArea(pre int32, regions []interval.Region) {
	ix.areas = append(ix.areas, pre)
	ix.addRegions(regions)
	for _, r := range regions {
		ix.rows = append(ix.rows, row{r.Start, r.End, pre})
	}
	ix.count(regions, 1)
}

// addRegions appends the regions of the area just added to the per-area
// geometry. Until an area has several regions, area i owns areaRegs[i] and
// there are no offsets to keep; the first one that has writes those so far.
func (ix *RegionIndex) addRegions(regions []interval.Region) {
	if len(regions) > 1 && ix.areaOff == nil {
		ix.areaOff = make([]int32, len(ix.areaRegs), cap(ix.areas)+1)
		for i := range ix.areaOff {
			ix.areaOff[i] = int32(i)
		}
	}
	if ix.areaOff != nil {
		ix.areaOff = append(ix.areaOff, int32(len(ix.areaRegs)))
	}
	ix.areaRegs = append(ix.areaRegs, regions...)
}

// areaRegions returns the regions of the area of the given rank.
func (ix *RegionIndex) areaRegions(rank int32) []interval.Region {
	if ix.areaOff == nil {
		return ix.areaRegs[rank : rank+1]
	}
	return ix.areaRegs[ix.areaOff[rank]:ix.areaOff[rank+1]]
}

// sealAreas terminates the per-area geometry and builds the dense rank column
// over the areas.
func (ix *RegionIndex) sealAreas() {
	if ix.areaOff != nil {
		ix.areaOff = append(ix.areaOff, int32(len(ix.areaRegs)))
	}
	if nA := len(ix.areas); nA > 0 {
		ix.rank = make([]int32, ix.areas[nA-1]+1)
		for i := range ix.rank {
			ix.rank[i] = -1
		}
		for i, pre := range ix.areas {
			ix.rank[pre] = int32(i)
		}
	}
}

// sortRows seals a build: the per-area geometry and rank, the region rows in
// (start, end, id) order and, when some area has several regions, one
// covering bounds row per area in the same order.
func (ix *RegionIndex) sortRows() {
	ix.sealAreas()
	ix.rStart, ix.rEnd, ix.rID = sortedCols(ix.rows)
	ix.rows = nil
	ix.bStart, ix.bEnd, ix.bID = ix.rStart, ix.rEnd, ix.rID
	if ix.multiRegion {
		bounds := make([]row, len(ix.areas))
		for i, pre := range ix.areas {
			regs := ix.areaRegions(int32(i))
			bounds[i] = row{regs[0].Start, regs[len(regs)-1].End, pre}
		}
		ix.bStart, ix.bEnd, ix.bID = sortedCols(bounds)
	}
	ix.all = ix.view()
}

// view returns a candidate view over the index's own columns.
func (ix *RegionIndex) view() *Candidates {
	return &Candidates{areas: ix.areas, rStart: ix.rStart, rEnd: ix.rEnd, rID: ix.rID, bStart: ix.bStart, bEnd: ix.bEnd, bID: ix.bID}
}

// row is one sort key of the build: a region or bounds row keyed
// (start, end, id), or a region row keyed (end, start, id) for the end order.
type row struct {
	k1, k2 int64
	id     int32
}

func cmpRows(a, b row) int {
	if c := cmp.Compare(a.k1, b.k1); c != 0 {
		return c
	}
	if c := cmp.Compare(a.k2, b.k2); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// sortedCols sorts rows by (k1, k2, id), unless they arrive sorted as the
// rows of a document written in position order do, and unpacks them into
// columns of exact size. Equal keys are equal rows, so the order is unique.
func sortedCols(rows []row) (k1, k2 []int64, id []int32) {
	if !slices.IsSortedFunc(rows, cmpRows) {
		slices.SortFunc(rows, cmpRows)
	}
	k1, k2, id = make([]int64, len(rows)), make([]int64, len(rows)), make([]int32, len(rows))
	for i, r := range rows {
		k1[i], k2[i], id[i] = r.k1, r.k2, r.id
	}
	return k1, k2, id
}

// byEnd returns the given (start, end, id) columns in (end, start, id) order.
func byEnd(rStart, rEnd []int64, rID []int32) (start, end []int64, id []int32) {
	rows := make([]row, len(rID))
	for i := range rows {
		rows[i] = row{rEnd[i], rStart[i], rID[i]}
	}
	end, start, id = sortedCols(rows)
	return start, end, id
}

// suffixMinIDs returns the suffix-min array of ids.
func suffixMinIDs(ids []int32) []int32 {
	out := make([]int32, len(ids))
	m := int32(1<<31 - 1)
	for k := len(ids) - 1; k >= 0; k-- {
		m = min(m, ids[k])
		out[k] = m
	}
	return out
}

// Doc returns the indexed document.
func (ix *RegionIndex) Doc() *tree.Doc { return ix.doc }

// Options returns the options the index was built with.
func (ix *RegionIndex) Options() Options { return ix.opts }

// NumAreas returns the number of area-annotations in the document.
func (ix *RegionIndex) NumAreas() int { return ix.nAreas }

// NumRegions returns the number of region rows (>= NumAreas).
func (ix *RegionIndex) NumRegions() int { return ix.nRegions }

// MultiRegion reports whether any area has more than one region.
func (ix *RegionIndex) MultiRegion() bool { return ix.multiRegion }

// IsArea reports whether node pre is an area-annotation.
func (ix *RegionIndex) IsArea(pre int32) bool { return ix.RegionsOf(pre) != nil }

// RegionsOf returns the regions of area pre (start-ordered), or nil when pre
// is not an area-annotation. The returned slice must not be modified. On a
// delta index the lookup routes tombstone -> delta -> base by binary search
// of the sorted delta columns; nothing is merged.
func (ix *RegionIndex) RegionsOf(pre int32) []interval.Region {
	if ix.base != nil {
		if ix.tombstoned(pre) {
			return nil
		}
		if i := inSorted(ix.insPre, pre); i >= 0 {
			return ix.insRegions(i)
		}
		return ix.base.RegionsOf(pre)
	}
	if uint(pre) >= uint(len(ix.rank)) || ix.rank[pre] < 0 {
		return nil
	}
	return ix.areaRegions(ix.rank[pre])
}

// AreaOf returns the area geometry of node pre.
func (ix *RegionIndex) AreaOf(pre int32) (interval.Area, bool) {
	regs := ix.RegionsOf(pre)
	if regs == nil {
		return interval.Area{}, false
	}
	a, err := interval.NewArea(regs...)
	if err != nil {
		return interval.Area{}, false
	}
	return a, true
}

// regionCount returns the number of regions of area pre.
func (ix *RegionIndex) regionCount(pre int32) int32 { return int32(len(ix.RegionsOf(pre))) }

func (ix *RegionIndex) parsePos(b []byte) (int64, error) {
	if ix.opts.Type == TypeInteger {
		return parseIntBytes(b)
	}
	return ix.opts.ParsePosition(string(b))
}

// parseIntBytes parses a decimal int64 from bytes without allocating.
func parseIntBytes(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty integer")
	}
	neg := false
	i := 0
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i++
		if i == len(b) {
			return 0, fmt.Errorf("bare sign")
		}
	}
	// The magnitude is bounded by MaxInt64, or by its successor for a
	// negative value, so MinInt64 parses.
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	var v uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad digit %q in %q", c, b)
		}
		d := uint64(c - '0')
		if v > (limit-d)/10 {
			return 0, fmt.Errorf("integer overflow in %q", b)
		}
		v = v*10 + d
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

func pick(cond bool, a, b string) string {
	if cond {
		return a
	}
	return b
}
