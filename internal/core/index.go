package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"soxq/internal/interval"
	"soxq/internal/tree"
)

// RegionIndex is the paper's region index (section 4.3): a start|end|id
// table clustered on start, where id is the pre-order rank of the
// area-annotation element. Non-contiguous areas are represented by repeating
// the same id in several rows. In addition the index keeps, per annotated
// node, its region list (for context fetch) and a bounds table with one row
// per area (used by the containment fast path), plus a lazily built
// end-ordered permutation used by the overlap joins.
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
	// tombstoned area, ascending. The insert columns extend the parent
	// layer's columns in place, so derivation must be linear and serialized
	// (engine write lock).
	base            *RegionIndex
	insPre, insName []int32
	insOff          []int32
	insRegs         []interval.Region
	delPre, delName []int32
	mergeOnce       sync.Once
	delta           *deltaRows // whole-index delta rows, set by the full merge

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
	// nodes; area i owns areaRegs[areaOff[i]:areaOff[i+1]].
	areas    []int32
	areaOff  []int32
	areaRegs []interval.Region
	rank     []int32 // pre -> position in areas, -1 for no area; ends at the last area
	rows     []row   // build scratch: the region rows before sorting

	multiRegion bool

	endPermOnce sync.Once
	eDone       atomic.Bool // end-ordered columns built (guards delta-aware derivation)
	// Flat region columns in (end, start, id) order — the overlap joins scan
	// these contiguously instead of dereferencing a permutation per row.
	eStart []int64
	eEnd   []int64
	eID    []int32

	suffixOnce sync.Once
	bSuffixMin []int32 // suffix-min of bID over the bounds rows (start order)
	eSuffixMin []int32 // suffix-min of rID over the end-ordered region rows

	statsOnce sync.Once
	stats     Stats // planner statistics, built lazily (see stats.go)

	nameCands sync.Map // element name id -> *Candidates (FilterByName cache)
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
	start, err := ix.opts.ParsePosition(trimSpace(startStr))
	if err != nil {
		return interval.Region{}, fmt.Errorf("core: region (pre %d): %v", pre, err)
	}
	end, err := ix.opts.ParsePosition(trimSpace(endStr))
	if err != nil {
		return interval.Region{}, fmt.Errorf("core: region (pre %d): %v", pre, err)
	}
	return interval.NewRegion(start, end)
}

// reserve sizes the build for at most areas areas and regions region rows, so
// that addArea never re-grows a column.
func (ix *RegionIndex) reserve(areas, regions int) {
	ix.areas = make([]int32, 0, areas)
	ix.areaOff = make([]int32, 0, areas+1)
	ix.areaRegs = make([]interval.Region, 0, regions)
	ix.rows = make([]row, 0, regions)
}

// addArea appends one area; pres must ascend across calls.
func (ix *RegionIndex) addArea(pre int32, regions []interval.Region) {
	ix.areas = append(ix.areas, pre)
	ix.areaOff = append(ix.areaOff, int32(len(ix.areaRegs)))
	ix.areaRegs = append(ix.areaRegs, regions...)
	for _, r := range regions {
		ix.rows = append(ix.rows, row{r.Start, r.End, pre})
	}
	ix.count(regions, 1)
}

// sortRows seals a build: the dense rank column over the areas added, the
// region rows in (start, end, id) order and, when some area has several
// regions, one covering bounds row per area in the same order.
func (ix *RegionIndex) sortRows() {
	ix.areaOff = append(ix.areaOff, int32(len(ix.areaRegs)))
	if nA := len(ix.areas); nA > 0 {
		ix.rank = make([]int32, ix.areas[nA-1]+1)
		for i := range ix.rank {
			ix.rank[i] = -1
		}
		for i, pre := range ix.areas {
			ix.rank[pre] = int32(i)
		}
	}
	ix.rStart, ix.rEnd, ix.rID = sortedCols(ix.rows)
	ix.rows = nil
	if !ix.multiRegion {
		ix.bStart, ix.bEnd, ix.bID = ix.rStart, ix.rEnd, ix.rID
		return
	}
	bounds := make([]row, len(ix.areas))
	for i, pre := range ix.areas {
		regs := ix.areaRegs[ix.areaOff[i]:ix.areaOff[i+1]]
		bounds[i] = row{regs[0].Start, regs[len(regs)-1].End, pre}
	}
	ix.bStart, ix.bEnd, ix.bID = sortedCols(bounds)
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

// endCols returns the flat region columns in (end, start, id) order.
func (ix *RegionIndex) endCols() (start, end []int64, id []int32) {
	ix.materialize()
	ix.endPermOnce.Do(ix.buildEndOrder)
	return ix.eStart, ix.eEnd, ix.eID
}

func (ix *RegionIndex) buildEndOrder() {
	defer ix.eDone.Store(true)
	if b := ix.base; b != nil && b.eDone.Load() {
		// Delta-aware path: the base already paid for its end-ordering, so
		// derive the merged one by the same run-copy merge the start ordering
		// used, O(n + d log n) instead of a fresh O(n log n) sort.
		ix.eStart, ix.eEnd, ix.eID = mergeByEnd(b.eStart, b.eEnd, b.eID, ix.delta)
		return
	}
	ix.eStart, ix.eEnd, ix.eID = byEnd(ix.rStart, ix.rEnd, ix.rID)
}

// suffixMins returns the whole-index suffix-min id arrays backing the
// streaming-merge watermarks (see Candidates.MinPreStartFrom/MinPreEndFrom):
// bSuffixMin[k] is the smallest area id among bounds rows k.. in start order,
// eSuffixMin[k] the smallest region id among end-ordered rows k.. . Built
// once; the index is immutable so the arrays are shareable.
func (ix *RegionIndex) suffixMins() (bMin, eMin []int32) {
	ix.materialize()
	ix.suffixOnce.Do(func() {
		ix.bSuffixMin = suffixMinIDs(len(ix.bID), func(k int) int32 { return ix.bID[k] })
		_, _, eid := ix.endCols()
		ix.eSuffixMin = suffixMinIDs(len(eid), func(k int) int32 { return eid[k] })
	})
	return ix.bSuffixMin, ix.eSuffixMin
}

// suffixMinIDs builds the suffix-min array of n ids.
func suffixMinIDs(n int, id func(int) int32) []int32 {
	out := make([]int32, n)
	m := int32(1<<31 - 1)
	for k := n - 1; k >= 0; k-- {
		if v := id(k); v < m {
			m = v
		}
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

// Areas returns the ascending pre list of all area-annotations. The returned
// slice must not be modified.
func (ix *RegionIndex) Areas() []int32 { ix.materialize(); return ix.areas }

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
		if i, ok := slices.BinarySearch(ix.insPre, pre); ok {
			return ix.insRegions(i)
		}
		return ix.base.RegionsOf(pre)
	}
	if uint(pre) >= uint(len(ix.rank)) || ix.rank[pre] < 0 {
		return nil
	}
	rank := ix.rank[pre]
	return ix.areaRegs[ix.areaOff[rank]:ix.areaOff[rank+1]]
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
	var v int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad digit %q in %q", c, b)
		}
		d := int64(c - '0')
		if v > (1<<63-1-d)/10 {
			return 0, fmt.Errorf("integer overflow in %q", b)
		}
		v = v*10 + d
	}
	if neg {
		return -v, nil
	}
	return v, nil
}

func trimSpace(s string) string {
	i, j := 0, len(s)
	for i < j && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	for j > i && (s[j-1] == ' ' || s[j-1] == '\t' || s[j-1] == '\n' || s[j-1] == '\r') {
		j--
	}
	return s[i:j]
}

func pick(cond bool, a, b string) string {
	if cond {
		return a
	}
	return b
}
