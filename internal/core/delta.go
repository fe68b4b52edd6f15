package core

import (
	"slices"
	"sort"
	"sync/atomic"

	"soxq/internal/interval"
	"soxq/internal/tree"
)

// LSM-style write path for the region index.
//
// A freshly built RegionIndex is the *base* layer. Annotation inserts and
// deletes do not rebuild it: ApplyInsert/ApplyDelete derive a cheap wrapper
// index that records the mutation in per-layer delta columns (inserts in
// ascending pre order, tombstones kept sorted and, with their names, in an
// append-only delete log) and keeps a pointer to the base. Reads are
// layer-local: FilterByName(n) on a wrapper builds n's candidates from the
// newest materialised layer of n in the lineage that the wrapper's writes
// cover, by applying only the writes since — O(layer n + new writes),
// end-ordered columns and watermark suffix-mins included; a name no mutation
// touched is served by the base's cache as is. The lineage keeps that memo on
// its base, one layer per touched name, published by compare-and-swap; index
// versions never point at each other, so a retained old version pins nothing
// newer. With no usable memo the start is the base's candidates, coverage
// (0, 0): there is one layer builder. Point lookups (IsArea/RegionsOf) and
// the live counts binary-search the delta columns and otherwise defer to the
// base; Filter, CandidatesOf and Within build their views from those lookups.
// Only All, the unrestricted view of a wildcard or no-pushdown step, merges
// the whole index, once per wrapper, by the same delta rows from coverage
// (0, 0) over the base's unrestricted view, which the base builds on that
// first use. Value orderings (AttrOrder) are never merged: a wrapper serves
// the base's, and its reader drops tombstones and tests the live inserts
// itself.
//
// Derivation must be linear: always derive from the newest index, under the
// engine's write lock (insert columns and the delete log extend the parent's
// in place, beyond the parent's slice lengths — the same append-beyond-len
// snapshot discipline as tree.Appender; the sorted tombstone column is
// copied per delete). Two versions of one lineage then differ only by a
// suffix of the logs, so a pair of log lengths identifies a version's
// contents. Readers of any layer are lock-free.
//
// Compact folds the deltas into a new base identical to a fresh BuildIndex
// over the current document snapshot, a new lineage with an empty memo: it
// splices the per-area geometry and carries over the views and value
// orderings the folded writes left exact. It merges no table.

// Process-wide merge and build counts by scope (see IndexMergeStats).
var layerMerges, fullMerges, tableBuilds atomic.Uint64

// IndexMergeStats returns how many delta merges ran, process-wide: layer
// merges touch one name's candidate rows, full merges every row of the index
// — a delta index's merge or a base index's table build (IndexTableBuilds).
func IndexMergeStats() (layer, full uint64) {
	return layerMerges.Load(), fullMerges.Load() + tableBuilds.Load()
}

// IndexTableBuilds returns how many base indexes built their unrestricted
// start-ordered table, process-wide.
func IndexTableBuilds() uint64 { return tableBuilds.Load() }

// ApplyInsert derives an index for snapshot doc with the area-annotation
// (pre, nameID, regs) added. regs must be in normalised interval.Area order
// (ascending, as Area.Regions returns them). doc must be the snapshot that
// contains the inserted element at pre, which exceeds every older pre.
func (ix *RegionIndex) ApplyInsert(doc *tree.Doc, pre, nameID int32, regs []interval.Region) *RegionIndex {
	n := ix.derive(doc)
	n.insPre = append(n.insPre, pre)
	n.insName = append(n.insName, nameID)
	n.insRegs = append(n.insRegs, regs...)
	n.insOff = append(n.insOff, int32(len(n.insRegs)))
	n.touch(nameID)
	n.count(regs, 1)
	return n
}

// ApplyDelete derives an index for snapshot doc with the given
// area-annotations removed. The caller passes every area killed by the
// tombstone — the deleted annotation and any annotation inside its subtree —
// with the element name of each (deleting a subtree that nests annotations of
// other layers must drop their rows too, and the names keep FilterByName's
// per-name layering exact). Pres that are not live areas of ix are ignored.
func (ix *RegionIndex) ApplyDelete(doc *tree.Doc, pres, names []int32) *RegionIndex {
	n := ix.derive(doc)
	n.delPre = make([]int32, len(ix.delPre), len(ix.delPre)+len(pres))
	copy(n.delPre, ix.delPre)
	for i, p := range pres {
		regs := n.RegionsOf(p)
		if regs == nil {
			continue
		}
		k, _ := slices.BinarySearch(n.delPre, p)
		n.delPre = slices.Insert(n.delPre, k, p)
		n.delLog = append(n.delLog, tomb{p, names[i]})
		n.touch(names[i])
		n.count(regs, -1)
	}
	return n
}

// tomb is one delete-log entry: a tombstoned area and its element name.
type tomb struct{ pre, name int32 }

// derive starts a new delta layer on top of ix's lineage.
func (ix *RegionIndex) derive(doc *tree.Doc) *RegionIndex {
	n := &RegionIndex{
		doc: doc, opts: ix.opts, base: ix.base,
		insPre: ix.insPre, insName: ix.insName, insOff: ix.insOff, insRegs: ix.insRegs,
		delPre: ix.delPre, delLog: ix.delLog, touched: ix.touched,
		nAreas: ix.nAreas, nRegions: ix.nRegions, nMulti: ix.nMulti, multiRegion: ix.multiRegion,
	}
	if ix.base == nil {
		n.base = ix
		n.insOff = []int32{0}
	}
	return n
}

// touch adds nameID to the lineage's touched names. The set is shared with
// older versions, so a new name copies it; a known one costs a search.
func (ix *RegionIndex) touch(nameID int32) {
	if k, ok := slices.BinarySearch(ix.touched, nameID); !ok {
		ix.touched = slices.Insert(slices.Clip(ix.touched), k, nameID)
	}
}

// count adds (sign +1) or removes (sign -1) one area from the live counts.
func (ix *RegionIndex) count(regs []interval.Region, sign int) {
	ix.nAreas += sign
	ix.nRegions += sign * len(regs)
	if len(regs) > 1 {
		ix.nMulti += sign
	}
	ix.multiRegion = ix.nMulti > 0
}

// DeltaStats returns the number of inserted and deleted annotations pending
// in the delta layers (0, 0 for a compacted/fresh index).
func (ix *RegionIndex) DeltaStats() (inserted, deleted int) {
	if ix.base == nil {
		return 0, 0
	}
	return len(ix.insPre), len(ix.delLog)
}

// tombstoned reports whether area pre is deleted in the delta layers.
func (ix *RegionIndex) tombstoned(pre int32) bool {
	return inSorted(ix.delPre, pre) >= 0
}

// inSorted returns the position of pre in the ascending col, or -1. A pre
// below the column's first, as every base area is below the first insert,
// skips the search.
func inSorted(col []int32, pre int32) int {
	if len(col) == 0 || pre < col[0] {
		return -1
	}
	if i, ok := slices.BinarySearch(col, pre); ok {
		return i
	}
	return -1
}

// insRegions returns the regions of the i-th delta insert.
func (ix *RegionIndex) insRegions(i int) []interval.Region {
	return ix.insRegs[ix.insOff[i]:ix.insOff[i+1]]
}

// deltaRows is the effect of a run of writes on one candidate set, as sorted
// row sets: the live inserts to add and the dropped areas to remove.
type deltaRows struct {
	areas, dead []int32 // inserted / dropped area pres, ascending
	ins, del    []row   // region rows, (start, end, id)-sorted
	insB, delB  []row   // bounds rows (one per area); only when multi-region
}

// deltaOf collects the delta rows of one name's layer, or of the whole index
// when all is set, over the writes after coverage (ins, del): the inserts
// past the first ins of insPre and the deletes past the first del of the
// delete log. A candidate set of coverage (ins, del) plus these rows is the
// set of ix. An annotation inserted and deleted after the coverage
// contributes nothing; one deleted after it is dropped whether it is a base
// area or an insert the coverage already holds.
func (ix *RegionIndex) deltaOf(nameID int32, all bool, ins, del int) *deltaRows {
	dr := &deltaRows{}
	add := func(pre int32, regs []interval.Region, r, b *[]row) {
		for _, g := range regs {
			*r = append(*r, row{g.Start, g.End, pre})
		}
		if ix.multiRegion {
			*b = append(*b, row{regs[0].Start, regs[len(regs)-1].End, pre})
		}
	}
	for i := ins; i < len(ix.insPre); i++ {
		if pre := ix.insPre[i]; (all || ix.insName[i] == nameID) && !ix.tombstoned(pre) {
			dr.areas = append(dr.areas, pre) // insert pres ascend: appended nodes
			add(pre, ix.insRegions(i), &dr.ins, &dr.insB)
		}
	}
	for _, t := range ix.delLog[del:] {
		if !all && t.name != nameID {
			continue
		}
		regs := ix.base.RegionsOf(t.pre)
		if i := inSorted(ix.insPre, t.pre); i >= ins {
			continue // inserted after the coverage: skipped above
		} else if i >= 0 {
			regs = ix.insRegions(i)
		}
		dr.dead = append(dr.dead, t.pre)
		add(t.pre, regs, &dr.del, &dr.delB)
	}
	slices.Sort(dr.dead)
	for _, r := range [][]row{dr.ins, dr.del, dr.insB, dr.delB} {
		slices.SortFunc(r, cmpRows)
	}
	return dr
}

// apply returns the candidate set src with the delta applied: areas, region
// rows and bounds rows; the bounds alias the region rows unless multi. When
// src has its end order, c keeps src to merge the delta into it on first
// use; otherwise c sorts its own then and keeps no pointer to src.
func (dr *deltaRows) apply(src *Candidates, multi bool) *Candidates {
	c := &Candidates{areas: mergeAreas(src.areas, dr.dead, dr.areas)}
	if src.endBuilt.Load() {
		c.from, c.dr = src, dr
	}
	c.rStart, c.rEnd, c.rID = mergeRows(src.rStart, src.rEnd, src.rID, dr.del, dr.ins)
	if !multi {
		c.bStart, c.bEnd, c.bID = c.rStart, c.rEnd, c.rID
	} else {
		c.bStart, c.bEnd, c.bID = mergeRows(src.bStart, src.bEnd, src.bID, dr.delB, dr.insB)
	}
	return c
}

// buildAll builds the unrestricted view, once (All): a base index sorts its
// geometry's rows; a delta index merges its writes into the base's view.
func (ix *RegionIndex) buildAll() {
	if ix.base == nil {
		tableBuilds.Add(1)
		ix.all = ix.candidatesFrom(ix.areas)
		return
	}
	fullMerges.Add(1)
	dr, src := ix.deltaOf(0, true, 0, 0), ix.base.All()
	c := dr.apply(src, ix.multiRegion)
	c.from, c.dr = src, dr // src lives with the base: merge its end order if a base query builds it first
	ix.all = c
}

// carriedLayer is a lineage's newest materialised layer of one name: its
// candidates and the write-log coverage (inserts, deletes) they include.
type carriedLayer struct {
	c        *Candidates
	ins, del int
}

// layer returns the candidate sequence of one touched name, in every order
// the joins consume. It starts from the lineage's memo when the memo's
// coverage is within ix's — an index version older than the memo rebuilds
// from the base's cached candidates, coverage (0, 0) — and applies the
// name's writes since.
func (ix *RegionIndex) layer(nameID int32) *Candidates {
	from := ix.layerFrom(nameID)
	if from.ins == len(ix.insPre) && from.del == len(ix.delLog) {
		return from.c
	}
	layerMerges.Add(1)
	return ix.deltaOf(nameID, false, from.ins, from.del).apply(from.c, ix.multiRegion)
}

// layerFrom returns the newest layer of nameID that ix's writes cover: the
// lineage's memo when its coverage is within ix's, else the base's cached
// candidates, coverage (0, 0) — ix's own on a base index.
func (ix *RegionIndex) layerFrom(nameID int32) carriedLayer {
	if ix.base == nil {
		return carriedLayer{c: ix.FilterByName(nameID)}
	}
	if v, ok := ix.base.carried.Load(nameID); ok {
		if m := v.(*carriedLayer); m.ins <= len(ix.insPre) && m.del <= len(ix.delLog) {
			return *m
		}
	}
	return carriedLayer{c: ix.base.FilterByName(nameID)}
}

// carry publishes c, the fully built layer of nameID at ix's coverage, as
// the lineage's memo unless the memo already covers as much.
func (ix *RegionIndex) carry(nameID int32, c *Candidates) {
	m := &carriedLayer{c: c, ins: len(ix.insPre), del: len(ix.delLog)}
	for {
		v, loaded := ix.base.carried.LoadOrStore(nameID, m)
		if !loaded {
			return
		}
		if old := v.(*carriedLayer); old.ins >= m.ins && old.del >= m.del ||
			ix.base.carried.CompareAndSwap(nameID, old, m) {
			return
		}
	}
}

// AreasWithBounds returns the live area-annotations named nameID whose
// covering bounds are exactly [start, end], ascending: a binary search of the
// bounds columns of the newest layer of the name that ix's writes cover
// (layerFrom: the lineage's memo, else the base's), a scan of the delta
// inserts after that layer's coverage, a tombstone check for the deletes
// after it — no merge. With no memo the scan covers every insert.
func (ix *RegionIndex) AreasWithBounds(nameID int32, start, end int64) []int32 {
	from := ix.layerFrom(nameID)
	bs, be, bid := from.c.boundsCols()
	k := sort.Search(len(bid), func(k int) bool { return bs[k] > start || bs[k] == start && be[k] >= end })
	var out []int32
	for ; k < len(bid) && bs[k] == start && be[k] == end; k++ {
		if !ix.tombstoned(bid[k]) {
			out = append(out, bid[k])
		}
	}
	for i := from.ins; i < len(ix.insPre); i++ {
		if regs := ix.insRegions(i); ix.insName[i] == nameID && regs[0].Start == start &&
			regs[len(regs)-1].End == end && !ix.tombstoned(ix.insPre[i]) {
			out = append(out, ix.insPre[i])
		}
	}
	return out
}

// AreasIn returns the live area-annotations with lo <= pre <= hi, ascending —
// what a tombstone over that pre range kills. No merge: the base area list
// and the insert column are both ascending.
func (ix *RegionIndex) AreasIn(lo, hi int32) []int32 {
	b := ix
	if ix.base != nil {
		b = ix.base
	}
	var out []int32
	for _, col := range [][]int32{b.areas, ix.insPre} {
		k, _ := slices.BinarySearch(col, lo)
		for ; k < len(col) && col[k] <= hi; k++ {
			if !ix.tombstoned(col[k]) {
				out = append(out, col[k])
			}
		}
	}
	return out
}

// InsertedAreas returns the live delta inserts named nameID, ascending (none
// on a base index).
func (ix *RegionIndex) InsertedAreas(nameID int32) []int32 {
	var out []int32
	for i, pre := range ix.insPre {
		if ix.insName[i] == nameID && !ix.tombstoned(pre) {
			out = append(out, pre)
		}
	}
	return out
}

// nameTouched reports whether any delta insert or delete concerns an
// annotation with the given element name.
func (ix *RegionIndex) nameTouched(nameID int32) bool {
	_, ok := slices.BinarySearch(ix.touched, nameID)
	return ok
}

// Compact folds the delta layers into a fresh base index over the current
// document snapshot. The result is identical — per-area geometry, rank,
// multi-region flag and, once both are built, the unrestricted table — to
// BuildIndex over the same snapshot. Returns ix unchanged when there is
// nothing to fold.
//
// Nothing is merged or sorted: the new geometry is the base's, its dead areas
// cut out and the live inserts appended, by bulk copies; the table stays lazy
// (All). The new base keeps the base's views and value orderings of every
// name the folded writes did not touch, and each touched name's view that a
// delta version has read (the lineage memo holds a layer of it), brought to
// the final coverage from that memo (layer), so that reads of those names
// after the fold rebuild nothing.
func (ix *RegionIndex) Compact() *RegionIndex {
	if ix.base == nil {
		return ix
	}
	b := ix.base
	n := &RegionIndex{
		doc: ix.doc, opts: ix.opts,
		nAreas: ix.nAreas, nRegions: ix.nRegions, nMulti: ix.nMulti, multiRegion: ix.multiRegion,
		areas:    make([]int32, 0, ix.nAreas),
		areaRegs: make([]interval.Region, 0, ix.nRegions),
	}
	if ix.multiRegion {
		n.areaOff = make([]int32, 0, ix.nAreas+1)
	}
	// The live base areas, in runs between the dead ones, then the live
	// inserts, which exceed every base pre.
	lo := int32(0)
	for _, p := range ix.delPre {
		if uint(p) < uint(len(b.rank)) && b.rank[p] >= 0 {
			n.spliceAreas(b, lo, b.rank[p])
			lo = b.rank[p] + 1
		}
	}
	n.spliceAreas(b, lo, int32(len(b.areas)))
	for i, pre := range ix.insPre {
		if !ix.tombstoned(pre) {
			n.areas = append(n.areas, pre)
			n.addRegions(ix.insRegions(i))
		}
	}
	n.sealAreas()

	b.nameCands.Range(func(k, v any) bool {
		if !ix.nameTouched(k.(int32)) {
			n.nameCands.Store(k, v)
		}
		return true
	})
	for _, id := range ix.touched {
		if _, ok := b.carried.Load(id); ok {
			n.nameCands.Store(id, ix.FilterByName(id))
		}
	}
	b.attrOrders.Range(func(k, v any) bool {
		if !ix.nameTouched(k.(attrKey).name) {
			n.attrOrders.Store(k, v)
		}
		return true
	})
	return n
}

// spliceAreas appends the areas of ranks [lo, hi) of base index b, with
// their regions and, when ix keeps offsets, their offsets shifted to where
// the regions land.
func (ix *RegionIndex) spliceAreas(b *RegionIndex, lo, hi int32) {
	r0, r1 := lo, hi
	if b.areaOff != nil {
		r0, r1 = b.areaOff[lo], b.areaOff[hi]
	}
	if ix.areaOff != nil {
		shift := int32(len(ix.areaRegs)) - r0
		for k := lo; k < hi; k++ {
			off := k
			if b.areaOff != nil {
				off = b.areaOff[k]
			}
			ix.areaOff = append(ix.areaOff, off+shift)
		}
	}
	ix.areas = append(ix.areas, b.areas[lo:hi]...)
	ix.areaRegs = append(ix.areaRegs, b.areaRegs[r0:r1]...)
}

// mergeRows applies sorted delta rows to (k1, k2, id)-ordered base columns:
// the rows of del, each of which the base holds, are dropped and the rows of
// ins are added. Instead of a per-row walk, each delta row's slot is found by
// binary search and the base run before it is bulk-copied:
// O(d log n) searches + O(n) memmove.
func mergeRows(bs, be []int64, bid []int32, del, ins []row) (k1, k2 []int64, id []int32) {
	n := len(bid) - len(del) + len(ins)
	k1 = make([]int64, 0, n)
	k2 = make([]int64, 0, n)
	id = make([]int32, 0, n)
	i, a, b := 0, 0, 0
	copyTo := func(k int) {
		k1 = append(k1, bs[i:k]...)
		k2 = append(k2, be[i:k]...)
		id = append(id, bid[i:k]...)
		i = k
	}
	for a < len(del) || b < len(ins) {
		drop := b == len(ins) || a < len(del) && cmpRows(del[a], ins[b]) < 0
		var r row
		if drop {
			r = del[a]
		} else {
			r = ins[b]
		}
		copyTo(i + sort.Search(len(bid)-i, func(m int) bool {
			return cmpRows(row{bs[i+m], be[i+m], bid[i+m]}, r) >= 0
		}))
		if drop {
			i++
			a++
		} else {
			k1 = append(k1, r.k1)
			k2 = append(k2, r.k2)
			id = append(id, r.id)
			b++
		}
	}
	copyTo(len(bid))
	return k1, k2, id
}

// mergeByEnd is mergeRows over (end, start, id)-ordered base columns.
func mergeByEnd(es, ee []int64, eid []int32, dr *deltaRows) (start, end []int64, id []int32) {
	end, start, id = mergeRows(ee, es, eid, endKeyed(dr.del), endKeyed(dr.ins))
	return start, end, id
}

// endKeyed returns region rows keyed and sorted on (end, start, id).
func endKeyed(rows []row) []row {
	out := make([]row, len(rows))
	for i, r := range rows {
		out[i] = row{r.k2, r.k1, r.id}
	}
	slices.SortFunc(out, cmpRows)
	return out
}

// mergeAreas drops the dead pres from the ascending base list (which holds
// each of them) and appends the inserted ones, which exceed every base pre.
func mergeAreas(base, dead, ins []int32) []int32 {
	out := make([]int32, 0, len(base)-len(dead)+len(ins))
	for _, p := range dead {
		k, _ := slices.BinarySearch(base, p)
		out = append(out, base[:k]...)
		base = base[k+1:]
	}
	return append(append(out, base...), ins...)
}
