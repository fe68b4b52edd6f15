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
// ascending pre order, tombstones kept sorted) and keeps a pointer to the
// base. Reads are layer-local: FilterByName(n) on a wrapper run-merges the
// base's cached candidate sequence for n with that name's live delta rows
// minus that name's tombstones, O(layer n + delta), end-ordered columns and
// watermark suffix-mins included; a name no mutation touched is served by the
// base's cache as is. Point lookups (IsArea/RegionsOf) and the live counts
// binary-search the delta columns and otherwise defer to the base. Only what
// needs every row — All, Areas, Filter, Compact — merges the whole index, once
// per wrapper, by the same run-copy merge over the base's columns.
//
// Derivation must be linear: always derive from the newest index, under the
// engine's write lock (insert columns extend the parent's columns in place,
// beyond the parent's slice lengths — the same append-beyond-len snapshot
// discipline as tree.Appender; the sorted tombstone columns are copied per
// delete). Readers of any layer are lock-free.
//
// Compact folds the deltas into a new base identical to a fresh
// BuildIndex over the current document snapshot, resetting delta sizes to
// zero without changing the index generation.

// Process-wide merge counts by scope (see IndexMergeStats).
var layerMerges, fullMerges atomic.Uint64

// IndexMergeStats returns how many delta merges ran, process-wide: layer
// merges touch one name's candidate rows, full merges every row of the index.
func IndexMergeStats() (layer, full uint64) {
	return layerMerges.Load(), fullMerges.Load()
}

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
	n.delName = make([]int32, len(ix.delName), len(ix.delName)+len(pres))
	copy(n.delPre, ix.delPre)
	copy(n.delName, ix.delName)
	for i, p := range pres {
		regs := n.RegionsOf(p)
		if regs == nil {
			continue
		}
		k, _ := slices.BinarySearch(n.delPre, p)
		n.delPre = slices.Insert(n.delPre, k, p)
		n.delName = slices.Insert(n.delName, k, names[i])
		n.count(regs, -1)
	}
	return n
}

// derive starts a new delta layer on top of ix's lineage.
func (ix *RegionIndex) derive(doc *tree.Doc) *RegionIndex {
	n := &RegionIndex{
		doc: doc, opts: ix.opts, base: ix.base,
		insPre: ix.insPre, insName: ix.insName, insOff: ix.insOff, insRegs: ix.insRegs,
		delPre: ix.delPre, delName: ix.delName,
		nAreas: ix.nAreas, nRegions: ix.nRegions, nMulti: ix.nMulti, multiRegion: ix.multiRegion,
	}
	if ix.base == nil {
		n.base = ix
		n.insOff = []int32{0}
	}
	return n
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
	return len(ix.insPre), len(ix.delPre)
}

// tombstoned reports whether area pre is deleted in the delta layers.
func (ix *RegionIndex) tombstoned(pre int32) bool {
	_, dead := slices.BinarySearch(ix.delPre, pre)
	return dead
}

// insRegions returns the regions of the i-th delta insert.
func (ix *RegionIndex) insRegions(i int) []interval.Region {
	return ix.insRegs[ix.insOff[i]:ix.insOff[i+1]]
}

// deltaRows is the delta's effect on one candidate set, as sorted row sets:
// the live inserts to add and the tombstoned base areas to drop.
type deltaRows struct {
	areas, dead []int32    // inserted / dropped area pres, ascending
	ins, del    regionRows // region rows, (start, end, id)-sorted
	insB, delB  regionRows // bounds rows (one per area); only when multi-region
}

// deltaOf collects the delta rows of one name's layer, or of the whole index
// when all is set. An annotation inserted and later deleted within the same
// delta window contributes nothing.
func (ix *RegionIndex) deltaOf(nameID int32, all bool) *deltaRows {
	dr := &deltaRows{}
	add := func(pre int32, regs []interval.Region, r, b *regionRows) {
		for _, g := range regs {
			r.push(g.Start, g.End, pre)
		}
		if ix.multiRegion {
			b.push(regs[0].Start, regs[len(regs)-1].End, pre)
		}
	}
	for i, pre := range ix.insPre {
		if (all || ix.insName[i] == nameID) && !ix.tombstoned(pre) {
			dr.areas = append(dr.areas, pre) // insert pres ascend: appended nodes
			add(pre, ix.insRegions(i), &dr.ins, &dr.insB)
		}
	}
	for i, pre := range ix.delPre {
		if !all && ix.delName[i] != nameID {
			continue
		}
		if regs := ix.base.RegionsOf(pre); regs != nil { // nil: a delta insert, skipped above
			dr.dead = append(dr.dead, pre)
			add(pre, regs, &dr.del, &dr.delB)
		}
	}
	for _, r := range []*regionRows{&dr.ins, &dr.del, &dr.insB, &dr.delB} {
		sort.Sort(r)
	}
	return dr
}

// materialize merges the delta layers into the base orderings, once, for the
// readers that need every row. No-op for a base index.
func (ix *RegionIndex) materialize() {
	if ix.base != nil {
		ix.mergeOnce.Do(ix.merge)
	}
}

func (ix *RegionIndex) merge() {
	fullMerges.Add(1)
	b, dr := ix.base, ix.deltaOf(0, true)
	ix.delta = dr
	ix.areas = mergeAreas(b.areas, dr.dead, dr.areas)
	ix.rStart, ix.rEnd, ix.rID = mergeRows(b.rStart, b.rEnd, b.rID, &dr.del, &dr.ins)
	if !ix.multiRegion {
		ix.bStart, ix.bEnd, ix.bID = ix.rStart, ix.rEnd, ix.rID
	} else {
		ix.bStart, ix.bEnd, ix.bID = mergeRows(b.bStart, b.bEnd, b.bID, &dr.delB, &dr.insB)
	}
}

// layer builds the candidate sequence of one touched name: the base's cached
// candidates for the name, minus the name's tombstones, plus its live
// inserts, in every order the joins consume.
func (ix *RegionIndex) layer(nameID int32) *Candidates {
	layerMerges.Add(1)
	bc, dr := ix.base.FilterByName(nameID), ix.deltaOf(nameID, false)
	c := &Candidates{ix: ix, areas: mergeAreas(bc.areas, dr.dead, dr.areas)}
	c.rStart, c.rEnd, c.rID = mergeRows(bc.rStart, bc.rEnd, bc.rID, &dr.del, &dr.ins)
	if !ix.multiRegion {
		c.bStart, c.bEnd, c.bID = c.rStart, c.rEnd, c.rID
	} else {
		c.bStart, c.bEnd, c.bID = mergeRows(bc.bStart, bc.bEnd, bc.bID, &dr.delB, &dr.insB)
	}
	es, ee, eid := bc.endCols()
	c.eStart, c.eEnd, c.eID = mergeByEnd(es, ee, eid, dr)
	return c
}

// AreasWithBounds returns the live area-annotations named nameID whose
// covering bounds are exactly [start, end]: a binary search of the base's
// per-name bounds columns, a scan of the delta inserts, a tombstone check —
// no merge.
func (ix *RegionIndex) AreasWithBounds(nameID int32, start, end int64) []int32 {
	b := ix
	if ix.base != nil {
		b = ix.base
	}
	bs, be, bid := b.FilterByName(nameID).boundsCols()
	k := sort.Search(len(bid), func(k int) bool { return bs[k] > start || bs[k] == start && be[k] >= end })
	var out []int32
	for ; k < len(bid) && bs[k] == start && be[k] == end; k++ {
		if !ix.tombstoned(bid[k]) {
			out = append(out, bid[k])
		}
	}
	for i, pre := range ix.insPre {
		if regs := ix.insRegions(i); ix.insName[i] == nameID && regs[0].Start == start &&
			regs[len(regs)-1].End == end && !ix.tombstoned(pre) {
			out = append(out, pre)
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

// nameTouched reports whether any delta insert or delete concerns an
// annotation with the given element name.
func (ix *RegionIndex) nameTouched(nameID int32) bool {
	return slices.Contains(ix.insName, nameID) || slices.Contains(ix.delName, nameID)
}

// Compact folds the delta layers into a fresh base index over the current
// document snapshot. The result is identical — orderings, per-area geometry,
// multi-region flag — to BuildIndex over the same snapshot, and carries the
// same generation token (same document, same options), so strategy memos and
// calibration stay warm across compaction. Returns ix unchanged when there is
// nothing to fold.
func (ix *RegionIndex) Compact() *RegionIndex {
	if ix.base == nil {
		return ix
	}
	b := ix.base
	n := &RegionIndex{doc: ix.doc, opts: ix.opts}
	n.reserve(ix.nAreas, ix.nRegions)
	// Base areas, then inserts, both ascending like the tombstones: one
	// forward walk, no merge and no lookups.
	dead := ix.delPre
	live := func(pre int32) bool {
		for len(dead) > 0 && dead[0] < pre {
			dead = dead[1:]
		}
		return len(dead) == 0 || dead[0] != pre
	}
	for rank, pre := range b.areas {
		if live(pre) {
			n.addArea(pre, b.areaRegs[b.areaOff[rank]:b.areaOff[rank+1]])
		}
	}
	for i, pre := range ix.insPre {
		if live(pre) {
			n.addArea(pre, ix.insRegions(i))
		}
	}
	n.sortRows()
	return n
}

// regionRows is a sortable (start, end, id) column triple.
type regionRows struct {
	start, end []int64
	id         []int32
}

func (r *regionRows) push(s, e int64, id int32) {
	r.start = append(r.start, s)
	r.end = append(r.end, e)
	r.id = append(r.id, id)
}

func (r *regionRows) Len() int { return len(r.id) }

func (r *regionRows) Less(i, j int) bool {
	return rowLess(r.start[i], r.end[i], r.id[i], r.start[j], r.end[j], r.id[j])
}

func (r *regionRows) Swap(i, j int) {
	r.start[i], r.start[j] = r.start[j], r.start[i]
	r.end[i], r.end[j] = r.end[j], r.end[i]
	r.id[i], r.id[j] = r.id[j], r.id[i]
}

// byEnd returns r's rows keyed and sorted on (end, start, id): the start and
// end columns trade places, so the (start, end, id) machinery applies as is.
func (r *regionRows) byEnd() *regionRows {
	e := &regionRows{start: slices.Clone(r.end), end: slices.Clone(r.start), id: slices.Clone(r.id)}
	sort.Sort(e)
	return e
}

func rowLess(s1, e1 int64, id1 int32, s2, e2 int64, id2 int32) bool {
	if s1 != s2 {
		return s1 < s2
	}
	if e1 != e2 {
		return e1 < e2
	}
	return id1 < id2
}

// mergeRows applies a sorted delta to (start, end, id)-ordered base columns:
// the rows of del, each of which the base holds, are dropped and the rows of
// ins are added. Instead of a per-row walk, each delta row's slot is found by
// binary search and the base run before it is bulk-copied:
// O(d log n) searches + O(n) memmove.
func mergeRows(bs, be []int64, bid []int32, del, ins *regionRows) (start, end []int64, id []int32) {
	n := len(bid) - del.Len() + ins.Len()
	start = make([]int64, 0, n)
	end = make([]int64, 0, n)
	id = make([]int32, 0, n)
	i, a, b := 0, 0, 0
	copyTo := func(k int) {
		start = append(start, bs[i:k]...)
		end = append(end, be[i:k]...)
		id = append(id, bid[i:k]...)
		i = k
	}
	for a < del.Len() || b < ins.Len() {
		ev, j := ins, b
		drop := b == ins.Len() || a < del.Len() &&
			rowLess(del.start[a], del.end[a], del.id[a], ins.start[b], ins.end[b], ins.id[b])
		if drop {
			ev, j = del, a
		}
		copyTo(i + sort.Search(len(bid)-i, func(m int) bool {
			return !rowLess(bs[i+m], be[i+m], bid[i+m], ev.start[j], ev.end[j], ev.id[j])
		}))
		if drop {
			i++
			a++
		} else {
			start = append(start, ins.start[b])
			end = append(end, ins.end[b])
			id = append(id, ins.id[b])
			b++
		}
	}
	copyTo(len(bid))
	return start, end, id
}

// mergeByEnd is mergeRows over (end, start, id)-ordered base columns.
func mergeByEnd(es, ee []int64, eid []int32, dr *deltaRows) (start, end []int64, id []int32) {
	end, start, id = mergeRows(ee, es, eid, dr.del.byEnd(), dr.ins.byEnd())
	return start, end, id
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
