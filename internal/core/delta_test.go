package core

import (
	"reflect"
	"testing"

	"soxq/internal/interval"
	"soxq/internal/tree"
	"soxq/internal/xmlparse"
)

// mutateDoc applies n scripted inserts and deletes to doc, mirroring them
// onto ix via ApplyInsert/ApplyDelete, and returns the final snapshot and
// delta index.
func applyInsert(t *testing.T, d *tree.Doc, ix *RegionIndex, elem string, start, end int64) (*tree.Doc, *RegionIndex) {
	t.Helper()
	a, err := tree.NewAppender(d)
	if err != nil {
		t.Fatalf("NewAppender: %v", err)
	}
	pre := a.StartElement(elem)
	a.Attr("start", FormatInt(start))
	a.Attr("end", FormatInt(end))
	a.EndElement()
	d2, err := a.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	nameID, _ := d2.Dict().Lookup(elem)
	return d2, ix.ApplyInsert(d2, pre, nameID, []interval.Region{{Start: start, End: end}})
}

func applyDelete(t *testing.T, d *tree.Doc, ix *RegionIndex, pre int32) (*tree.Doc, *RegionIndex) {
	t.Helper()
	d2, err := d.WithTombstones([]int32{pre})
	if err != nil {
		t.Fatalf("WithTombstones: %v", err)
	}
	var killedPre, killedName []int32
	for _, p := range ix.Areas() {
		if p >= pre && p <= pre+d.Size(pre) {
			killedPre = append(killedPre, p)
			killedName = append(killedName, d.NameID(p))
		}
	}
	return d2, ix.ApplyDelete(d2, killedPre, killedName)
}

// FormatInt is a tiny helper for attribute values in tests.
func FormatInt(v int64) string { return DefaultOptions().FormatPosition(v) }

const deltaBase = `<doc>
  <scene start="0" end="100"/>
  <scene start="100" end="200"/>
  <hit start="10" end="20"/>
  <hit start="110" end="130"/>
  <hit start="150" end="160"/>
</doc>`

func buildDelta(t *testing.T) (*tree.Doc, *RegionIndex) {
	t.Helper()
	d, err := xmlparse.Parse("d.xml", []byte(deltaBase))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ix, err := BuildIndex(d, DefaultOptions())
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return d, ix
}

// assertIndexEqual compares every observable ordering of two indexes: region
// rows, bounds rows, document-order area list, per-area geometry, the
// end-ordered columns, the watermark suffix-mins, the live counts and the
// multi-region flag.
func assertIndexEqual(t *testing.T, got, want *RegionIndex) {
	t.Helper()
	if g, w := got.Areas(), want.Areas(); !reflect.DeepEqual(g, w) {
		t.Fatalf("areas: %v != %v", g, w)
	}
	if got.NumAreas() != want.NumAreas() || got.NumRegions() != want.NumRegions() || got.MultiRegion() != want.MultiRegion() {
		t.Fatalf("areas=%d/%d regions=%d/%d multi=%v/%v", got.NumAreas(), want.NumAreas(),
			got.NumRegions(), want.NumRegions(), got.MultiRegion(), want.MultiRegion())
	}
	g, w := got.All(), want.All()
	if !reflect.DeepEqual(g.rStart, w.rStart) || !reflect.DeepEqual(g.rEnd, w.rEnd) || !reflect.DeepEqual(g.rID, w.rID) {
		t.Fatalf("region rows differ:\n%v %v %v\n%v %v %v", g.rStart, g.rEnd, g.rID, w.rStart, w.rEnd, w.rID)
	}
	if !reflect.DeepEqual(g.bStart, w.bStart) || !reflect.DeepEqual(g.bEnd, w.bEnd) || !reflect.DeepEqual(g.bID, w.bID) {
		t.Fatalf("bounds rows differ")
	}
	for _, pre := range want.Areas() {
		if !reflect.DeepEqual(got.RegionsOf(pre), want.RegionsOf(pre)) {
			t.Fatalf("RegionsOf(%d): %v != %v", pre, got.RegionsOf(pre), want.RegionsOf(pre))
		}
		if !got.IsArea(pre) {
			t.Fatalf("IsArea(%d) = false", pre)
		}
	}
	gs, ge, gi := got.endCols()
	ws, we, wi := want.endCols()
	if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(ge, we) || !reflect.DeepEqual(gi, wi) {
		t.Fatalf("end-ordered columns differ")
	}
	gb, gev := got.suffixMins()
	wb, wev := want.suffixMins()
	if !reflect.DeepEqual(gb, wb) || !reflect.DeepEqual(gev, wev) {
		t.Fatalf("suffix-mins differ: %v/%v != %v/%v", gb, gev, wb, wev)
	}
}

func TestDeltaInsertMatchesRebuild(t *testing.T) {
	d, ix := buildDelta(t)
	d, delta := applyInsert(t, d, ix, "hit", 55, 65)
	d, delta = applyInsert(t, d, delta, "mark", 5, 95)

	if ins, del := delta.DeltaStats(); ins != 2 || del != 0 {
		t.Fatalf("DeltaStats = %d/%d", ins, del)
	}
	fresh, err := BuildIndex(d, DefaultOptions())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	assertIndexEqual(t, delta, fresh)
}

// TestDeltaWarmBaseEndOrder exercises the delta-aware end-ordering: when the
// base index has already built its end columns (a previously queried corpus),
// the merged ordering is derived by run-copy merge instead of a fresh sort —
// and must still be identical to a rebuild, with and without tombstones.
func TestDeltaWarmBaseEndOrder(t *testing.T) {
	d, ix := buildDelta(t)
	ix.endCols()
	ix.suffixMins()

	// Insert-only delta (empty dead set takes the bulk-copy merge).
	d2, delta := applyInsert(t, d, ix, "hit", 55, 65)
	d2, delta = applyInsert(t, d2, delta, "mark", 5, 95)
	fresh, err := BuildIndex(d2, DefaultOptions())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	assertIndexEqual(t, delta, fresh)

	// Mixed delta with a tombstone on top of the warmed base.
	d3, delta2 := applyDelete(t, d2, delta, delta.Areas()[1])
	fresh2, err := BuildIndex(d3, DefaultOptions())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	assertIndexEqual(t, delta2, fresh2)
}

func TestDeltaDeleteMatchesRebuild(t *testing.T) {
	d, ix := buildDelta(t)
	// Delete the middle hit (pre of third area row in doc order).
	target := ix.Areas()[3]
	d, delta := applyDelete(t, d, ix, target)
	if ins, del := delta.DeltaStats(); ins != 0 || del != 1 {
		t.Fatalf("DeltaStats = %d/%d", ins, del)
	}
	if delta.IsArea(target) {
		t.Fatal("deleted area still IsArea")
	}
	if delta.RegionsOf(target) != nil {
		t.Fatal("deleted area still has regions")
	}
	fresh, err := BuildIndex(d, DefaultOptions())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	assertIndexEqual(t, delta, fresh)
}

func TestDeltaInsertDeleteInterleavedMatchesRebuild(t *testing.T) {
	d, ix := buildDelta(t)
	cur := ix
	var inserted []int32
	for i := 0; i < 8; i++ {
		s := int64(i * 13)
		d, cur = applyInsert(t, d, cur, "hit", s, s+9)
		inserted = append(inserted, cur.Areas()[len(cur.Areas())-1])
	}
	// Delete two originals and two of the fresh inserts.
	d, cur = applyDelete(t, d, cur, ix.Areas()[2])
	d, cur = applyDelete(t, d, cur, inserted[3])
	d, cur = applyDelete(t, d, cur, inserted[6])

	fresh, err := BuildIndex(d, DefaultOptions())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	assertIndexEqual(t, cur, fresh)

	if ins, del := cur.DeltaStats(); ins != 8 || del != 3 {
		t.Fatalf("DeltaStats = %d/%d", ins, del)
	}
}

// TestCompactIdenticalToFreshBuild is the compaction property test: after a
// delta-heavy history, Compact() must be byte-identical to BuildIndex over
// the same snapshot — including internal orderings and per-area geometry.
func TestCompactIdenticalToFreshBuild(t *testing.T) {
	d, ix := buildDelta(t)
	cur := ix
	for i := 0; i < 20; i++ {
		s := int64(i * 7)
		d, cur = applyInsert(t, d, cur, "hit", s, s+int64(i%5)+1)
	}
	d, cur = applyDelete(t, d, cur, cur.Areas()[4])
	d, cur = applyDelete(t, d, cur, cur.Areas()[10])

	compacted := cur.Compact()
	if ins, del := compacted.DeltaStats(); ins != 0 || del != 0 {
		t.Fatalf("compacted DeltaStats = %d/%d", ins, del)
	}
	fresh, err := BuildIndex(d, DefaultOptions())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	// Byte-identical internals: force every lazy structure on both sides and
	// compare the full struct contents.
	compacted.suffixMins()
	fresh.suffixMins()
	if !reflect.DeepEqual(compacted.areaOff, fresh.areaOff) || !reflect.DeepEqual(compacted.areaRegs, fresh.areaRegs) {
		t.Fatalf("area geometry differs")
	}
	if !reflect.DeepEqual(compacted.rank, fresh.rank) {
		t.Fatalf("area ranks differ")
	}
	assertIndexEqual(t, compacted, fresh)

	// Compact on a base index is the identity.
	if fresh.Compact() != fresh {
		t.Fatal("Compact on a base index rebuilt it")
	}
}

// TestCompactMultiRegion pins the multi-region flag and bounds table across
// delta merge and compaction in region-element mode.
func TestCompactMultiRegion(t *testing.T) {
	src := `<doc>
  <mark><region><start>10</start><end>20</end></region><region><start>40</start><end>50</end></region></mark>
  <mark><region><start>60</start><end>70</end></region></mark>
</doc>`
	d, err := xmlparse.Parse("m.xml", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	opts := DefaultOptions()
	if _, err := opts.Set("standoff-region", "region"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	opts.Start, opts.End = "start", "end"
	ix, err := BuildIndex(d, opts)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if !ix.MultiRegion() {
		t.Fatal("base not multi-region")
	}
	// Insert a two-region area via the tree, then mirror it on the index.
	a, err := tree.NewAppender(d)
	if err != nil {
		t.Fatalf("NewAppender: %v", err)
	}
	pre := a.StartElement("note")
	for _, r := range [][2]string{{"0", "5"}, {"80", "90"}} {
		a.StartElement("region")
		a.StartElement("start")
		a.Text(r[0])
		a.EndElement()
		a.StartElement("end")
		a.Text(r[1])
		a.EndElement()
		a.EndElement()
	}
	a.EndElement()
	d2, err := a.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	nameID, _ := d2.Dict().Lookup("note")
	delta := ix.ApplyInsert(d2, pre, nameID, []interval.Region{{Start: 0, End: 5}, {Start: 80, End: 90}})

	fresh, err := BuildIndex(d2, opts)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	assertIndexEqual(t, delta, fresh)
	assertIndexEqual(t, delta.Compact(), fresh)
}

func TestFilterByNameDelegation(t *testing.T) {
	d, ix := buildDelta(t)
	sceneID, _ := d.Dict().Lookup("scene")
	baseCands := ix.FilterByName(sceneID)

	// Inserting hits never touches the scene layer: the delta index serves
	// the base's cached candidate object unchanged.
	d2, delta := applyInsert(t, d, ix, "hit", 42, 43)
	if got := delta.FilterByName(sceneID); got != baseCands {
		t.Fatal("untouched name did not delegate to the base candidate cache")
	}
	// The touched name re-intersects against the merged columns.
	hitID, _ := d2.Dict().Lookup("hit")
	hits := delta.FilterByName(hitID)
	if hits.Len() != 4 {
		t.Fatalf("hit candidates = %d, want 4", hits.Len())
	}
	fresh, err := BuildIndex(d2, DefaultOptions())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if want := fresh.FilterByName(hitID); !reflect.DeepEqual(hits.AreaPres(), want.AreaPres()) {
		t.Fatalf("hit candidates %v != %v", hits.AreaPres(), want.AreaPres())
	}

	// Deleting a scene touches the layer: no more delegation afterwards.
	target := ix.Areas()[0]
	_, delta2 := applyDelete(t, d2, delta, target)
	got := delta2.FilterByName(sceneID)
	if got == baseCands {
		t.Fatal("touched name still delegated")
	}
	if got.Len() != 1 {
		t.Fatalf("scene candidates after delete = %d, want 1", got.Len())
	}
}

func TestDeltaWatermarks(t *testing.T) {
	d, ix := buildDelta(t)
	d, delta := applyInsert(t, d, ix, "hit", 55, 65)
	fresh, err := BuildIndex(d, DefaultOptions())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	dc, fc := delta.All(), fresh.All()
	for _, s := range []int64{-1, 0, 10, 55, 56, 100, 150, 200, 1000} {
		gp, gok := dc.MinPreStartFrom(s)
		wp, wok := fc.MinPreStartFrom(s)
		if gp != wp || gok != wok {
			t.Fatalf("MinPreStartFrom(%d) = %d/%v, want %d/%v", s, gp, gok, wp, wok)
		}
		gp, gok = dc.MinPreEndFrom(s)
		wp, wok = fc.MinPreEndFrom(s)
		if gp != wp || gok != wok {
			t.Fatalf("MinPreEndFrom(%d) = %d/%v, want %d/%v", s, gp, gok, wp, wok)
		}
	}
}

// TestEndOrderBuiltOnFirstWideUse: a per-name view FilterByName caches holds
// the start watermark's suffix-mins from the start and sorts by end only for
// its first select-wide step, so narrow-only traffic never does. A delta
// layer made from a view without an end order keeps no pointer to it; one
// made from a view with one merges that on first use instead of sorting, and
// so does the full merge when the base's view has one by then. All end up
// equal to a rebuild's.
func TestEndOrderBuiltOnFirstWideUse(t *testing.T) {
	d, ix := buildDelta(t)
	hitID, _ := d.Dict().Lookup("hit")
	sceneID, _ := d.Dict().Lookup("scene")
	wide := func(ix *RegionIndex, c *Candidates) {
		ctx := []CtxNode{{Iter: 0, Pre: ix.FilterByName(sceneID).AreaPres()[0]}}
		Join(ix, SelectWide, StrategyLoopLifted, ctx, 1, c, JoinConfig{})
	}
	c := ix.FilterByName(hitID)
	ctx := []CtxNode{{Iter: 0, Pre: ix.FilterByName(sceneID).AreaPres()[1]}}
	if got := Join(ix, SelectNarrow, StrategyLoopLifted, ctx, 1, c, JoinConfig{}); len(got) != 2 {
		t.Fatalf("narrow join: %v", got)
	}
	if c.startMin == nil || c.endBuilt.Load() || c.eID != nil {
		t.Fatalf("cached view after a narrow join: start mins %v, end order built %v", c.startMin, c.endBuilt.Load())
	}

	d, delta := applyInsert(t, d, ix, "hit", 55, 65)
	l1 := delta.FilterByName(hitID)
	if l1.from != nil || l1.endBuilt.Load() {
		t.Fatal("a layer of a view without an end order holds one to merge from")
	}
	wide(delta, l1)
	fresh, err := BuildIndex(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertCandidatesEqual(t, "sorted layer", l1, fresh.FilterByName(hitID))

	d, delta = applyInsert(t, d, delta, "hit", 5, 95)
	l2 := delta.FilterByName(hitID)
	if l2.from != l1 || l2.endBuilt.Load() {
		t.Fatal("a layer of a view with an end order does not merge from it")
	}
	wide(delta, l2)
	if l2.from != nil || l2.dr != nil {
		t.Fatal("the merged layer still holds its source")
	}
	if fresh, err = BuildIndex(d, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	assertCandidatesEqual(t, "merged layer", l2, fresh.FilterByName(hitID))

	// The full merge keeps the base's unrestricted view whatever its state,
	// so a base query that builds that view's end order after the merge but
	// before the delta's first wide step still saves the delta its sort.
	all := delta.All()
	if base := delta.base.All(); all.from != base || base.endBuilt.Load() {
		t.Fatalf("full merge: source kept %v, base end order built %v", all.from == base, base.endBuilt.Load())
	}
	wide(delta.base, delta.base.All())
	wide(delta, all)
	if all.from != nil || all.dr != nil {
		t.Fatal("the merged full view still holds its source")
	}
	assertCandidatesEqual(t, "merged full view", all, fresh.All())
}
