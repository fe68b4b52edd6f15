package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"soxq/internal/interval"
	"soxq/internal/tree"
	"soxq/internal/xmlparse"
)

// The layer-local delta index, against the only oracle that matters: a fresh
// BuildIndex over the same snapshot. Region-element mode throughout, so areas
// can be multi-region and annotations of one layer can nest inside another.

var layerNames = []string{"scene", "hit", "mark", "note"}

func regionOpts(t *testing.T) Options {
	t.Helper()
	opts := DefaultOptions()
	if _, err := opts.Set("standoff-region", "region"); err != nil {
		t.Fatal(err)
	}
	return opts
}

func writeRegions(regs []interval.Region, start func(string), text func(string), end func()) {
	for _, r := range regs {
		start("region")
		start("start")
		text(strconv.FormatInt(r.Start, 10))
		end()
		start("end")
		text(strconv.FormatInt(r.End, 10))
		end()
		end()
	}
}

// randArea returns 1..3 regions that neither overlap nor touch.
func randArea(rng *rand.Rand) []interval.Region {
	n := 1
	if rng.Intn(3) == 0 {
		n += 1 + rng.Intn(2)
	}
	regs := make([]interval.Region, n)
	pos := int64(rng.Intn(40))
	for i := range regs {
		regs[i] = interval.Region{Start: pos, End: pos + int64(rng.Intn(12))}
		pos = regs[i].End + 2 + int64(rng.Intn(20))
	}
	return regs
}

// layerBase builds a base document: top-level annotations of three layers,
// every fourth carrying a nested annotation of another layer, so deleting the
// outer one kills an area of a different name.
func layerBase(t *testing.T, rng *rand.Rand, n int) *tree.Doc {
	t.Helper()
	var b []byte
	open := func(name string) { b = append(b, "<"+name+">"...) }
	var stack []string
	start := func(name string) { open(name); stack = append(stack, name) }
	text := func(s string) { b = append(b, s...) }
	end := func() { b = append(b, "</"+stack[len(stack)-1]+">"...); stack = stack[:len(stack)-1] }
	start("doc")
	for i := 0; i < n; i++ {
		start(layerNames[rng.Intn(3)])
		writeRegions(randArea(rng), start, text, end)
		if i%4 == 3 {
			start(layerNames[rng.Intn(3)])
			writeRegions(randArea(rng), start, text, end)
			end()
		}
		end()
	}
	end()
	d, err := xmlparse.Parse("layers.xml", b)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

// layerInsert appends one annotation (optionally with a nested annotation of
// another name) and mirrors it onto the index.
func layerInsert(t *testing.T, rng *rand.Rand, d *tree.Doc, ix *RegionIndex) (*tree.Doc, *RegionIndex) {
	t.Helper()
	a, err := tree.NewAppender(d)
	if err != nil {
		t.Fatal(err)
	}
	type ins struct {
		pre  int32
		name string
		regs []interval.Region
	}
	var added []ins
	open := func(name string) {
		regs := randArea(rng)
		added = append(added, ins{a.StartElement(name), name, regs})
		writeRegions(regs, func(n string) { a.StartElement(n) }, a.Text, a.EndElement)
	}
	open(layerNames[rng.Intn(len(layerNames))])
	if rng.Intn(4) == 0 {
		open(layerNames[rng.Intn(len(layerNames))])
		a.EndElement()
	}
	a.EndElement()
	d2, err := a.Commit()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range added {
		id, _ := d2.Dict().Lookup(in.name)
		ix = ix.ApplyInsert(d2, in.pre, id, in.regs)
	}
	return d2, ix
}

// layerDelete tombstones area pre the way Engine.DeleteAnnotation does.
func layerDelete(t *testing.T, d *tree.Doc, ix *RegionIndex, pre int32) (*tree.Doc, *RegionIndex) {
	t.Helper()
	d2, err := d.WithTombstones([]int32{pre})
	if err != nil {
		t.Fatal(err)
	}
	killed := ix.AreasIn(pre, pre+d.Size(pre))
	names := make([]int32, len(killed))
	for i, p := range killed {
		names[i] = d.NameID(p)
	}
	return d2, ix.ApplyDelete(d2, killed, names)
}

// assertCandidatesEqual compares two candidate sequences column for column:
// area list, start-, bounds- and end-ordered rows, both suffix-mins.
func assertCandidatesEqual(t *testing.T, what string, got, want *Candidates) {
	t.Helper()
	eq64 := func(col string, g, w []int64) {
		if !slices.Equal(g, w) {
			t.Fatalf("%s: %s = %v, rebuild has %v", what, col, g, w)
		}
	}
	eq32 := func(col string, g, w []int32) {
		if !slices.Equal(g, w) {
			t.Fatalf("%s: %s = %v, rebuild has %v", what, col, g, w)
		}
	}
	eq32("AreaPres", got.AreaPres(), want.AreaPres())
	gs, ge, gi := got.regionCols()
	ws, we, wi := want.regionCols()
	eq64("rStart", gs, ws)
	eq64("rEnd", ge, we)
	eq32("rID", gi, wi)
	gs, ge, gi = got.boundsCols()
	ws, we, wi = want.boundsCols()
	eq64("bStart", gs, ws)
	eq64("bEnd", ge, we)
	eq32("bID", gi, wi)
	gs, ge, gi = got.endCols()
	ws, we, wi = want.endCols()
	eq64("eStart", gs, ws)
	eq64("eEnd", ge, we)
	eq32("eID", gi, wi)
	eq32("startSuffixMin", got.startSuffixMin(), want.startSuffixMin())
	eq32("endSuffixMin", got.endSuffixMin(), want.endSuffixMin())
}

// assertLayersMatchRebuild checks everything a named read, a point lookup, a
// delete and the planner take from a delta index against a fresh build.
func assertLayersMatchRebuild(t *testing.T, step int, d *tree.Doc, ix *RegionIndex, opts Options) {
	t.Helper()
	fresh, err := BuildIndex(d, opts)
	if err != nil {
		t.Fatalf("step %d: rebuild: %v", step, err)
	}
	for id := int32(0); id < int32(d.Dict().Len()); id++ {
		what := fmt.Sprintf("step %d, name %s", step, d.Dict().Name(id))
		assertCandidatesEqual(t, what, ix.FilterByName(id), fresh.FilterByName(id))
	}
	if g, w := ix.Stats(), fresh.Stats(); g.Areas != w.Areas || g.Regions != w.Regions ||
		g.MultiRegion != w.MultiRegion || g.DocNodes != w.DocNodes || fmt.Sprint(g.ElementCard) != fmt.Sprint(w.ElementCard) {
		t.Fatalf("step %d: Stats = %+v, rebuild has %+v", step, g, w)
	}
	all := fresh.Areas()
	if got := ix.AreasIn(0, math.MaxInt32); !slices.Equal(got, all) {
		t.Fatalf("step %d: AreasIn(all) = %v, rebuild has %v", step, got, all)
	}
	for pre := int32(0); pre < int32(d.NumNodes()); pre++ {
		if g, w := ix.RegionsOf(pre), fresh.RegionsOf(pre); !slices.Equal(g, w) || ix.IsArea(pre) != (w != nil) {
			t.Fatalf("step %d: RegionsOf(%d) = %v, rebuild has %v", step, pre, g, w)
		}
	}
	// The bounds lookup against a linear scan, for every live area's bounds.
	for _, pre := range all {
		regs, name := fresh.RegionsOf(pre), d.NameID(pre)
		s, e := regs[0].Start, regs[len(regs)-1].End
		var want []int32
		for _, p := range all {
			if r := fresh.RegionsOf(p); d.NameID(p) == name && r[0].Start == s && r[len(r)-1].End == e {
				want = append(want, p)
			}
		}
		got := ix.AreasWithBounds(name, s, e)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: AreasWithBounds(%s, %d, %d) = %v, scan says %v", step, d.Dict().Name(name), s, e, got, want)
		}
		if miss := ix.AreasWithBounds(name, s, e+1000); len(miss) != 0 {
			t.Fatalf("step %d: AreasWithBounds on absent bounds = %v", step, miss)
		}
	}
}

// TestLayerViewMatchesRebuild is the per-name view property: across random
// insert / delete / compact histories — multi-region areas, nested layers,
// insert-then-delete inside one delta window — every name's candidate
// sequence, the point lookups, the bounds lookup and the statistics of the
// delta index equal a fresh BuildIndex over the same snapshot, and none of it
// runs the whole-index merge.
func TestLayerViewMatchesRebuild(t *testing.T) {
	opts := regionOpts(t)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := layerBase(t, rng, 24)
		ix, err := BuildIndex(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 0 {
			ix.All().endCols() // a warm base, as after a wildcard query
		}
		_, full0 := IndexMergeStats()
		var lastInsert int32 = -1
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				d, ix = layerInsert(t, rng, d, ix)
				ins, _ := ix.DeltaStats()
				if ins > 0 {
					lastInsert = ix.insPre[ins-1]
				}
			case op < 6 && lastInsert >= 0 && ix.IsArea(lastInsert):
				// Insert-then-delete within one delta window.
				d, ix = layerDelete(t, d, ix, lastInsert)
			case op < 9:
				if live := ix.AreasIn(0, math.MaxInt32); len(live) > 1 {
					d, ix = layerDelete(t, d, ix, live[rng.Intn(len(live))])
				}
			default:
				_, before := IndexMergeStats()
				ix = ix.Compact()
				if _, after := IndexMergeStats(); after != before {
					t.Fatalf("seed %d step %d: Compact ran a whole-index merge", seed, step)
				}
			}
			assertLayersMatchRebuild(t, step, d, ix, opts)
		}
		if _, full := IndexMergeStats(); full != full0 {
			t.Fatalf("seed %d: %d whole-index merges behind named reads, lookups and deletes", seed, full-full0)
		}
		// The whole-index view still agrees too (this is what merges).
		fresh, err := BuildIndex(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertIndexEqual(t, ix, fresh)
		assertIndexEqual(t, ix.Compact(), fresh)
	}
}

// TestLayerMergeCounts pins which reads merge what: a touched name merges its
// layer once per snapshot, an untouched name and the point lookups nothing,
// a wildcard read the whole index once.
func TestLayerMergeCounts(t *testing.T) {
	d, ix := buildDelta(t)
	d, delta := applyInsert(t, d, ix, "hit", 42, 43)
	hitID, _ := d.Dict().Lookup("hit")
	sceneID, _ := d.Dict().Lookup("scene")

	layer0, full0 := IndexMergeStats()
	delta.FilterByName(hitID)
	delta.FilterByName(hitID)
	delta.FilterByName(sceneID)
	delta.Stats()
	delta.RegionsOf(delta.AreasIn(0, math.MaxInt32)[0])
	if layer, full := IndexMergeStats(); layer != layer0+1 || full != full0 {
		t.Fatalf("named reads: %d layer / %d full merges, want 1 / 0", layer-layer0, full-full0)
	}
	delta.All()
	delta.Areas()
	if layer, full := IndexMergeStats(); layer != layer0+1 || full != full0+1 {
		t.Fatalf("wildcard read: %d layer / %d full merges, want 1 / 1", layer-layer0, full-full0)
	}
}

// TestApplyDeleteIgnoresDeadAreas: a pre passed twice, or one that is no
// longer a live area, leaves the tombstones and the live counts exact.
func TestApplyDeleteIgnoresDeadAreas(t *testing.T) {
	d, ix := buildDelta(t)
	target := ix.Areas()[2]
	name := d.NameID(target)
	d2, err := d.WithTombstones([]int32{target})
	if err != nil {
		t.Fatal(err)
	}
	delta := ix.ApplyDelete(d2, []int32{target, target, 1}, []int32{name, name, name})
	if ins, del := delta.DeltaStats(); ins != 0 || del != 1 {
		t.Fatalf("DeltaStats = %d/%d, want 0/1", ins, del)
	}
	fresh, err := BuildIndex(d2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, delta, fresh)
}
