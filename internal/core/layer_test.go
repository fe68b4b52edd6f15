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

// assertLayersMatchRebuild checks everything a named read, a point lookup and
// a delete take from a delta index, and its live counts, against a fresh
// build, and that none of it builds or merges a whole-index table; then the
// unrestricted views, forced on both sides.
func assertLayersMatchRebuild(t *testing.T, step int, d *tree.Doc, ix *RegionIndex, opts Options) {
	t.Helper()
	_, full0 := IndexMergeStats()
	fresh, err := BuildIndex(d, opts)
	if err != nil {
		t.Fatalf("step %d: rebuild: %v", step, err)
	}
	for id := int32(0); id < int32(d.Dict().Len()); id++ {
		what := fmt.Sprintf("step %d, name %s", step, d.Dict().Name(id))
		assertCandidatesEqual(t, what, ix.FilterByName(id), fresh.FilterByName(id))
		// CandidatesOf: every other named area, reversed, plus the name's
		// tombstoned areas, which it drops.
		named := fresh.FilterByName(id).AreaPres()
		var some []int32
		for i := len(named) - 1; i >= 0; i -= 2 {
			some = append(some, named[i])
		}
		want := fresh.Filter(slices.Sorted(slices.Values(some)))
		for _, t := range ix.delLog {
			if t.name == id {
				some = append(some, t.pre)
			}
		}
		assertCandidatesEqual(t, what+" CandidatesOf", ix.CandidatesOf(id, some), want)
		if all := ix.CandidatesOf(id, slices.Clone(named)); all != ix.FilterByName(id) {
			t.Fatalf("%s: CandidatesOf(every named area) is not the cached FilterByName sequence", what)
		}
		// The by-name view as a join context is, row for row, what
		// ContextAreas resolves from the name's live elements.
		view, ctx := ix.FilterByName(id).Areas(), ix.ContextAreas(d.ElementsByName(id), nil, nil)
		if !slices.Equal(view.Start, ctx.Start) || !slices.Equal(view.End, ctx.End) || !slices.Equal(view.Pre, ctx.Pre) ||
			view.Iter != nil || ctx.Iter != nil {
			t.Fatalf("%s: view Areas = %+v, ContextAreas of the live elements = %+v", what, view, ctx)
		}
	}
	if ix.NumAreas() != fresh.NumAreas() || ix.NumRegions() != fresh.NumRegions() || ix.MultiRegion() != fresh.MultiRegion() {
		t.Fatalf("step %d: areas=%d regions=%d multi=%v, rebuild has %d/%d/%v", step,
			ix.NumAreas(), ix.NumRegions(), ix.MultiRegion(), fresh.NumAreas(), fresh.NumRegions(), fresh.MultiRegion())
	}
	all := fresh.areas
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
	if _, full := IndexMergeStats(); full != full0 {
		t.Fatalf("step %d: named reads and lookups built or merged %d whole-index tables", step, full-full0)
	}
	assertCandidatesEqual(t, fmt.Sprintf("step %d, unrestricted view", step), ix.All(), fresh.All())
}

// TestLayerViewMatchesRebuild is the per-name view property: across random
// insert / delete / compact histories — multi-region areas, nested layers,
// insert-then-delete inside one delta window — every name's candidate
// sequence, the point lookups, the bounds lookup and the live counts of the
// delta index equal a fresh BuildIndex over the same snapshot, and none of it
// runs the whole-index merge; nor does a write or a Compact.
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
		var lastInsert int32 = -1
		for step := 0; step < 60; step++ {
			_, before := IndexMergeStats()
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
				ix = ix.Compact()
			}
			if _, after := IndexMergeStats(); after != before {
				t.Fatalf("seed %d step %d: a write or Compact ran %d whole-index merges", seed, step, after-before)
			}
			assertLayersMatchRebuild(t, step, d, ix, opts)
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

// layerAppend appends one annotation of the given name and regions and
// mirrors it onto the index.
func layerAppend(t *testing.T, d *tree.Doc, ix *RegionIndex, name string, regs []interval.Region) (*tree.Doc, *RegionIndex) {
	t.Helper()
	a, err := tree.NewAppender(d)
	if err != nil {
		t.Fatal(err)
	}
	pre := a.StartElement(name)
	writeRegions(regs, func(n string) { a.StartElement(n) }, a.Text, a.EndElement)
	a.EndElement()
	d2, err := a.Commit()
	if err != nil {
		t.Fatal(err)
	}
	id, _ := d2.Dict().Lookup(name)
	return d2, ix.ApplyInsert(d2, pre, id, regs)
}

// boundsLags counts the lineage memo states the bounds oracle met: a name
// with pending inserts and no memo (no read since the last compaction), a
// memo that lags the queried version, and, for a lagging memo, a match on
// both sides of its coverage, a match at the first insert after it, and a
// memo row deleted after it that was itself an insert; and an older version
// queried while the memo is newer.
type boundsLags struct {
	noMemo, lagged, straddled, firstAfter, insertKilledAfter, older int
}

// assertBoundsMatchScan checks AreasWithBounds on ix, which reads no layer
// of ix, against a scan of a fresh build's live areas, for the bounds of
// every area the lineage wrote, live or deleted.
func assertBoundsMatchScan(t *testing.T, what string, d *tree.Doc, ix *RegionIndex, opts Options, lags *boundsLags) {
	t.Helper()
	fresh, err := BuildIndex(d, opts)
	if err != nil {
		t.Fatalf("%s: rebuild: %v", what, err)
	}
	type bounds struct {
		name int32
		s, e int64
	}
	queries := map[bounds]bool{}
	add := func(pre int32, regs []interval.Region) {
		queries[bounds{d.NameID(pre), regs[0].Start, regs[len(regs)-1].End}] = true
	}
	base := ix
	if ix.base != nil {
		base = ix.base
	}
	for _, p := range base.areas {
		add(p, base.RegionsOf(p))
	}
	for i, p := range ix.insPre {
		add(p, ix.insRegions(i))
	}
	live := fresh.Areas()
	for q := range queries {
		var want []int32
		for _, p := range live {
			if r := fresh.RegionsOf(p); d.NameID(p) == q.name && r[0].Start == q.s && r[len(r)-1].End == q.e {
				want = append(want, p)
			}
		}
		if got := ix.AreasWithBounds(q.name, q.s, q.e); !slices.Equal(got, want) {
			t.Fatalf("%s: AreasWithBounds(%s, %d, %d) = %v, scan says %v", what, d.Dict().Name(q.name), q.s, q.e, got, want)
		}
		if ix.base == nil {
			continue
		}
		v, ok := ix.base.carried.Load(q.name)
		if !ok {
			if slices.Contains(ix.insName, q.name) {
				lags.noMemo++
			}
			continue
		}
		m := v.(*carriedLayer)
		switch {
		case m.ins > len(ix.insPre) || m.del > len(ix.delLog):
			lags.older++
			continue
		case m.ins == len(ix.insPre) && m.del == len(ix.delLog):
			continue
		}
		lags.lagged++
		bs, be, bid := m.c.boundsCols()
		inMemo := false
		for k := range bid {
			if bs[k] != q.s || be[k] != q.e {
				continue
			}
			inMemo = inMemo || slices.Contains(want, bid[k])
			if i := inSorted(ix.insPre, bid[k]); i >= 0 && ix.tombstoned(bid[k]) {
				lags.insertKilledAfter++
			}
		}
		if m.ins < len(ix.insPre) {
			if inMemo && want[len(want)-1] >= ix.insPre[m.ins] {
				lags.straddled++
			}
			if slices.Contains(want, ix.insPre[m.ins]) {
				lags.firstAfter++
			}
		}
	}
}

// TestAreasWithBoundsAtMemoLags: the bounds lookup that every delete starts
// with reads the lineage's memo of the name and scans only the inserts after
// its coverage. Across random histories whose reads are sparse — k writes
// between two reads of a name, writes before the first read since a
// compaction, twins inserted with the bounds of a live area on both sides of
// a read, inserts deleted after the read that carried them — it equals a
// scan of the live areas, on the newest version and on older ones queried
// after the memo moved past them.
func TestAreasWithBoundsAtMemoLags(t *testing.T) {
	opts := regionOpts(t)
	var lags boundsLags
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := layerBase(t, rng, 24)
		ix, err := BuildIndex(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		type version struct {
			d  *tree.Doc
			ix *RegionIndex
		}
		var versions []version
		for step := 0; step < 80; step++ {
			live := ix.AreasIn(0, math.MaxInt32)
			switch op := rng.Intn(20); {
			case op < 6:
				d, ix = layerInsert(t, rng, d, ix)
			case op < 10 && len(live) > 0:
				p := live[rng.Intn(len(live))]
				d, ix = layerAppend(t, d, ix, d.Dict().Name(d.NameID(p)), ix.RegionsOf(p))
			case op < 15 && len(live) > 1:
				d, ix = layerDelete(t, d, ix, live[rng.Intn(len(live))])
			case op < 19:
				if id, ok := d.Dict().Lookup(layerNames[rng.Intn(len(layerNames))]); ok {
					ix.FilterByName(id) // publishes the lineage's memo of the name
				}
			default:
				ix = ix.Compact()
			}
			versions = append(versions, version{d, ix})
			assertBoundsMatchScan(t, fmt.Sprintf("seed %d step %d", seed, step), d, ix, opts, &lags)
			if v := versions[rng.Intn(len(versions))]; rng.Intn(3) == 0 {
				assertBoundsMatchScan(t, fmt.Sprintf("seed %d step %d, older version", seed, step), v.d, v.ix, opts, &lags)
			}
		}
	}
	t.Logf("%+v", lags)
	if lags.noMemo == 0 || lags.lagged == 0 || lags.straddled == 0 || lags.firstAfter == 0 ||
		lags.insertKilledAfter == 0 || lags.older == 0 {
		t.Fatalf("a memo state was never reached: %+v", lags)
	}
}

// TestLayerMergeCounts pins which reads merge what: a touched name merges its
// layer once per snapshot, an untouched name and the point lookups nothing,
// a wildcard read the whole index once, over the base's table, which it
// builds once.
func TestLayerMergeCounts(t *testing.T) {
	d, ix := buildDelta(t)
	d, delta := applyInsert(t, d, ix, "hit", 42, 43)
	hitID, _ := d.Dict().Lookup("hit")
	sceneID, _ := d.Dict().Lookup("scene")

	layer0, full0 := IndexMergeStats()
	tables0 := IndexTableBuilds()
	delta.FilterByName(hitID)
	delta.FilterByName(hitID)
	delta.FilterByName(sceneID)
	delta.NumAreas()
	delta.RegionsOf(delta.AreasIn(0, math.MaxInt32)[0])
	if layer, full := IndexMergeStats(); layer != layer0+1 || full != full0 {
		t.Fatalf("named reads: %d layer / %d full merges, want 1 / 0", layer-layer0, full-full0)
	}
	if IndexTableBuilds() != tables0 {
		t.Fatal("named reads built the base's table")
	}
	delta.All()
	delta.Areas()
	delta.base.All()
	if layer, full := IndexMergeStats(); layer != layer0+1 || full != full0+2 || IndexTableBuilds() != tables0+1 {
		t.Fatalf("wildcard read: %d layer / %d full merges, %d table builds, want 1 / 2 (the merge and the base's table), 1",
			layer-layer0, full-full0, IndexTableBuilds()-tables0)
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

// TestAttrOrderServedByBase: a value ordering is built once on the base,
// sorted by bytes and by number with ties by pre; delta layers serve the
// base's ordering and never cache one of their own, and a compaction starts
// with an empty cache.
func TestAttrOrderServedByBase(t *testing.T) {
	d, ix := buildDelta(t)
	hitID, _ := d.Dict().Lookup("hit")
	endID, _ := d.Dict().Lookup("end")
	num := func(b []byte) (float64, bool) { v, err := strconv.ParseFloat(string(b), 64); return v, err == nil }
	built := AttrOrderBuilds()
	o := ix.AttrOrder(hitID, endID, num)
	if ix.AttrOrder(hitID, endID, num) != o || AttrOrderBuilds() != built+1 {
		t.Fatal("a second lookup rebuilt the ordering")
	}
	// hit ends 20, 130, 160: byte order puts "130" < "160" < "20".
	var strs, nums []string
	for _, e := range o.Str {
		strs = append(strs, string(e.Val))
	}
	for _, e := range o.Num {
		nums = append(nums, fmt.Sprint(e.Val))
	}
	if fmt.Sprint(strs) != "[130 160 20]" || fmt.Sprint(nums) != "[20 130 160]" {
		t.Fatalf("orderings %v / %v", strs, nums)
	}
	d, delta := applyInsert(t, d, ix, "hit", 30, 160)
	_, delta = applyDelete(t, d, delta, o.Str[0].Pre)
	if delta.AttrOrder(hitID, endID, num) != o || AttrOrderBuilds() != built+1 {
		t.Fatal("a delta layer built its own ordering")
	}
	for _, x := range []*RegionIndex{delta, delta.Compact()} {
		n := 0
		x.attrOrders.Range(func(any, any) bool { n++; return true })
		if n != 0 {
			t.Fatalf("%d orderings cached off the base", n)
		}
	}
	// Ties by pre: the inserted hit's end equals a base hit's.
	fresh, err := BuildIndex(delta.Doc(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	o2 := fresh.AttrOrder(hitID, endID, num)
	if ins := delta.InsertedAreas(hitID); len(o2.Num) != 3 || o2.Num[1].Val != 160 || o2.Num[2].Val != 160 ||
		o2.Num[1].Pre >= o2.Num[2].Pre || o2.Num[2].Pre != ins[0] {
		t.Fatalf("rebuilt ordering %+v", o2.Num)
	}
}
