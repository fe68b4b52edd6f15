package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"soxq/internal/interval"
	"soxq/internal/tree"
)

// refBuild runs the reference builder (index_ref_test.go) over a snapshot. It
// finds the areas by its own walk of the tree, not by asking the index under
// test: attribute pairs, or region child elements when opts says so.
func refBuild(t *testing.T, d *tree.Doc, opts Options) *refIndex {
	t.Helper()
	ref := &refIndex{rankMap: map[int32]int32{}}
	pos := func(s string) int64 {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			t.Fatalf("refBuild: %v", err)
		}
		return v
	}
	childValue := func(pre int32, name string) string {
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			if d.NodeName(c) == name {
				return d.StringValue(c)
			}
		}
		t.Fatalf("refBuild: node %d has no <%s>", pre, name)
		return ""
	}
	for pre := int32(0); pre < int32(d.NumNodes()); pre++ {
		if d.Kind(pre) != tree.ElementNode || !d.Alive(pre) {
			continue
		}
		if !opts.UseRegionElements {
			if s, ok := d.AttrByName(pre, opts.Start); ok {
				e, _ := d.AttrByName(pre, opts.End)
				ref.addArea(pre, []interval.Region{{Start: pos(s), End: pos(e)}})
			}
			continue
		}
		var regs []interval.Region
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			if d.NodeName(c) == opts.Region {
				regs = append(regs, interval.Region{Start: pos(childValue(c, opts.Start)), End: pos(childValue(c, opts.End))})
			}
		}
		if len(regs) > 0 && d.NodeName(pre) != opts.Region {
			area, err := interval.NewArea(regs...)
			if err != nil {
				t.Fatalf("refBuild: %v", err)
			}
			ref.addArea(pre, area.Regions())
		}
	}
	ref.sortRows()
	ref.buildEndOrder()
	return ref
}

// sameCol treats a nil and an empty column as equal.
func sameCol(a, b any) bool {
	return reflect.ValueOf(a).Len()+reflect.ValueOf(b).Len() == 0 || reflect.DeepEqual(a, b)
}

// areaOffsets returns the area offsets of ix, the identity when it keeps none
// (every area has one region).
func areaOffsets(ix *RegionIndex) []int32 {
	if ix.areaOff != nil {
		return ix.areaOff
	}
	off := make([]int32, len(ix.areas)+1)
	for i := range off {
		off[i] = int32(i)
	}
	return off
}

// endCols and suffixMins read the unrestricted view's orderings, built on
// first use: the index-level forms the tests compare.
func (ix *RegionIndex) endCols() ([]int64, []int64, []int32) { return ix.All().endCols() }

func (ix *RegionIndex) suffixMins() ([]int32, []int32) {
	return ix.All().startSuffixMin(), ix.All().endSuffixMin()
}

// assertIdentity holds every column of a base index to the reference's, its
// unrestricted table forced.
func assertIdentity(t *testing.T, what string, ix *RegionIndex, ref *refIndex) {
	t.Helper()
	if ix.base != nil {
		t.Fatalf("%s: not a base index", what)
	}
	all := ix.All()
	es, ee, eid := ix.endCols()
	bMin, eMin := ix.suffixMins()
	refMin := func(ids []int32) []int32 {
		out, m := make([]int32, len(ids)), int32(1<<31-1)
		for k := len(ids) - 1; k >= 0; k-- {
			m = min(m, ids[k])
			out[k] = m
		}
		return out
	}
	for _, col := range []struct {
		name      string
		got, want any
	}{
		{"rStart", all.rStart, ref.rStart}, {"rEnd", all.rEnd, ref.rEnd}, {"rID", all.rID, ref.rID},
		{"bStart", all.bStart, ref.bStart}, {"bEnd", all.bEnd, ref.bEnd}, {"bID", all.bID, ref.bID},
		{"areas", ix.areas, ref.areas}, {"all.areas", all.areas, ref.areas}, {"areaOff", areaOffsets(ix), ref.areaOff}, {"areaRegs", ix.areaRegs, ref.areaRegs},
		{"eStart", es, ref.eStart}, {"eEnd", ee, ref.eEnd}, {"eID", eid, ref.eID},
		{"bSuffixMin", bMin, refMin(ref.bID)}, {"eSuffixMin", eMin, refMin(ref.eID)},
	} {
		if !sameCol(col.got, col.want) {
			t.Fatalf("%s: column %s differs\n got %v\nwant %v", what, col.name, col.got, col.want)
		}
	}
	if ix.nAreas != ref.nAreas || ix.nRegions != ref.nRegions || ix.nMulti != ref.nMulti || ix.multiRegion != ref.multiRegion {
		t.Fatalf("%s: counts %d/%d/%d/%v, reference %d/%d/%d/%v", what, ix.nAreas, ix.nRegions, ix.nMulti, ix.multiRegion,
			ref.nAreas, ref.nRegions, ref.nMulti, ref.multiRegion)
	}
	if (ix.areaOff != nil) != ix.multiRegion {
		t.Fatalf("%s: area offsets kept = %v with multiRegion = %v", what, ix.areaOff != nil, ix.multiRegion)
	}
	if aliased := len(all.bID) > 0 && &all.bID[0] == &all.rID[0]; len(all.bID) > 0 && aliased == ix.multiRegion {
		t.Fatalf("%s: bounds alias the region rows = %v with multiRegion = %v", what, aliased, ix.multiRegion)
	}
	// The dense rank column is the old map: it ends at the last area, holds
	// the map's rank for every area and -1 everywhere else.
	if n := len(ix.areas); (n == 0 && len(ix.rank) != 0) || (n > 0 && len(ix.rank) != int(ix.areas[n-1])+1) {
		t.Fatalf("%s: rank column has %d entries for areas %v", what, len(ix.rank), ix.areas)
	}
	for pre := int32(-2); pre < int32(ix.doc.NumNodes())+3; pre++ {
		rank, isArea := ref.rankMap[pre]
		if isArea != ix.IsArea(pre) {
			t.Fatalf("%s: IsArea(%d) = %v", what, pre, ix.IsArea(pre))
		}
		var want []interval.Region
		if isArea {
			want = ref.areaRegs[ref.areaOff[rank]:ref.areaOff[rank+1]]
			if ix.rank[pre] != rank {
				t.Fatalf("%s: rank[%d] = %d, want %d", what, pre, ix.rank[pre], rank)
			}
		} else if pre >= 0 && int(pre) < len(ix.rank) && ix.rank[pre] != -1 {
			t.Fatalf("%s: rank[%d] = %d for a non-area", what, pre, ix.rank[pre])
		}
		if got := ix.RegionsOf(pre); !sameCol(got, want) || (want == nil) != (got == nil) {
			t.Fatalf("%s: RegionsOf(%d) = %v, want %v", what, pre, got, want)
		}
		if got := ix.regionCount(pre); int(got) != len(want) {
			t.Fatalf("%s: regionCount(%d) = %d, want %d", what, pre, got, len(want))
		}
	}
}

// attrDoc writes one <a start end/> per row, in row order, between elements
// that are no areas (the root, a leading and a trailing <x/>).
func attrDoc(t *testing.T, rows [][2]int64) *tree.Doc {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<doc><x/>")
	for i, r := range rows {
		fmt.Fprintf(&sb, `<a%d start="%d" end="%d"/>`, i%3, r[0], r[1])
	}
	sb.WriteString("<x/><x/></doc>")
	return parseDoc(t, sb.String())
}

func TestIndexIdentityAttributeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	random := func(n int, span int64) [][2]int64 {
		rows := make([][2]int64, n)
		for i := range rows {
			s := rng.Int63n(span)
			rows[i] = [2]int64{s, s + rng.Int63n(span/4+1)}
		}
		return rows
	}
	sorted := make([][2]int64, 200)
	for i := range sorted {
		sorted[i] = [2]int64{int64(i/2) * 3, int64(i/2)*3 + int64(i%2)}
	}
	reversed := make([][2]int64, len(sorted))
	for i, r := range sorted {
		reversed[len(sorted)-1-i] = r
	}
	cases := map[string][][2]int64{
		"none":            nil,
		"one":             {{7, 9}},
		"already sorted":  sorted,
		"fully permuted":  reversed,
		"duplicates":      {{5, 9}, {1, 2}, {5, 9}, {5, 9}, {1, 2}, {0, 0}},
		"zero width":      {{4, 4}, {2, 2}, {4, 4}, {3, 3}, {2, 2}},
		"start == end":    {{5, 6}, {5, 5}, {4, 5}, {6, 6}, {5, 7}, {3, 5}, {5, 5}},
		"negative":        {{-5, 5}, {-9, -9}, {-5, -1}, {0, 0}, {-9, 3}},
		"random wide":     random(500, 1<<40),
		"random narrow":   random(500, 12),
		"random two keys": random(300, 2),
	}
	for name, rows := range cases {
		d := attrDoc(t, rows)
		ix, err := BuildIndex(d, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertIdentity(t, name, ix, refBuild(t, d, DefaultOptions()))
		// A filtered candidate set orders its own end columns by the same sort.
		id, _ := d.Dict().Lookup("a1")
		c := ix.Filter(d.ElementsByName(id))
		var sub refIndex
		for k, pre := range c.rID {
			if d.NameID(pre) != id {
				t.Fatalf("%s: candidate %d is no <a1>", name, pre)
			}
			sub.rStart, sub.rEnd, sub.rID = append(sub.rStart, c.rStart[k]), append(sub.rEnd, c.rEnd[k]), append(sub.rID, pre)
		}
		sub.buildEndOrder()
		if es, ee, eid := c.endCols(); !sameCol(es, sub.eStart) || !sameCol(ee, sub.eEnd) || !sameCol(eid, sub.eID) {
			t.Fatalf("%s: filtered end-ordered columns differ", name)
		}
	}
}

func TestIndexIdentityRegionElements(t *testing.T) {
	opts := regionOpts(t)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := layerBase(t, rng, 1+rng.Intn(60))
		ix, err := BuildIndex(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentity(t, fmt.Sprint("seed ", seed), ix, refBuild(t, d, opts))
	}
	// Single-region areas written as region elements keep the aliased bounds.
	d := parseDoc(t, `<doc><a><region><start>4</start><end>9</end></region></a><b><region><start>1</start><end>2</end></region></b></doc>`)
	ix, err := BuildIndex(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentity(t, "single-region elements", ix, refBuild(t, d, opts))
}

// TestIndexIdentityCompact: after a random insert/delete history, Compact
// yields the reference's columns for the final snapshot, its table built only
// when assertIdentity forces it, and the delta layers answer point lookups
// beyond the base's dense rank column on the way there.
func TestIndexIdentityCompact(t *testing.T) {
	opts := regionOpts(t)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		d := layerBase(t, rng, 5+rng.Intn(30))
		base, err := BuildIndex(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		ix := base
		for step := 0; step < 40; step++ {
			if live := ix.AreasIn(0, int32(d.NumNodes())); rng.Intn(3) == 0 && len(live) > 0 {
				d, ix = layerDelete(t, d, ix, live[rng.Intn(len(live))])
			} else {
				d, ix = layerInsert(t, rng, d, ix)
			}
			ref := refBuild(t, d, opts)
			for pre := int32(len(base.rank)); pre < int32(d.NumNodes())+2; pre++ {
				rank, isArea := ref.rankMap[pre]
				if base.IsArea(pre) || ix.IsArea(pre) != isArea {
					t.Fatalf("seed %d step %d: IsArea(%d) beyond the base column: base %v, layer %v, want %v",
						seed, step, pre, base.IsArea(pre), ix.IsArea(pre), isArea)
				}
				if isArea && !reflect.DeepEqual(ix.RegionsOf(pre), ref.areaRegs[ref.areaOff[rank]:ref.areaOff[rank+1]]) {
					t.Fatalf("seed %d step %d: RegionsOf(%d) on the delta layer", seed, step, pre)
				}
				if int(ix.regionCount(pre)) != len(ix.RegionsOf(pre)) {
					t.Fatalf("seed %d step %d: regionCount(%d)", seed, step, pre)
				}
			}
			if step%13 == 12 {
				ix = compactLazy(t, ix)
				assertIdentity(t, fmt.Sprintf("seed %d step %d", seed, step), ix, ref)
			}
		}
		assertIdentity(t, fmt.Sprint("seed ", seed), compactLazy(t, ix), refBuild(t, d, opts))
	}
}

// compactLazy compacts ix and checks that the fold built no table.
func compactLazy(t *testing.T, ix *RegionIndex) *RegionIndex {
	t.Helper()
	before := IndexTableBuilds()
	n := ix.Compact()
	if n.all != nil || IndexTableBuilds() != before {
		t.Fatal("Compact built a table")
	}
	return n
}
