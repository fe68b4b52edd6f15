package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"soxq/internal/interval"
	"soxq/internal/tree"
)

// carryInsert appends one area named name with regs and mirrors it onto ix.
func carryInsert(t *testing.T, d *tree.Doc, ix *RegionIndex, name string, regs []interval.Region) (*tree.Doc, *RegionIndex, int32) {
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
	return d2, ix.ApplyInsert(d2, pre, id, regs), pre
}

// TestCarriedLayerMatchesRebuild is the carry-forward property: a layer
// built from the lineage's newest materialised layer plus the writes since
// equals a fresh BuildIndex over the same snapshot, column for column, over
// seeded histories of inserts and deletes of two names — single- and
// multi-region areas, deletes of areas inserted since the last read, reads
// at random points, reads of older retained versions after a newer one
// published its layer, and compactions in between.
func TestCarriedLayerMatchesRebuild(t *testing.T) {
	opts := regionOpts(t)
	names := []string{"mark", "note"}
	type version struct {
		d  *tree.Doc
		ix *RegionIndex
	}
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := layerBase(t, rng, 16)
		ix, err := BuildIndex(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		read := func(step int, v version) {
			t.Helper()
			fresh, err := BuildIndex(v.d, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				id, ok := v.d.Dict().Lookup(name)
				if !ok {
					continue
				}
				what := fmt.Sprintf("seed %d step %d %s (%d+ %d-)", seed, step, name, len(v.ix.insPre), len(v.ix.delLog))
				assertCandidatesEqual(t, what, v.ix.FilterByName(id), fresh.FilterByName(id))
			}
		}
		var retained []version
		var sinceRead []int32 // areas inserted since the last read
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				var pre int32
				d, ix, pre = carryInsert(t, d, ix, names[rng.Intn(2)], randArea(rng))
				sinceRead = append(sinceRead, pre)
			case op < 11 && len(sinceRead) > 0:
				k := rng.Intn(len(sinceRead))
				if ix.IsArea(sinceRead[k]) {
					d, ix = layerDelete(t, d, ix, sinceRead[k])
				}
				sinceRead = slices.Delete(sinceRead, k, k+1)
			case op < 14:
				if live := ix.AreasIn(0, 1<<31-1); len(live) > 1 {
					d, ix = layerDelete(t, d, ix, live[rng.Intn(len(live))])
				}
			case op < 17:
				read(step, version{d, ix})
				sinceRead = sinceRead[:0]
			case op < 19:
				retained = append(retained, version{d, ix})
			case len(retained) > 0:
				// An older version, retained unread; the lineage's memo may
				// already cover more writes than it holds.
				k := rng.Intn(len(retained))
				read(step, retained[k])
				retained = slices.Delete(retained, k, k+1)
			default:
				ix = ix.Compact()
			}
			if ix.base != nil {
				n := 0
				ix.base.carried.Range(func(k, v any) bool {
					if !ix.nameTouched(k.(int32)) {
						t.Fatalf("seed %d step %d: memo holds untouched name %d", seed, step, k)
					}
					n++
					return true
				})
				if n > len(layerNames) {
					t.Fatalf("seed %d step %d: memo holds %d layers", seed, step, n)
				}
			}
		}
		read(-1, version{d, ix})
		for _, v := range retained {
			read(-1, v)
		}
	}
}

// TestCarriedLayerSkipsOlderMemo pins the coverage rule: a version older
// than the lineage's memo rebuilds its layer from the base, and a newer one
// starts from the memo and applies only the writes since.
func TestCarriedLayerSkipsOlderMemo(t *testing.T) {
	d0, ix := buildDelta(t)
	d1, v1 := applyInsert(t, d0, ix, "hit", 40, 50)
	d2, v2 := applyInsert(t, d1, v1, "hit", 60, 70)
	d3, v3 := applyDelete(t, d2, v2, v1.insPre[0])
	hitID, _ := d3.Dict().Lookup("hit")
	memo := func() *carriedLayer { m, _ := ix.carried.Load(hitID); return m.(*carriedLayer) }
	rebuilt := func(d *tree.Doc) *Candidates {
		fresh, err := BuildIndex(d, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return fresh.FilterByName(hitID)
	}
	c2 := v2.FilterByName(hitID)
	if memo().c != c2 {
		t.Fatal("the read did not publish its layer")
	}
	// v1 is older than the memo: its layer comes from the base, and the
	// memo stays v2's.
	assertCandidatesEqual(t, "older version", v1.FilterByName(hitID), rebuilt(d1))
	if memo().c != c2 {
		t.Fatal("an older version replaced the memo")
	}
	// v3 deletes v1's insert, which v2's layer holds: dropped from the memo.
	before, _ := IndexMergeStats()
	assertCandidatesEqual(t, "newer version", v3.FilterByName(hitID), rebuilt(d3))
	if after, _ := IndexMergeStats(); after != before+1 {
		t.Fatalf("newer version ran %d layer merges, want 1", after-before)
	}
	if m := memo(); m.ins != 2 || m.del != 1 {
		t.Fatalf("memo coverage %d+ %d-, want 2+ 1-", m.ins, m.del)
	}
}

// TestCarriedLayerConcurrentReaders: readers of many versions of one lineage
// materialise and publish the same name's layer at once, each seeing exactly
// its own version.
func TestCarriedLayerConcurrentReaders(t *testing.T) {
	opts := regionOpts(t)
	rng := rand.New(rand.NewSource(7))
	d := layerBase(t, rng, 8)
	ix, err := BuildIndex(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var versions []*RegionIndex
	var want []*Candidates
	for i := 0; i < 24; i++ {
		if live := ix.AreasIn(0, 1<<31-1); i%3 == 2 && len(live) > 1 {
			d, ix = layerDelete(t, d, ix, live[rng.Intn(len(live))])
		} else {
			d, ix, _ = carryInsert(t, d, ix, "mark", randArea(rng))
		}
		fresh, err := BuildIndex(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		id, _ := d.Dict().Lookup("mark")
		versions, want = append(versions, ix), append(want, fresh.FilterByName(id))
	}
	id, _ := d.Dict().Lookup("mark")
	got := make([]*Candidates, len(versions))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range versions {
				if k%4 == g {
					got[k] = versions[len(versions)-1-k].FilterByName(id)
				} else {
					versions[k].FilterByName(id)
				}
			}
		}(g)
	}
	wg.Wait()
	for k := range versions {
		assertCandidatesEqual(t, fmt.Sprintf("version %d", len(versions)-1-k), got[k], want[len(versions)-1-k])
	}
}
