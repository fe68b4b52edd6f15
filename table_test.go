package soxq

import (
	"slices"
	"testing"

	"soxq/internal/core"
	"soxq/internal/xmark"
)

// The region index builds its unrestricted start-ordered table only for a
// step that reads every row; by-name steps and compactions read and keep the
// per-area geometry and the by-name views.

// engineIndex returns the engine's current region index of document name.
func engineIndex(t *testing.T, eng *Engine, name string) *core.RegionIndex {
	t.Helper()
	eng.mu.RLock()
	d, opts := eng.docs[name], eng.options
	eng.mu.RUnlock()
	ix, err := eng.indexFor(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestByNameReadsBuildNoTable: the paper's XMark queries and a by-name
// select step, in every execution mode, build no unrestricted table; a
// wildcard step builds it once per base index and reuses it.
func TestByNameReadsBuildNoTable(t *testing.T) {
	run := func(eng *Engine, q string, cfg Config) {
		t.Helper()
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prep.Exec(cfg); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	cfgs := []Config{{}, {StreamChunk: 7}, {Mode: ModeBasic}}
	before := core.IndexTableBuilds()
	x := xmarkEngine(t, 0.05)
	for _, q := range xmark.QueryNumbers {
		for _, cfg := range cfgs {
			run(x, xmarkStandOffQuery(q), cfg)
		}
	}
	eng := mutateEngine(t)
	const byName, wildcard = `doc("m.xml")//scene/select-narrow::hit`, `doc("m.xml")//scene/select-narrow::*`
	for _, cfg := range cfgs {
		run(eng, byName, cfg)
	}
	if n := core.IndexTableBuilds() - before; n != 0 {
		t.Fatalf("by-name reads built %d tables, want none", n)
	}
	for i := 0; i < 3; i++ {
		run(eng, wildcard, Config{})
	}
	if n := core.IndexTableBuilds() - before; n != 1 {
		t.Fatalf("wildcard reads of one base built %d tables, want 1", n)
	}
	// A write and a compaction make a new base: its first wildcard read
	// builds its table, the fold itself none.
	if err := eng.InsertAnnotation("m.xml", "hit", Region{Start: 30, End: 40}); err != nil {
		t.Fatal(err)
	}
	if err := eng.CompactAnnotations("m.xml"); err != nil {
		t.Fatal(err)
	}
	run(eng, byName, Config{})
	if n := core.IndexTableBuilds() - before; n != 1 {
		t.Fatalf("compaction and a by-name read built %d tables, want none", n-1)
	}
	for i := 0; i < 3; i++ {
		run(eng, wildcard, Config{})
	}
	if n := core.IndexTableBuilds() - before; n != 2 {
		t.Fatalf("wildcard reads of the compacted base built %d tables, want 1", n-1)
	}
}

// TestCompactCarriesViews: a compaction keeps the view and the value
// orderings of every name its writes did not touch, as they are, and hands
// the new base each read touched name's view at the final coverage, equal
// row for row to a fresh build's.
func TestCompactCarriesViews(t *testing.T) {
	eng := New()
	if err := eng.LoadXML("m.xml", []byte(`<doc>
  <scene id="s1" start="0" end="99"/>
  <scene id="s2" start="100" end="199"/>
  <hit id="h1" start="10" end="20"/>
  <hit id="h2" start="110" end="120"/>
  <hit id="h3" start="150" end="190"/>
</doc>`)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`doc("m.xml")//hit/select-wide::scene[@id = "s2"]`,
		`doc("m.xml")//scene/select-narrow::hit[@start < 160]`,
		`doc("m.xml")//scene/select-wide::hit`,
	}
	answers := func(eng *Engine) []string {
		t.Helper()
		var out []string
		for _, q := range queries {
			res, err := eng.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.String())
		}
		return out
	}
	answers(eng)
	if err := eng.InsertAnnotation("m.xml", "hit", Region{Start: 30, End: 40}); err != nil {
		t.Fatal(err)
	}
	answers(eng) // the lineage reads hit after a write, and not after the next two
	if n, err := eng.DeleteAnnotation("m.xml", "hit", 110, 120); err != nil || n != 1 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if err := eng.InsertAnnotation("m.xml", "hit", Region{Start: 5, End: 95}); err != nil {
		t.Fatal(err)
	}
	ix := engineIndex(t, eng, "m.xml")
	d := ix.Doc()
	sceneID, _ := d.Dict().Lookup("scene")
	hitID, _ := d.Dict().Lookup("hit")
	scene := ix.FilterByName(sceneID)
	snap, err := eng.Query(`doc("m.xml")/*`)
	if err != nil {
		t.Fatal(err)
	}
	oracle := New()
	if err := oracle.LoadXML("m.xml", []byte(snap.String())); err != nil {
		t.Fatal(err)
	}

	if err := eng.CompactAnnotations("m.xml"); err != nil {
		t.Fatal(err)
	}
	compacted := engineIndex(t, eng, "m.xml")
	if ins, del := compacted.DeltaStats(); compacted == ix || ins+del != 0 {
		t.Fatal("no compaction")
	}
	if compacted.FilterByName(sceneID) != scene {
		t.Fatal("the untouched name's view was not carried")
	}
	builds := core.AttrOrderBuilds()
	layer, _ := core.IndexMergeStats()
	got := answers(eng)
	if b := core.AttrOrderBuilds(); b != builds+1 {
		t.Fatalf("reads after the compaction built %d value orderings, want 1 (the touched hit's)", b-builds)
	}
	if l, _ := core.IndexMergeStats(); l != layer {
		t.Fatalf("reads after the compaction merged %d layers, want none", l-layer)
	}
	if want := answers(oracle); !slices.Equal(got, want) {
		t.Fatalf("after compaction %v, fresh engine %v", got, want)
	}
	fresh, err := core.BuildIndex(compacted.Doc(), compacted.Options())
	if err != nil {
		t.Fatal(err)
	}
	g, w := compacted.FilterByName(hitID), fresh.FilterByName(hitID)
	ga, wa := g.Areas(), w.Areas()
	if !slices.Equal(g.AreaPres(), w.AreaPres()) || !slices.Equal(ga.Start, wa.Start) ||
		!slices.Equal(ga.End, wa.End) || !slices.Equal(ga.Pre, wa.Pre) {
		t.Fatalf("touched view %v %+v, fresh build %v %+v", g.AreaPres(), ga, w.AreaPres(), wa)
	}
	for pos := int64(-1); pos <= 200; pos++ {
		gp, gok := g.MinPreEndFrom(pos)
		wp, wok := w.MinPreEndFrom(pos)
		if gp != wp || gok != wok {
			t.Fatalf("touched view MinPreEndFrom(%d) = %d/%v, fresh build %d/%v", pos, gp, gok, wp, wok)
		}
	}
}
