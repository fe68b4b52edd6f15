package xmark

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"

	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xmlparse"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Scale: 0.001, Seed: 7}
	a, err := GenerateBytes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateBytes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("generation is not deterministic")
	}
	c, err := GenerateBytes(Config{Scale: 0.001, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateWellFormedAndShaped(t *testing.T) {
	data, err := GenerateBytes(Config{Scale: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := xmlparse.Parse("xmark.xml", data)
	if err != nil {
		t.Fatalf("generated document is not well-formed: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	count := func(name string) int {
		id, ok := d.Dict().Lookup(name)
		if !ok {
			return 0
		}
		return len(d.ElementsByName(id))
	}
	c := countsFor(0.002)
	for name, want := range map[string]int{
		"person": c.persons, "open_auction": c.open,
		"closed_auction": c.closed, "category": c.categories,
		"item": c.items, "edge": c.edges,
	} {
		if got := count(name); got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
	for _, name := range []string{"site", "regions", "people", "open_auctions",
		"closed_auctions", "categories", "catgraph", "africa", "europe"} {
		if count(name) == 0 {
			t.Errorf("missing element %s", name)
		}
	}
	// person0 must exist for XMark Q1.
	id, _ := d.Dict().Lookup("person")
	found := false
	for _, pre := range d.ElementsByName(id) {
		if v, _ := d.AttrByName(pre, "id"); v == "person0" {
			found = true
		}
	}
	if !found {
		t.Error("person0 missing")
	}
}

// TestGenerateSizeCalibration: scale maps to the paper's document sizes
// within a tolerance (scale 0.01 should be ~1.1 MB).
func TestGenerateSizeCalibration(t *testing.T) {
	data, err := GenerateBytes(Config{Scale: 0.01, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	mb := float64(len(data)) / (1 << 20)
	if mb < 0.8 || mb > 1.5 {
		t.Fatalf("scale 0.01 generated %.2f MB, want ~1.1 MB (re-calibrate the generator)", mb)
	}
}

func standoffize(t *testing.T, scale float64, permute bool) (*tree.Doc, *StandOffResult) {
	t.Helper()
	data, err := GenerateBytes(Config{Scale: scale, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := xmlparse.Parse("xmark.xml", data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultStandOffConfig()
	cfg.Permute = permute
	res, err := StandOffize(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

func TestStandOffizeRegions(t *testing.T) {
	orig, res := standoffize(t, 0.002, true)
	sd, err := xmlparse.Parse("xmark-so.xml", res.XML)
	if err != nil {
		t.Fatalf("stand-off document is not well-formed: %v", err)
	}
	// Same number of elements, no text nodes at all.
	var origElems, soElems, soTexts int
	for pre := int32(0); pre < int32(orig.NumNodes()); pre++ {
		if orig.Kind(pre) == tree.ElementNode {
			origElems++
		}
	}
	for pre := int32(0); pre < int32(sd.NumNodes()); pre++ {
		switch sd.Kind(pre) {
		case tree.ElementNode:
			soElems++
		case tree.TextNode:
			soTexts++
		}
	}
	if origElems != soElems {
		t.Fatalf("element count changed: %d -> %d", origElems, soElems)
	}
	if soTexts != 0 {
		t.Fatalf("stand-off document still has %d text nodes", soTexts)
	}
	// Every element is an area-annotation; the index must cover them all.
	ix, err := core.BuildIndex(sd, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumAreas() != soElems {
		t.Fatalf("region index has %d areas for %d elements", ix.NumAreas(), soElems)
	}
	// The BLOB holds the original text content: the site region spans it.
	site := int32(1)
	for sd.Kind(site) != tree.ElementNode {
		site++
	}
	regs := ix.RegionsOf(site)
	if len(regs) != 1 || regs[0].Start != 0 || regs[0].End != int64(len(res.Blob))-1 {
		t.Fatalf("site region %v does not span the BLOB (len %d)", regs, len(res.Blob))
	}
	// Concatenated original text must be a subsequence of the BLOB
	// (separator bytes may be interleaved for empty elements).
	var want bytes.Buffer
	for pre := int32(0); pre < int32(orig.NumNodes()); pre++ {
		if orig.Kind(pre) == tree.TextNode {
			want.Write(orig.ValueBytes(pre))
		}
	}
	if !isSubsequence(want.Bytes(), res.Blob) {
		t.Fatal("BLOB does not preserve the original text")
	}
}

func isSubsequence(needle, hay []byte) bool {
	i := 0
	for _, b := range hay {
		if i < len(needle) && needle[i] == b {
			i++
		}
	}
	return i == len(needle)
}

// TestStandOffizePermutes: with Permute the record elements change parents;
// without it the structure is preserved.
func TestStandOffizePermutes(t *testing.T) {
	_, res := standoffize(t, 0.002, true)
	sd, err := xmlparse.Parse("so.xml", res.XML)
	if err != nil {
		t.Fatal(err)
	}
	parentNames := map[string]map[string]bool{}
	for pre := int32(0); pre < int32(sd.NumNodes()); pre++ {
		if sd.Kind(pre) != tree.ElementNode {
			continue
		}
		name := sd.NodeName(pre)
		if name == "person" || name == "item" || name == "open_auction" {
			p := sd.Parent(pre)
			if parentNames[name] == nil {
				parentNames[name] = map[string]bool{}
			}
			parentNames[name][sd.NodeName(p)] = true
		}
	}
	if len(parentNames["person"]) < 2 {
		t.Fatalf("permutation did not scatter persons: parents = %v", parentNames["person"])
	}

	_, res2 := standoffize(t, 0.002, false)
	sd2, err := xmlparse.Parse("so2.xml", res2.XML)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := sd2.Dict().Lookup("person")
	for _, pre := range sd2.ElementsByName(id) {
		if sd2.NodeName(sd2.Parent(pre)) != "people" {
			t.Fatalf("without permutation persons must stay under people, got %s",
				sd2.NodeName(sd2.Parent(pre)))
		}
	}
}

// TestStandOffizeContainment: region containment reflects the ORIGINAL
// hierarchy even after permutation — the property the StandOff queries rely
// on.
func TestStandOffizeContainment(t *testing.T) {
	orig, res := standoffize(t, 0.002, true)
	sd, err := xmlparse.Parse("so.xml", res.XML)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(sd, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Count persons contained in the people region via the index and
	// compare with the original child count.
	peopleID, _ := sd.Dict().Lookup("people")
	personID, _ := sd.Dict().Lookup("person")
	people := sd.ElementsByName(peopleID)[0]
	cands := ix.Filter(sd.ElementsByName(personID))
	pairs := core.Join(ix, core.SelectNarrow, core.StrategyLoopLifted,
		[]core.CtxNode{{Iter: 0, Pre: people}}, 1, cands, core.JoinConfig{})

	origPersonID, _ := orig.Dict().Lookup("person")
	if len(pairs) != len(orig.ElementsByName(origPersonID)) {
		t.Fatalf("select-narrow::person from people = %d, want %d",
			len(pairs), len(orig.ElementsByName(origPersonID)))
	}
}

// TestStandOffizeChecksum pins the converted bytes: the stand-off document is
// fixture identity for the Figure 6 benchmark, so a change to how it is
// written must not change what is written.
func TestStandOffizeChecksum(t *testing.T) {
	raw, err := GenerateBytes(Config{Scale: 0.01, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	d, err := xmlparse.Parse("plain.xml", raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		permute bool
		xml     uint64
	}{{true, 0xcc1508736b0127c1}, {false, 0xdb26a1d2b99035e5}} {
		cfg := DefaultStandOffConfig()
		cfg.Seed, cfg.Permute = 42, c.permute
		res, err := StandOffize(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := func(b []byte) uint64 {
			h := fnv.New64a()
			h.Write(b)
			return h.Sum64()
		}
		if len(res.XML) != 596816 || sum(res.XML) != c.xml || len(res.Blob) != 759861 || sum(res.Blob) != 0x76d247ab920bac46 {
			t.Fatalf("permute=%v: XML %d bytes %#x, BLOB %d bytes %#x", c.permute,
				len(res.XML), sum(res.XML), len(res.Blob), sum(res.Blob))
		}
	}
}

func TestStandOffizeRejectsExistingAttrs(t *testing.T) {
	d, err := xmlparse.Parse("x", []byte(`<a><b start="1" end="2">t</b></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StandOffize(d, DefaultStandOffConfig()); err == nil {
		t.Fatal("conversion must refuse documents that already use start/end attributes")
	}
	if _, err := StandOffize(d, StandOffConfig{}); err == nil {
		t.Fatal("conversion must require attribute names")
	}
}

func TestQueriesParseable(t *testing.T) {
	for _, q := range QueryNumbers {
		for _, src := range []string{Query(q, "d.xml"), StandOffQuery(q, "d.xml"), UDFStandOffQuery(q, "d.xml")} {
			if src == "" || !strings.Contains(src, "d.xml") {
				t.Fatalf("query %d text malformed: %s", q, src)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown query number must panic")
		}
	}()
	_ = Query(4, "d.xml")
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := GenerateBytes(Config{Scale: 0.01, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

func TestScaleZeroClamps(t *testing.T) {
	c := countsFor(0)
	if c.persons != 1 || c.items != 1 {
		t.Fatalf("zero scale should clamp to 1: %+v", c)
	}
}
