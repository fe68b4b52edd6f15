package core

import (
	"strings"
	"testing"

	"soxq/internal/interval"
	"soxq/internal/tree"
	"soxq/internal/xmlparse"
)

// Areas returns the ascending pre list of all area-annotations. The returned
// slice must not be modified.
func (ix *RegionIndex) Areas() []int32 { ix.materialize(); return ix.areas }

func parseDoc(t *testing.T, src string) *tree.Doc {
	t.Helper()
	d, err := xmlparse.Parse("test.xml", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func buildIx(t *testing.T, src string, opts Options) *RegionIndex {
	t.Helper()
	ix, err := BuildIndex(parseDoc(t, src), opts)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return ix
}

func TestBuildIndexAttributes(t *testing.T) {
	ix := buildIx(t, `<doc>
	  <a start="10" end="20"/>
	  <b start="5" end="8"><c start="1" end="100"/></b>
	  <plain/>
	</doc>`, DefaultOptions())
	if ix.NumAreas() != 3 || ix.NumRegions() != 3 {
		t.Fatalf("areas=%d regions=%d", ix.NumAreas(), ix.NumRegions())
	}
	// Rows must be clustered on start: (1,100,c), (5,8,b), (10,20,a).
	wantStart := []int64{1, 5, 10}
	for i, s := range wantStart {
		if ix.rStart[i] != s {
			t.Fatalf("row %d start = %d, want %d (rows %v)", i, ix.rStart[i], s, ix.rStart)
		}
	}
	if ix.MultiRegion() {
		t.Fatal("attribute mode cannot be multi-region")
	}
	// Sub-annotations need not be contained in their ancestors (<c> sticks
	// out of <b>) — the index stores them regardless (section 2).
	c := ix.RegionsOf(idOf(t, ix.doc, "c"))
	if len(c) != 1 || c[0] != (interval.Region{Start: 1, End: 100}) {
		t.Fatalf("RegionsOf(c) = %v", c)
	}
	if ix.IsArea(idOf(t, ix.doc, "plain")) {
		t.Fatal("plain element must not be an area")
	}
	if _, ok := ix.AreaOf(idOf(t, ix.doc, "plain")); ok {
		t.Fatal("AreaOf(plain) should report not-an-area")
	}
}

func TestBuildIndexCustomNames(t *testing.T) {
	opts := DefaultOptions()
	opts.Start, opts.End = "from", "to"
	ix := buildIx(t, `<doc><x from="3" to="9"/><y start="1" end="2"/></doc>`, opts)
	if ix.NumAreas() != 1 {
		t.Fatalf("NumAreas = %d, want 1 (only from/to counts)", ix.NumAreas())
	}
}

func TestBuildIndexRegionElements(t *testing.T) {
	opts := DefaultOptions()
	_, err := opts.Set("standoff-region", "region")
	if err != nil {
		t.Fatal(err)
	}
	ix := buildIx(t, `<doc>
	  <file name="f1">
	    <region><start>0</start><end>99</end></region>
	    <region><start>200</start><end>299</end></region>
	  </file>
	  <hit><region><start>210</start><end>220</end></region></hit>
	  <nofile/>
	</doc>`, opts)
	if ix.NumAreas() != 2 || ix.NumRegions() != 3 {
		t.Fatalf("areas=%d regions=%d", ix.NumAreas(), ix.NumRegions())
	}
	if !ix.MultiRegion() {
		t.Fatal("expected multi-region index")
	}
	file := idOf(t, ix.doc, "file")
	regs := ix.RegionsOf(file)
	if len(regs) != 2 || regs[0] != (interval.Region{Start: 0, End: 99}) {
		t.Fatalf("file regions = %v", regs)
	}
	if ix.regionCount(file) != 2 {
		t.Fatalf("regionCount(file) = %d", ix.regionCount(file))
	}
	// Bounds table has one row per area.
	if len(ix.bID) != 2 {
		t.Fatalf("bounds rows = %d", len(ix.bID))
	}
}

func TestBuildIndexErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts func() Options
		want string
	}{
		{"only start", `<d><a start="1"/><b start="1" end="2"/></d>`, DefaultOptions, "only one of"},
		{"only end", `<d><a end="1"/><b start="1" end="2"/></d>`, DefaultOptions, "only one of"},
		{"inverted", `<d><a start="9" end="1"/></d>`, DefaultOptions, "start 9 > end 1"},
		{"bad int", `<d><a start="x" end="2"/></d>`, DefaultOptions, "bad start"},
		{"start attr only in doc", `<d><a start="1"/></d>`, DefaultOptions, "has \"start\" attributes but no"},
		{"region missing end", `<d><a><region><start>1</start></region></a></d>`, func() Options {
			o := DefaultOptions()
			o.Region = "region"
			o.UseRegionElements = true
			return o
		}, "misses"},
		{"region overlap", `<d><a><region><start>1</start><end>5</end></region><region><start>4</start><end>9</end></region></a></d>`, func() Options {
			o := DefaultOptions()
			o.Region = "region"
			o.UseRegionElements = true
			return o
		}, "overlap"},
	}
	for _, c := range cases {
		_, err := BuildIndex(parseDoc(t, c.src), c.opts())
		if err == nil {
			t.Errorf("%s: BuildIndex should fail", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestBuildIndexNoAnnotations(t *testing.T) {
	ix := buildIx(t, `<doc><a/><b/></doc>`, DefaultOptions())
	if ix.NumAreas() != 0 || ix.NumRegions() != 0 {
		t.Fatal("index of plain document must be empty")
	}
}

func TestIndexTimecode(t *testing.T) {
	opts := DefaultOptions()
	opts.Type = TypeTimecode
	ix := buildIx(t, `<doc><shot start="0:08" end="1:04"/></doc>`, opts)
	regs := ix.RegionsOf(idOf(t, ix.doc, "shot"))
	if len(regs) != 1 || regs[0].Start != 8000 || regs[0].End != 64000 {
		t.Fatalf("timecode regions = %v", regs)
	}
}

func TestCandidatesFilter(t *testing.T) {
	ix := buildIx(t, `<doc>
	  <a start="1" end="10"/>
	  <b start="2" end="3"/>
	  <a start="5" end="6"/>
	  <plain/>
	</doc>`, DefaultOptions())
	d := ix.doc
	aID, _ := d.Dict().Lookup("a")
	as := d.ElementsByName(aID)
	cand := ix.Filter(as)
	if cand.Len() != 2 || len(cand.rID) != 2 {
		t.Fatalf("filtered candidates: len=%d regions=%d", cand.Len(), len(cand.rID))
	}
	// Start order preserved (index intersection, section 4.3).
	if cand.rStart[0] > cand.rStart[1] {
		t.Fatal("filtered rows not in start order")
	}
	// Filtering by a non-area keeps nothing.
	if ix.Filter([]int32{idOf(t, d, "plain")}).Len() != 0 {
		t.Fatal("non-area filter should be empty")
	}
	if ix.Filter(nil).Len() != 0 {
		t.Fatal("empty filter should be empty")
	}
	all := ix.All()
	if all.Len() != 3 {
		t.Fatalf("All().Len() = %d", all.Len())
	}
}

func TestEndPermOrder(t *testing.T) {
	ix := buildIx(t, `<doc><a start="1" end="50"/><b start="2" end="3"/><c start="4" end="10"/></doc>`, DefaultOptions())
	var prev int64 = -1 << 62
	_, ends, _ := ix.All().endCols()
	for _, e := range ends {
		if e < prev {
			t.Fatal("end permutation not sorted by end")
		}
		prev = e
	}
}

// idOf returns the pre of the first element named name.
func idOf(t *testing.T, d *tree.Doc, name string) int32 {
	t.Helper()
	id, ok := d.Dict().Lookup(name)
	if !ok {
		t.Fatalf("no element named %q", name)
	}
	pres := d.ElementsByName(id)
	if len(pres) == 0 {
		t.Fatalf("no element named %q", name)
	}
	return pres[0]
}

func TestParseIntBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true}, {"42", 42, true}, {"-7", -7, true}, {"+9", 9, true},
		{"9223372036854775807", 1<<63 - 1, true},
		{"9223372036854775808", 0, false},
		{"-9223372036854775808", -1 << 63, true},
		{"-9223372036854775809", 0, false},
		{"", 0, false}, {"-", 0, false}, {"1x", 0, false}, {"1.5", 0, false},
	}
	for _, c := range cases {
		got, err := parseIntBytes([]byte(c.in))
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("parseIntBytes(%q) = %d, %v", c.in, got, err)
		}
	}
}

func TestOptionsSetAndPositions(t *testing.T) {
	o := DefaultOptions()
	for _, c := range []struct{ n, v string }{
		{"standoff-start", "from"}, {"standoff-end", "to"},
		{"standoff-type", "xs:integer"}, {"standoff-region", "reg"},
	} {
		ok, err := o.Set(c.n, c.v)
		if !ok || err != nil {
			t.Fatalf("Set(%s,%s) = %v,%v", c.n, c.v, ok, err)
		}
	}
	if o.Start != "from" || o.End != "to" || !o.UseRegionElements || o.Region != "reg" {
		t.Fatalf("options = %+v", o)
	}
	if ok, _ := o.Set("unrelated-option", "x"); ok {
		t.Fatal("unknown option should report ok=false")
	}
	if _, err := o.Set("standoff-type", "xs:string"); err == nil {
		t.Fatal("bad type must fail")
	}
	if _, err := o.Set("standoff-start", ""); err == nil {
		t.Fatal("empty start must fail")
	}

	// Position round trips.
	o2 := Options{Type: TypeTimecode}
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"0:00", 0}, {"0:08", 8000}, {"1:04", 64000}, {"1:34", 94000},
		{"1:02:03", 3723000}, {"0:01.5", 1500}, {"0:00.042", 42},
	} {
		got, err := o2.ParsePosition(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("timecode %q = %d, %v (want %d)", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "5", "x:y", "1:2:3:4", "-1:00", "1:0.1234"} {
		if _, err := o2.ParsePosition(bad); err == nil {
			t.Errorf("timecode %q should fail", bad)
		}
	}
	o3 := Options{Type: TypeDateTime}
	v, err := o3.ParsePosition("2006-06-30T12:00:00Z")
	if err != nil || v <= 0 {
		t.Fatalf("dateTime parse: %d, %v", v, err)
	}
	if _, err := o3.ParsePosition("not a date"); err == nil {
		t.Fatal("bad dateTime should fail")
	}
	if s := o3.FormatPosition(v); !strings.HasPrefix(s, "2006-06-30T12:00:00") {
		t.Fatalf("FormatPosition = %q", s)
	}
	if s := o2.FormatPosition(64000); s != "1:04" {
		t.Fatalf("timecode format = %q", s)
	}
	if s := o2.FormatPosition(3723042); s != "1:02:03.042" {
		t.Fatalf("timecode format = %q", s)
	}
	if s := DefaultOptions().FormatPosition(17); s != "17" {
		t.Fatalf("integer format = %q", s)
	}
}
