package tree

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// appendHit appends <hit start end> under the root element and commits.
func appendHit(t *testing.T, d *Doc, start, end string) (*Doc, int32) {
	t.Helper()
	a, err := NewAppender(d)
	if err != nil {
		t.Fatalf("NewAppender: %v", err)
	}
	pre := a.StartElement("hit")
	a.Attr("start", start)
	a.Attr("end", end)
	a.EndElement()
	d2, err := a.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := d2.Validate(); err != nil {
		t.Fatalf("Validate after append: %v", err)
	}
	return d2, pre
}

func TestAppenderSnapshot(t *testing.T) {
	d := buildSample(t)
	beforeXML := d.XMLString(0)
	beforeN := d.NumNodes()
	beforeSize0, beforeSize1 := d.Size(0), d.Size(1)

	d2, pre := appendHit(t, d, "5", "9")

	// The original snapshot is byte-for-byte untouched.
	if d.NumNodes() != beforeN || d.Size(0) != beforeSize0 || d.Size(1) != beforeSize1 {
		t.Fatalf("base snapshot changed: n=%d size0=%d size1=%d", d.NumNodes(), d.Size(0), d.Size(1))
	}
	if got := d.XMLString(0); got != beforeXML {
		t.Fatalf("base serialisation changed:\n%s", got)
	}
	if _, ok := d.Dict().Lookup("hit"); ok {
		t.Fatal("base dictionary gained the appended name (CoW broken)")
	}

	// The new snapshot sees the appended element as the root's last child.
	if d2.NumNodes() != beforeN+1 {
		t.Fatalf("NumNodes = %d, want %d", d2.NumNodes(), beforeN+1)
	}
	if pre != int32(beforeN) {
		t.Fatalf("appended pre = %d, want %d", pre, beforeN)
	}
	if d2.Size(0) != beforeSize0+1 || d2.Size(1) != beforeSize1+1 {
		t.Fatalf("grown sizes = %d/%d, want %d/%d", d2.Size(0), d2.Size(1), beforeSize0+1, beforeSize1+1)
	}
	if d2.Parent(pre) != 1 || d2.Level(pre) != 2 {
		t.Fatalf("appended node parent/level = %d/%d", d2.Parent(pre), d2.Level(pre))
	}
	startID, _ := d2.Dict().Lookup("start")
	if ai := d2.Attr(pre, startID); ai < 0 || d2.AttrValue(ai) != "5" {
		t.Fatalf("appended start attribute not found (row %d)", ai)
	}
	if got := d2.XMLString(pre); got != `<hit start="5" end="9"/>` {
		t.Fatalf("appended XML = %s", got)
	}
	if !strings.Contains(d2.XMLString(0), `<hit start="5" end="9"/></site>`) {
		t.Fatalf("snapshot XML misses appended child: %s", d2.XMLString(0))
	}
	if d2.MutSeq() != d.MutSeq()+1 {
		t.Fatalf("MutSeq = %d, want %d", d2.MutSeq(), d.MutSeq()+1)
	}
	if d2.OrderKey() != d.OrderKey() {
		t.Fatal("snapshot changed the document order key")
	}

	// ElementsByName sees the appended element; the base list is unchanged.
	hitID, _ := d2.Dict().Lookup("hit")
	if got := d2.ElementsByName(hitID); len(got) != 1 || got[0] != pre {
		t.Fatalf("ElementsByName(hit) = %v", got)
	}
	aID, _ := d.Dict().Lookup("a")
	if got := d2.ElementsByName(aID); len(got) != 1 || got[0] != 2 {
		t.Fatalf("ElementsByName(a) = %v", got)
	}
}

func TestAppenderChainAndText(t *testing.T) {
	d := buildSample(t)
	d2, _ := appendHit(t, d, "1", "2")
	a, err := NewAppender(d2)
	if err != nil {
		t.Fatalf("NewAppender on snapshot: %v", err)
	}
	a.StartElement("note")
	a.Text("one ")
	a.Text("two") // merges with the previous in-session text
	a.EndElement()
	d3, err := a.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := d3.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d3.MutSeq() != 2 {
		t.Fatalf("MutSeq = %d, want 2", d3.MutSeq())
	}
	if d3.NumNodes() != d2.NumNodes()+2 {
		t.Fatalf("text merge failed: %d nodes", d3.NumNodes()-d2.NumNodes())
	}
	if !strings.HasSuffix(d3.XMLString(0), `<note>one two</note></site>`) {
		t.Fatalf("chained snapshot XML: %s", d3.XMLString(0))
	}
	// The middle snapshot still ends with the hit element.
	if !strings.HasSuffix(d2.XMLString(0), `<hit start="1" end="2"/></site>`) {
		t.Fatalf("middle snapshot XML changed: %s", d2.XMLString(0))
	}
}

func TestAppenderErrors(t *testing.T) {
	d := buildSample(t)
	a, _ := NewAppender(d)
	a.StartElement("x")
	if _, err := a.Commit(); err == nil {
		t.Fatal("Commit with open element succeeded")
	}

	a2, _ := NewAppender(d)
	a2.StartElement("x")
	a2.Text("t")
	a2.Attr("late", "1")
	a2.EndElement()
	if _, err := a2.Commit(); err == nil {
		t.Fatal("Attr after content not rejected")
	}

	a3, _ := NewAppender(d)
	a3.StartElement("x")
	a3.Attr("k", "1")
	a3.Attr("k", "2")
	a3.EndElement()
	if _, err := a3.Commit(); err == nil {
		t.Fatal("duplicate attribute not rejected")
	}

	a4, _ := NewAppender(d)
	a4.EndElement()
	if _, err := a4.Commit(); err == nil {
		t.Fatal("EndElement underflow not rejected")
	}
}

func TestWithTombstones(t *testing.T) {
	d := buildSample(t)
	// pre 4 = <b x y>two<c/>three</b> (subtree 4..7)
	d2, err := d.WithTombstones([]int32{4})
	if err != nil {
		t.Fatalf("WithTombstones: %v", err)
	}
	if err := d2.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("base Validate: %v", err)
	}
	for pre := int32(0); pre < int32(d.NumNodes()); pre++ {
		if !d.Alive(pre) {
			t.Fatalf("base node %d died", pre)
		}
		wantDead := pre >= 4 && pre <= 7
		if d2.Alive(pre) == wantDead {
			t.Fatalf("snapshot Alive(%d) = %v", pre, d2.Alive(pre))
		}
	}
	// Traversal, serialisation and string value all skip the dead subtree.
	if got := d2.XMLString(0); got != `<site id="s1"><a>one</a><!--note--><?pi data?></site>` {
		t.Fatalf("tombstoned XML = %s", got)
	}
	if got := d2.StringValue(1); got != "one" {
		t.Fatalf("StringValue = %q", got)
	}
	if c := d2.NextSibling(2); c != 8 {
		t.Fatalf("NextSibling(a) = %d, want comment 8", c)
	}
	bID, _ := d.Dict().Lookup("b")
	if got := d2.ElementsByName(bID); len(got) != 0 {
		t.Fatalf("ElementsByName(b) = %v, want empty", got)
	}

	// Invalid targets.
	if _, err := d2.WithTombstones([]int32{5}); err == nil {
		t.Fatal("tombstoning inside a dead subtree succeeded")
	}
	if _, err := d.WithTombstones([]int32{1}); err == nil {
		t.Fatal("tombstoning the root element succeeded")
	}
	if _, err := d.WithTombstones([]int32{0}); err == nil {
		t.Fatal("tombstoning the document node succeeded")
	}
	if _, err := d.WithTombstones([]int32{99}); err == nil {
		t.Fatal("out-of-range tombstone succeeded")
	}
}

func TestAppendAfterTombstone(t *testing.T) {
	d := buildSample(t)
	d2, err := d.WithTombstones([]int32{2}) // <a>one</a>
	if err != nil {
		t.Fatalf("WithTombstones: %v", err)
	}
	d3, pre := appendHit(t, d2, "0", "3")
	if !d3.Alive(pre) {
		t.Fatal("appended node dead")
	}
	if d3.Alive(2) {
		t.Fatal("tombstone lost across append")
	}
	if !strings.Contains(d3.XMLString(0), `<hit start="0" end="3"/>`) {
		t.Fatalf("append after tombstone: %s", d3.XMLString(0))
	}
}

// scanElems is the ElementsByName oracle: one pass over every node.
func scanElems(d *Doc, id int32) []int32 {
	var out []int32
	for pre := int32(0); pre < int32(d.NumNodes()); pre++ {
		if d.Kind(pre) == ElementNode && d.NameID(pre) == id && d.Alive(pre) {
			out = append(out, pre)
		}
	}
	return out
}

// TestElementListsDeriveFromParent drives a random append/tombstone history
// and checks, after every commit, that each name's element list equals a full
// scan of the new snapshot — and that every older snapshot still reads
// exactly the list it had (lists extend in place beyond an older snapshot's
// length, never inside it).
func TestElementListsDeriveFromParent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := buildSample(t)
	names := []string{"a", "b", "c", "hit", "note", "mark"}
	type pinned struct {
		d     *Doc
		lists map[int32][]int32
	}
	var history []pinned
	check := func(d *Doc) {
		t.Helper()
		p := pinned{d: d, lists: map[int32][]int32{}}
		for id := int32(0); id < int32(d.Dict().Len()); id++ {
			got, want := d.ElementsByName(id), scanElems(d, id)
			if !slices.Equal(got, want) {
				t.Fatalf("seq %d: ElementsByName(%s) = %v, scan says %v", d.MutSeq(), d.Dict().Name(id), got, want)
			}
			p.lists[id] = slices.Clone(got)
		}
		history = append(history, p)
	}
	check(d)
	for step := 0; step < 120; step++ {
		if rng.Intn(3) > 0 {
			a, err := NewAppender(d)
			if err != nil {
				t.Fatal(err)
			}
			a.StartElement(names[rng.Intn(len(names))])
			if rng.Intn(2) == 0 { // a nested element of another name
				a.StartElement(names[rng.Intn(len(names))])
				a.Text("x")
				a.EndElement()
			}
			a.EndElement()
			if d, err = a.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			var live []int32
			for pre := int32(2); pre < int32(d.NumNodes()); pre++ {
				if d.Kind(pre) == ElementNode && d.Alive(pre) {
					live = append(live, pre)
				}
			}
			if len(live) == 0 {
				continue
			}
			var err error
			if d, err = d.WithTombstones([]int32{live[rng.Intn(len(live))]}); err != nil {
				t.Fatal(err)
			}
		}
		check(d)
	}
	for _, p := range history {
		for id, want := range p.lists {
			if got := p.d.ElementsByName(id); !slices.Equal(got, want) {
				t.Fatalf("snapshot seq %d: list of %s changed under later writes: %v, was %v",
					p.d.MutSeq(), p.d.Dict().Name(id), got, want)
			}
		}
	}
}
