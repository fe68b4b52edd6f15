package tree

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// MutSeq returns the number of mutations (append/tombstone snapshots) between
// the pristine document and this snapshot; 0 for a Builder-sealed doc.
func (d *Doc) MutSeq() uint64 { return d.mutSeq }

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
	if d2.Parent(pre) != 1 || depthOf(d2, pre) != 2 {
		t.Fatalf("appended node parent/depth = %d/%d", d2.Parent(pre), depthOf(d2, pre))
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

// randSubtree emits one element of a random name with up to three levels of
// nested elements of random names below it.
func randSubtree(rng *rand.Rand, names []string, depth int, start func(string), text func(string), end func()) {
	start(names[rng.Intn(len(names))])
	for k := rng.Intn(3); depth > 0 && k > 0; k-- {
		randSubtree(rng, names, depth-1, start, text, end)
	}
	if rng.Intn(2) == 0 {
		text("x")
	}
	end()
}

// TestElementListsDeriveFromParent drives random append/tombstone histories
// and checks each name's element list against a full scan of its snapshot,
// and that every older snapshot still reads exactly the list it had (lists
// extend in place beyond an older snapshot's length, never inside it). One
// tombstone call gets several pres at once: base-document and appended
// nodes, duplicates, and ancestors with their descendants, in any order.
// Seeds 1–4 read every list after every commit; the others read after one
// commit in three, so several deletes land between two reads and appends
// extend lists not yet filtered, and they read a pinned older snapshot again
// now and then, after newer writes.
func TestElementListsDeriveFromParent(t *testing.T) {
	names := []string{"a", "b", "c", "hit", "note", "mark"}
	var unreadDeletes, staleAppends, oldReads int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("lists.xml")
		b.StartElement("doc")
		for i := 0; i < 30; i++ {
			randSubtree(rng, names, 3, b.StartElement, b.Text, b.EndElement)
		}
		b.EndElement()
		d, err := b.Done()
		if err != nil {
			t.Fatal(err)
		}
		baseN := int32(d.NumNodes())
		type pinned struct {
			d     *Doc
			lists map[int32][]int32 // what the snapshot read, if it was read
		}
		var history []pinned
		check := func(p *pinned) {
			t.Helper()
			if p.lists == nil {
				p.lists = map[int32][]int32{}
			}
			for id := int32(0); id < int32(p.d.Dict().Len()); id++ {
				got, want := p.d.ElementsByName(id), scanElems(p.d, id)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d seq %d: ElementsByName(%s) = %v, scan says %v",
						seed, p.d.MutSeq(), p.d.Dict().Name(id), got, want)
				}
				if was, ok := p.lists[id]; ok && !slices.Equal(got, was) {
					t.Fatalf("seed %d snapshot seq %d: list of %s changed under later writes: %v, was %v",
						seed, p.d.MutSeq(), p.d.Dict().Name(id), got, was)
				}
				p.lists[id] = slices.Clone(got)
			}
		}
		commit := func(next *Doc) {
			t.Helper()
			parent := history[len(history)-1]
			// A list holds no pre that was dead when its name was last read.
			for i := range next.elems {
				if parent.lists == nil {
					break
				}
				for _, p := range next.elems[i].pres {
					if p < int32(parent.d.NumNodes()) && !parent.d.Alive(p) {
						t.Fatalf("seed %d seq %d: list of %s carries pre %d, dead before the last read",
							seed, next.MutSeq(), next.Dict().Name(next.elems[i].id), p)
					}
				}
			}
			history = append(history, pinned{d: next})
			if seed <= 4 || rng.Intn(3) == 0 {
				check(&history[len(history)-1])
			}
			if seed > 4 && rng.Intn(4) == 0 {
				oldReads++
				check(&history[rng.Intn(len(history))])
			}
		}
		history = append(history, pinned{d: d})
		check(&history[0])
		prevDelete := false
		for step := 0; step < 120; step++ {
			if rng.Intn(2) > 0 {
				a, err := NewAppender(d)
				if err != nil {
					t.Fatal(err)
				}
				randSubtree(rng, names, 3, func(n string) { a.StartElement(n) }, a.Text, a.EndElement)
				for pre := a.baseN; pre < int32(len(a.d.kind)); pre++ {
					if k, ok := findElems(d.elems, a.d.name[pre]); ok && d.elems[k].stale && d.elems[k].live.Load() == nil {
						staleAppends++
						break
					}
				}
				if d, err = a.Commit(); err != nil {
					t.Fatal(err)
				}
				commit(d)
				prevDelete = false
				continue
			}
			var base, appended []int32
			for pre := int32(2); pre < int32(d.NumNodes()); pre++ {
				if d.Kind(pre) == ElementNode && d.Alive(pre) {
					if pre < baseN {
						base = append(base, pre)
					} else {
						appended = append(appended, pre)
					}
				}
			}
			var pres []int32
			for k := 1 + rng.Intn(4); k > 0; k-- {
				pool := base
				if len(pool) == 0 || len(appended) > 0 && rng.Intn(2) == 0 {
					pool = appended
				}
				if len(pool) == 0 {
					break
				}
				p := pool[rng.Intn(len(pool))]
				pres = append(pres, p)
				switch rng.Intn(3) {
				case 0:
					pres = append(pres, p)
				case 1: // a live element below p
					for q := p + 1; q <= p+d.Size(p); q++ {
						if d.Kind(q) == ElementNode && d.Alive(q) && rng.Intn(2) == 0 {
							pres = append(pres, q)
							break
						}
					}
				}
			}
			if len(pres) == 0 {
				continue
			}
			rng.Shuffle(len(pres), func(i, j int) { pres[i], pres[j] = pres[j], pres[i] })
			if prevDelete && history[len(history)-1].lists == nil {
				unreadDeletes++
			}
			prevDelete = true
			if d, err = d.WithTombstones(pres); err != nil {
				t.Fatal(err)
			}
			for _, p := range pres {
				if d.Alive(p) {
					t.Fatalf("seed %d: tombstoned pre %d still alive", seed, p)
				}
			}
			commit(d)
		}
		for i := range history {
			check(&history[i])
		}
	}
	t.Logf("%d deletes after an unread delete, %d appends onto unfiltered lists, %d re-reads of older snapshots",
		unreadDeletes, staleAppends, oldReads)
	if unreadDeletes == 0 || staleAppends == 0 || oldReads == 0 {
		t.Fatal("the lineages never skipped a read")
	}
}

// TestElementsByNameFirstReadConcurrent: several goroutines make the first
// read of one snapshot's stale element list together, while the writer
// derives the next snapshot from it (an append of the same name). Every
// reader gets the scan's list, all of them the one published copy, and the
// derived snapshot's list is exact whichever of filtered or stale it started
// from. Run under the race detector in CI.
func TestElementsByNameFirstReadConcurrent(t *testing.T) {
	b := NewBuilder("race.xml")
	b.StartElement("doc")
	for i := 0; i < 300; i++ {
		b.StartElement("a")
		b.StartElement("b")
		b.EndElement()
		b.EndElement()
	}
	b.EndElement()
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	aID, _ := d.Dict().Lookup("a")
	rng := rand.New(rand.NewSource(1))
	const readers = 6
	for round := 0; round < 40; round++ {
		live := d.ElementsByName(aID)
		if d, err = d.WithTombstones([]int32{live[rng.Intn(len(live))], live[rng.Intn(len(live))]}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		got := make([][]int32, readers)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = d.ElementsByName(aID)
			}()
		}
		var next *Doc
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			a, err := NewAppender(d)
			if err == nil {
				a.StartElement("a")
				a.EndElement()
				next, err = a.Commit()
			}
			if err != nil {
				t.Error(err)
			}
		}()
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		want := scanElems(d, aID)
		for g, l := range got {
			if !slices.Equal(l, want) {
				t.Fatalf("round %d reader %d: %v, scan says %v", round, g, l, want)
			}
			if &l[0] != &got[0][0] {
				t.Fatalf("round %d: readers %d and 0 got different copies of the filtered list", round, g)
			}
		}
		if l, want := next.ElementsByName(aID), scanElems(next, aID); !slices.Equal(l, want) {
			t.Fatalf("round %d: derived snapshot reads %v, scan says %v", round, l, want)
		}
		d = next
	}
}
