package soxq

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// This file is the differential test of the by-name context source: a path
// whose step before its streamed cut is a predicate-free descendant::N, with
// one document node as its head, gives its first chunked StandOff stage the
// region index's by-name view of N as context instead of running the tree
// step (xqplan.StreamOp.ByName). Every such query must answer what its twin
// with descendant-or-self::N answers — the same elements from a document
// node, read through the item context — and what the materialising
// reference evaluator answers, under Exec and Stream at chunk sizes 1, 7 and
// the default, and ANALYZE must count the same rows for both.

// byNameConfigs are the runs every by-name query is checked under.
var byNameConfigs = []Config{{}, {StreamChunk: 1}, {StreamChunk: 7}}

// byNameQueries returns the by-name shapes over the fuzz layers with their
// item-context twins: every //N/select-{narrow,wide}::M, a chain of two
// select steps, and one whose chain ends in a bulk step.
func byNameQueries(doc string) (qs, twins []string) {
	add := func(q string) {
		qs = append(qs, q)
		twins = append(twins, strings.Replace(q, "//", "/descendant-or-self::", 1))
	}
	for _, n := range fuzzLayers {
		for _, m := range fuzzLayers {
			add(fmt.Sprintf(`doc(%q)//%s/select-narrow::%s`, doc, n, m))
			add(fmt.Sprintf(`doc(%q)//%s/select-wide::%s`, doc, n, m))
		}
		add(fmt.Sprintf(`doc(%q)//%s/select-wide::%s/select-narrow::%s`, doc, n, fuzzLayers[0], fuzzLayers[2]))
		add(fmt.Sprintf(`doc(%q)//%s/select-narrow::%s/@id`, doc, n, fuzzLayers[1]))
	}
	// An element name with no region anywhere: the view is empty.
	add(fmt.Sprintf(`doc(%q)//note/select-wide::%s`, doc, fuzzLayers[0]))
	return qs, twins
}

// stepObs lists the observed counters of every step of an analyzed plan, in
// plan order.
func stepObs(pe *PlanExplain) []ObsExplain {
	var out []ObsExplain
	var walk func(n *OpNode)
	walk = func(n *OpNode) {
		if n.Kind == "step" && n.Obs != nil {
			out = append(out, *n.Obs)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range pe.Plan {
		walk(n)
	}
	return out
}

// checkByName runs q and its twin under byNameConfigs, Exec and Stream, and
// holds both to the reference evaluator's answer, errors included; with
// twin set, ANALYZE of q must count what the twin's counts, step for step.
func checkByName(t *testing.T, what string, eng *Engine, q, twin string) {
	t.Helper()
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatalf("%s: %q does not compile: %v", what, q, err)
	}
	want, wantErr := referenceRun(prep)
	for _, text := range []string{q, twin} {
		if text == "" {
			continue
		}
		p, err := eng.Prepare(text)
		if err != nil {
			t.Fatalf("%s: %q does not compile: %v", what, text, err)
		}
		for _, cfg := range byNameConfigs {
			var gotExec, gotStream string
			res, execErr := p.Exec(cfg)
			if execErr == nil {
				gotExec = res.String()
			}
			cur, streamErr := p.Stream(cfg)
			if streamErr == nil {
				gotStream, streamErr = drainStream(cur)
			}
			if fmt.Sprint(execErr) != fmt.Sprint(wantErr) || fmt.Sprint(streamErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: %q cfg %+v: errors exec=%v stream=%v, reference %v", what, text, cfg, execErr, streamErr, wantErr)
			}
			if gotExec != want || gotStream != want {
				t.Fatalf("%s: %q cfg %+v:\nexec   %q\nstream %q\nwant   %q", what, text, cfg, gotExec, gotStream, want)
			}
		}
	}
	if twin == "" || wantErr != nil {
		return
	}
	tp, _ := eng.Prepare(twin)
	for _, cfg := range byNameConfigs {
		_, pe, err := prep.Analyze(cfg)
		_, tpe, terr := tp.Analyze(cfg)
		if err != nil || terr != nil {
			t.Fatalf("%s: analyze %q: %v, twin: %v", what, q, err, terr)
		}
		if got, want := stepObs(pe), stepObs(tpe); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: analyze %q cfg %+v:\n%s\ntwin:\n%s", what, q, cfg, pe, tpe)
		}
	}
}

// mustByName fails unless q's plan reads its first stage's context by name.
func mustByName(t *testing.T, eng *Engine, q string) {
	t.Helper()
	if prep, err := eng.Prepare(q); err != nil || !prep.plan.Stream().ByName() {
		t.Fatalf("%q does not read its context by name (%v)", q, err)
	}
}

// byNameDoc generates a fuzz document in either encoding (the region-element
// one with multi-region areas) and adds an element of every layer without a
// region, which is never an area and never in a by-name view.
func byNameDoc(r *rand.Rand, regions bool) string {
	doc := fuzzDoc(r)
	if regions {
		doc = fuzzRegionDoc(r)
	}
	var bare strings.Builder
	for _, l := range fuzzLayers {
		fmt.Fprintf(&bare, `<%s id="%s-bare"/>`, l, l[:1])
	}
	return strings.Replace(doc, "</corpus>", bare.String()+"</corpus>", 1)
}

// byNameEngine returns an engine declared for the document encoding.
func byNameEngine(t *testing.T, regions bool) *Engine {
	t.Helper()
	eng := New()
	if regions {
		if err := eng.Declare("standoff-region", "region"); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestByNameContextMatchesItemContext is the differential test over random
// documents in both encodings: fresh, after inserts and deletes of
// annotations of every layer (tombstones in the by-name view and the
// tree), and after compaction.
func TestByNameContextMatchesItemContext(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		regions := seed%2 == 1
		r := rand.New(rand.NewSource(seed))
		eng := byNameEngine(t, regions)
		if err := eng.LoadXML("f.xml", []byte(byNameDoc(r, regions))); err != nil {
			t.Fatal(err)
		}
		qs, twins := byNameQueries("f.xml")
		check := func(stage string) {
			for i, q := range qs {
				mustByName(t, eng, q)
				checkByName(t, fmt.Sprintf("seed %d %s", seed, stage), eng, q, twins[i])
			}
		}
		check("fresh")
		// Writes: an insert per layer (a multi-region one in the
		// region-element encoding), then deletes of the last insert and of
		// an annotation the document was loaded with.
		var last [2]int64
		for i, l := range fuzzLayers {
			s := int64(r.Intn(300))
			regs := []Region{{Start: s, End: s + int64(1+r.Intn(60))}}
			if regions && i%2 == 0 {
				regs = append(regs, Region{Start: s + 100, End: s + 120})
			}
			if err := eng.InsertAnnotation("f.xml", l, regs...); err != nil {
				t.Fatal(err)
			}
			last = [2]int64{regs[0].Start, regs[len(regs)-1].End}
		}
		check("after inserts")
		victim := fuzzLayers[r.Intn(len(fuzzLayers))]
		first, lo, hi := fmt.Sprintf(`(doc("f.xml")//%s[@start])[1]`, victim), "@start", "@end"
		if regions {
			first, lo, hi = fmt.Sprintf(`(doc("f.xml")//%s[region])[1]`, victim), "region[1]/start", "region[last()]/end"
		}
		var s, e int64
		for _, b := range []struct {
			path string
			to   *int64
		}{{lo, &s}, {hi, &e}} {
			res, err := eng.Query(fmt.Sprintf("string(%s/%s)", first, b.path))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fmt.Sscan(res.String(), b.to); err != nil {
				t.Fatalf("seed %d: %s of the first %s: %q: %v", seed, b.path, victim, res.String(), err)
			}
		}
		for _, del := range []struct {
			name string
			s, e int64
		}{{fuzzLayers[2], last[0], last[1]}, {victim, s, e}} {
			if n, err := eng.DeleteAnnotation("f.xml", del.name, del.s, del.e); err != nil || n == 0 {
				t.Fatalf("seed %d: delete %s [%d, %d] = %d, %v", seed, del.name, del.s, del.e, n, err)
			}
		}
		check("after writes")
		if err := eng.CompactAnnotations("f.xml"); err != nil {
			t.Fatal(err)
		}
		check("compacted")
	}
}

// TestByNameFallbackHeads: the same shapes over heads other than one
// document node — two document nodes, an element, a constructed element,
// an atomic value — keep the item context and still answer what the
// reference evaluator answers, errors included.
func TestByNameFallbackHeads(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		regions := seed%2 == 1
		r := rand.New(rand.NewSource(seed))
		eng := byNameEngine(t, regions)
		if err := eng.LoadXML("f.xml", []byte(byNameDoc(r, regions))); err != nil {
			t.Fatal(err)
		}
		qs, _ := byNameQueries("f.xml")
		for _, q := range qs {
			path := strings.TrimPrefix(q, `doc("f.xml")`)
			for _, head := range []string{
				`(doc("f.xml"), doc("f.xml"))`,
				`doc("f.xml")/*`,
				`<c>{ doc("f.xml")/* }</c>`,
				`(1, 2)`,
			} {
				mustByName(t, eng, head+path)
				checkByName(t, fmt.Sprintf("seed %d head %s", seed, head), eng, head+path, "")
			}
		}
		// A chunked stage over an item context out of document order and
		// with a node twice: the table sorts and keeps both rows.
		for _, l := range fuzzLayers {
			for _, op := range []string{"select-narrow", "select-wide"} {
				q := fmt.Sprintf(`(doc("f.xml")//%[1]s[last()], doc("f.xml")//%[1]s[1], doc("f.xml")//%[1]s[last()])/%[2]s::%[3]s`,
					l, op, fuzzLayers[2])
				checkByName(t, fmt.Sprintf("seed %d unordered context", seed), eng, q, "")
			}
		}
	}
}

// TestByNameCorpusMembers: over a corpus, the document node every member
// binds is the head, and each member reads its own by-name view.
func TestByNameCorpusMembers(t *testing.T) {
	for _, regions := range []bool{false, true} {
		r := rand.New(rand.NewSource(5))
		eng := byNameEngine(t, regions)
		members := []string{"a.xml", "b.xml", "c.xml"}
		for _, m := range members {
			if err := eng.LoadXML(m, []byte(byNameDoc(r, regions))); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.CreateCorpus("all", members...); err != nil {
			t.Fatal(err)
		}
		if err := eng.InsertAnnotation("b.xml", fuzzLayers[0], Region{Start: 0, End: 400}); err != nil {
			t.Fatal(err)
		}
		qs, twins := byNameQueries("all")
		for i, q := range qs {
			prep, err := eng.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := eng.Prepare(twins[i])
			if err != nil {
				t.Fatal(err)
			}
			// The reference: each member's answer from the materialising
			// evaluator, concatenated in corpus order.
			var want []string
			for _, m := range members {
				p, err := eng.Prepare(strings.Replace(q, `doc("all")`, fmt.Sprintf("doc(%q)", m), 1))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := referenceRun(p)
				if err != nil {
					t.Fatal(err)
				}
				if ref != "" {
					want = append(want, ref)
				}
			}
			for _, p := range []*Prepared{prep, twin} {
				for _, cfg := range byNameConfigs {
					res, err := p.ExecCorpus("all", cfg)
					if err != nil {
						t.Fatal(err)
					}
					cur, err := p.StreamCorpus("all", cfg)
					if err != nil {
						t.Fatal(err)
					}
					streamed, err := drainStream(cur)
					if err != nil {
						t.Fatal(err)
					}
					if w := strings.Join(want, " "); res.String() != w || streamed != w {
						t.Fatalf("regions=%v %q cfg %+v:\nexec   %q\nstream %q\nwant   %q", regions, q, cfg, res.String(), streamed, w)
					}
				}
			}
		}
	}
}
