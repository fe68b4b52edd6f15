package soxq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xqeval"
)

// This file is the differential fuzz harness of the streaming engine: a
// seeded generator of stand-off documents and small XQuery programs, with
// every generated query executed under the full execution matrix —
// materialising Exec, the Stream pipeline across chunk sizes, and the
// forced Basic / Loop-Lifted join strategies — and
// every outcome compared byte-for-byte against the default Exec (errors
// must match exactly too). One uint64 seed determines the whole case, so
// the go-fuzz corpus is a list of seeds:
//
//	go test -fuzz=FuzzStreamEquivalence        # explore new seeds
//	go test -run TestStreamEquivalenceQuick    # 200 fixed seeds, tier-1
//
// The generator is deliberately adversarial for the streaming paths: region
// order is shuffled against document order (the permuted conversion the
// paper describes), layers overlap and nest, duplicate regions exist, and
// queries nest FLWORs over annotation layers — exactly the shapes where the
// chunked StandOff merge and the cursor-valued bindings must re-establish
// the bulk semantics.

// fuzzLayers are the annotation layers a generated document draws from.
var fuzzLayers = [3]string{"block", "span", "word"}

// fuzzDoc generates a stand-off document: each layer gets a random number
// of annotations with random (possibly overlapping, nested, or duplicate)
// regions, and the element order is shuffled so document order disagrees
// with region order.
func fuzzDoc(r *rand.Rand) string {
	span := int64(200 + r.Intn(800))
	var elems []string
	id := 0
	for _, layer := range fuzzLayers {
		n := 1 + r.Intn(9)
		for i := 0; i < n; i++ {
			start := r.Int63n(span)
			length := 1 + r.Int63n(span/4)
			end := start + length
			if end > span {
				end = span
			}
			id++
			elems = append(elems, fmt.Sprintf(`<%s id="%s%d" start="%d" end="%d"/>`,
				layer, layer[:1], id, start, end))
			// Occasionally annotate the same region twice — the merge's
			// cross-chunk dedup must still emit each node exactly once.
			if r.Intn(8) == 0 {
				id++
				elems = append(elems, fmt.Sprintf(`<%s id="%s%d" start="%d" end="%d"/>`,
					layer, layer[:1], id, start, end))
			}
		}
	}
	// A few nodes without regions: never area-annotations, never matched.
	for i := 0; i < r.Intn(3); i++ {
		elems = append(elems, fmt.Sprintf(`<note id="n%d"/>`, i))
	}
	r.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
	return "<corpus>" + strings.Join(elems, "") + "</corpus>"
}

// fuzzQueries generates a handful of query programs over the document's
// layers: bare StandOff paths (chunked final steps), filtered contexts,
// loops with StandOff bodies (loop-lifted joins), nested FLWORs over
// annotation layers (cursor-valued bindings), and predicates and
// constructors over StandOff steps.
func fuzzQueries(r *rand.Rand) []string {
	axes := []string{"select-narrow", "select-wide", "reject-narrow", "reject-wide"}
	layer := func() string { return fuzzLayers[r.Intn(len(fuzzLayers))] }
	axis := func() string { return axes[r.Intn(len(axes))] }
	qs := []string{
		fmt.Sprintf(`doc("f.xml")//%s/%s::%s`, layer(), axis(), layer()),
		fmt.Sprintf(`doc("f.xml")//%s/%s::%s/@id`, layer(), axis(), layer()),
		fmt.Sprintf(`doc("f.xml")//%s[@start > %d]/%s::%s`, layer(), r.Intn(500), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s return $a/%s::%s`, layer(), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s for $b in $a/%s::%s return ($a/@id, $b/@id)`,
			layer(), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s for $b in doc("f.xml")//%s
		 where $b/@start >= $a/@start return ($a/@id, $b/@id)`, layer(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s where count($a/%s::%s) > 1 return $a/@id`,
			layer(), axis(), layer()),
		fmt.Sprintf(`for $a at $p in doc("f.xml")//%s for $i in 1 to $p return ($p, $a/@start)`,
			layer()),
	}
	// Two chained StandOff steps: the first runs in the path prefix (bulk),
	// the second is the chunked final step.
	qs = append(qs, fmt.Sprintf(`doc("f.xml")//%s/%s::%s/%s::%s`,
		layer(), axis(), layer(), axis(), layer()))
	// A three-step chain with a reject forced into the prefix: rejects in
	// the bulk prefix exercise the anti-join's interaction with prefix
	// streaming, and the random final axis keeps the chunked step covered.
	qs = append(qs, fmt.Sprintf(`doc("f.xml")//%s/reject-%s::%s/%s::%s/%s::%s`,
		layer(), []string{"narrow", "wide"}[r.Intn(2)], layer(), axis(), layer(), axis(), layer()))
	// The XMark Q1/Q2 shapes: positional and attribute-equality predicates on
	// a StandOff step (filtered in place, see xqplan.PredClass) and a
	// constructor over the result (the fragments of a chunk in one container).
	// Drawn last, so the queries above are what a seed always generated.
	first := layer()
	qs = append(qs,
		fmt.Sprintf(`for $a in doc("f.xml")//%s return $a/%s::%s[1]`, layer(), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s return $a/%s::%s[last()]/@id`, layer(), axis(), layer()),
		fmt.Sprintf(`doc("f.xml")//%s/%s::%s[@id = "%s%d"]`, layer(), axis(), first, first[:1], 1+r.Intn(20)),
		fmt.Sprintf(`for $a in doc("f.xml")//%s return <r n="{$a/@id}">{ $a/%s::%s[1]/%s::%s }</r>`,
			layer(), axis(), layer(), axis(), layer()))
	// Range predicates the step pushes into candidate selection (value
	// orderings of @start/@end), under inserts, deletes and compaction too.
	sel := []string{"select-narrow", "select-wide"}
	qs = append(qs,
		fmt.Sprintf(`doc("f.xml")//%s/%s::%s[@start < %d]`, layer(), sel[r.Intn(2)], layer(), r.Intn(1000)),
		fmt.Sprintf(`doc("f.xml")//%s/%s::%s[@end >= %d][1]`, layer(), sel[r.Intn(2)], layer(), r.Intn(1000)))
	// A //N context feeding a chunked select step, which the first stage
	// reads from the region index by name (xqplan.StreamOp.ByName), alone
	// and chained; note has no region anywhere.
	qs = append(qs,
		fmt.Sprintf(`doc("f.xml")//%s/select-narrow::%s`, layer(), layer()),
		fmt.Sprintf(`doc("f.xml")//%s/select-wide::%s/%s::%s`, layer(), layer(), sel[r.Intn(2)], layer()),
		fmt.Sprintf(`doc("f.xml")//note/select-wide::%s`, layer()))
	return qs
}

// fuzzConfigs is the execution matrix every generated query must agree
// across; the materialising evaluator (referenceRun) is the reference.
func fuzzConfigs() []Config {
	return []Config{
		{},
		{Mode: ModeBasic},
		{Mode: ModeLoopLifted},
		{NoPushdown: true},
		{StreamChunk: 1},
		{StreamChunk: 3},
		{StreamChunk: 16},
		{StreamChunk: 2},
		// Forced modes through the chunked stream: per-chunk joins under a
		// pinned algorithm.
		{Mode: ModeBasic, StreamChunk: 3},
		{Mode: ModeLoopLifted, StreamChunk: 5},
		{NoPushdown: true, StreamChunk: 3},
	}
}

// runFuzzCase executes one seed: generate the document and queries, then
// assert Exec ≡ Stream ≡ forced-Basic ≡ forced-LoopLifted for every query.
func runFuzzCase(t *testing.T, seed uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(seed)))
	doc := fuzzDoc(r)
	runDiffCase(t, seed, doc, fuzzQueries(r), fuzzConfigs())
}

// runDiffCase loads doc as f.xml and checks every query under every config,
// Exec and Stream alike, against referenceRun: results byte for byte, errors
// exactly.
func runDiffCase(t *testing.T, seed uint64, doc string, queries []string, cfgs []Config) {
	t.Helper()
	eng := New()
	if err := eng.LoadXML("f.xml", []byte(doc)); err != nil {
		t.Fatalf("seed %d: generated document does not parse: %v\n%s", seed, err, doc)
	}
	for _, q := range queries {
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("seed %d: generated query does not compile: %v\n%s", seed, err, q)
		}
		want, refErr := referenceRun(prep)
		for _, cfg := range cfgs {
			// Every config runs both execution styles.
			var gotExec string
			res, execErr := prep.Exec(cfg)
			if execErr == nil {
				gotExec = res.String()
			}
			var gotStream string
			cur, streamErr := prep.Stream(cfg)
			if streamErr == nil {
				gotStream, streamErr = drainStream(cur)
			}
			if fmt.Sprint(refErr) != fmt.Sprint(execErr) || fmt.Sprint(refErr) != fmt.Sprint(streamErr) {
				t.Fatalf("seed %d query %q cfg %+v: errors diverge: ref=%v exec=%v stream=%v",
					seed, q, cfg, refErr, execErr, streamErr)
			}
			if refErr != nil {
				continue
			}
			if gotExec != want {
				t.Fatalf("seed %d query %q cfg %+v:\nexec   %q\nwant   %q\ndoc: %s",
					seed, q, cfg, gotExec, want, doc)
			}
			if gotStream != want {
				t.Fatalf("seed %d query %q cfg %+v:\nstream %q\nwant   %q\ndoc: %s",
					seed, q, cfg, gotStream, want, doc)
			}
		}
		if refErr != nil {
			continue
		}
		// Analyze and re-run: an analyzed execution collects counters over
		// the same shared plan, but results must never move.
		if res, _, err := prep.Analyze(Config{}); err != nil {
			t.Fatalf("seed %d query %q: analyze errored: %v", seed, q, err)
		} else if got := res.String(); got != want {
			t.Fatalf("seed %d query %q: analyze diverged: got=%q want=%q", seed, q, got, want)
		}
		if res, err := prep.Exec(Config{}); err != nil {
			t.Fatalf("seed %d query %q: exec after analyze errored: %v", seed, q, err)
		} else if got := res.String(); got != want {
			t.Fatalf("seed %d query %q: exec after analyze diverged: got=%q want=%q", seed, q, got, want)
		}
	}
}

// referenceRun is the differential harness's oracle: the query evaluated by
// the materialising xqeval.Evaluator.Run, Loop-Lifted with pushdown on, over
// the engine's documents and indexes. It shares the expression semantics with
// the cursor pipeline every entry point drains, but not the pipeline: no
// chunks, no cursors, no streamed StandOff stages or merges.
func referenceRun(prep *Prepared) (string, error) {
	eng, opts := prep.eng, prep.plan.Options()
	ev := &xqeval.Evaluator{
		Plan:     prep.plan,
		Resolver: eng.resolve,
		IndexFor: func(d *tree.Doc) (*core.RegionIndex, error) { return eng.indexFor(d, opts) },
		BlobFor:  eng.blobFor,
		Strategy: core.StrategyLoopLifted,
		Pushdown: true,
	}
	items, err := ev.Run()
	if err != nil {
		return "", err
	}
	return (&Result{items: items}).String(), nil
}

// FuzzStreamEquivalence is the open-ended harness: `go test
// -fuzz=FuzzStreamEquivalence` mutates seeds beyond the checked-in corpus
// (testdata/fuzz/FuzzStreamEquivalence) looking for a divergence between
// the execution styles.
func FuzzStreamEquivalence(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1234, 99999, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runFuzzCase(t, seed)
	})
}

// TestStreamEquivalenceQuick is the deterministic tier-1 slice of the
// harness: 200 fixed seeds on every `go test` run.
func TestStreamEquivalenceQuick(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		runFuzzCase(t, seed)
	}
}

// fuzzRegionDoc generates a stand-off document in the region-element
// encoding (declare option standoff-region "region"): every annotation is an
// area of one to three regions, two in three of them discontinuous, so
// context areas take the joins' exact multi-region path and candidate areas
// are contained only when all their regions are. Element order is shuffled
// against region order, as in fuzzDoc.
func fuzzRegionDoc(r *rand.Rand) string {
	span := int64(100 + r.Intn(400))
	var elems []string
	for _, layer := range fuzzLayers {
		for i, n := 0, 1+r.Intn(8); i < n; i++ {
			var sb strings.Builder
			fmt.Fprintf(&sb, `<%s id="%s%d">`, layer, layer[:1], len(elems)+1)
			pos := r.Int63n(span)
			for k, nr := 0, 1+r.Intn(3); k < nr; k++ {
				end := pos + r.Int63n(span/6+1)
				fmt.Fprintf(&sb, "<region><start>%d</start><end>%d</end></region>", pos, end)
				pos = end + 2 + r.Int63n(span/6+1) // regions of one area neither overlap nor touch
			}
			elems = append(elems, sb.String()+"</"+layer+">")
		}
	}
	elems = append(elems, `<note id="n0"/>`) // no region: never an area
	r.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
	return "<corpus>" + strings.Join(elems, "") + "</corpus>"
}

// fuzzRegionQueries generates queries over a fuzzRegionDoc whose joins the
// engine reduces — count, exists and empty over a StandOff step, a step's
// leading [1], both behind pushed attribute predicates too — over all four
// axes, so the reject ones check the unreduced path beside them.
func fuzzRegionQueries(r *rand.Rand) []string {
	axes := []string{"select-narrow", "select-wide", "reject-narrow", "reject-wide"}
	layer := func() string { return fuzzLayers[r.Intn(len(fuzzLayers))] }
	axis := func() string { return axes[r.Intn(len(axes))] }
	id := func() string { l := layer(); return fmt.Sprintf("%s%d", l[:1], 1+r.Intn(24)) }
	qs := []string{
		fmt.Sprintf(`for $a in doc("f.xml")//%s return count($a/%s::%s)`, layer(), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s return (exists($a/%s::%s), empty($a/%s::*))`, layer(), axis(), layer(), axis()),
		fmt.Sprintf(`count(doc("f.xml")//%s/%s::%s)`, layer(), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s where exists($a/%s::%s) return $a/@id`, layer(), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s return count(($a, $a/%s::%s)/%s::%s[@id >= "%s"])`,
			layer(), axis(), layer(), axis(), layer(), id()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s return $a/%s::%s[1]/@id`, layer(), axis(), layer()),
		fmt.Sprintf(`doc("f.xml")//%s/%s::%s[1]`, layer(), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s return $a/%s::%s[@id < "%s"][1][@id != "%s"]/@id`,
			layer(), axis(), layer(), id(), id()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s return <r>{ $a/%s::*[1]/%s::%s[1] }</r>`, layer(), axis(), axis(), layer()),
	}
	// The by-name context of a chunked select step, over multi-region
	// context areas.
	qs = append(qs,
		fmt.Sprintf(`doc("f.xml")//%s/select-narrow::%s`, layer(), layer()),
		fmt.Sprintf(`doc("f.xml")//%s/select-wide::%s`, layer(), layer()))
	for i, q := range qs {
		qs[i] = `declare option standoff-region "region"; ` + q
	}
	return qs
}

// runRegionFuzzCase executes one seed of the multi-region harness: the
// reference against the default run, the Basic baseline (which never
// reduces), no pushdown, and small chunks.
func runRegionFuzzCase(t *testing.T, seed uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(seed)))
	doc := fuzzRegionDoc(r)
	runDiffCase(t, seed, doc, fuzzRegionQueries(r), []Config{
		{}, {Mode: ModeBasic}, {NoPushdown: true}, {StreamChunk: 1}, {StreamChunk: 3}, {StreamChunk: 16},
	})
}

// FuzzMultiRegionEquivalence is the open-ended multi-region harness.
func FuzzMultiRegionEquivalence(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runRegionFuzzCase(t, seed)
	})
}

// TestMultiRegionEquivalenceQuick is the multi-region harness's tier-1
// slice: 200 fixed seeds.
func TestMultiRegionEquivalenceQuick(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		runRegionFuzzCase(t, seed)
	}
}
