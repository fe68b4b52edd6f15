package soxq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// This file is the differential fuzz harness of the streaming engine: a
// seeded generator of stand-off documents and small XQuery programs, with
// every generated query executed under the full execution matrix —
// materialising Exec, the Stream pipeline across chunk sizes and
// parallelism, and the forced Basic / Loop-Lifted join strategies — and
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
	// constructor over the result (fragments cut from one slab per chunk).
	// Drawn last, so the queries above are what a seed always generated.
	first := layer()
	qs = append(qs,
		fmt.Sprintf(`for $a in doc("f.xml")//%s return $a/%s::%s[1]`, layer(), axis(), layer()),
		fmt.Sprintf(`for $a in doc("f.xml")//%s return $a/%s::%s[last()]/@id`, layer(), axis(), layer()),
		fmt.Sprintf(`doc("f.xml")//%s/%s::%s[@id = "%s%d"]`, layer(), axis(), first, first[:1], 1+r.Intn(20)),
		fmt.Sprintf(`for $a in doc("f.xml")//%s return <r n="{$a/@id}">{ $a/%s::%s[1]/%s::%s }</r>`,
			layer(), axis(), layer(), axis(), layer()))
	return qs
}

// fuzzConfigs is the execution matrix every generated query must agree
// across; the zero Config (materialising Exec in auto mode) is the
// reference.
func fuzzConfigs() []Config {
	return []Config{
		{Mode: ModeBasic},
		{Mode: ModeLoopLifted},
		{NoPushdown: true},
		{StreamChunk: 1},
		{StreamChunk: 3},
		{StreamChunk: 16},
		{StreamChunk: 3, Parallelism: 2},
		// Oversubscribed work stealing: more workers than chunks in flight,
		// so thieves drain each other's deques and the seq-heap re-orders.
		{StreamChunk: 2, Parallelism: 8},
		// Forced modes through the chunked stream: adaptive chunk sizing and
		// per-chunk joins under a pinned algorithm.
		{Mode: ModeBasic, StreamChunk: 3},
		{Mode: ModeLoopLifted, StreamChunk: 5, Parallelism: 2},
		{NoPushdown: true, StreamChunk: 3, Parallelism: 2},
	}
}

// runFuzzCase executes one seed: generate the document and queries, then
// assert Exec ≡ Stream ≡ forced-Basic ≡ forced-LoopLifted for every query.
func runFuzzCase(t *testing.T, seed uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(seed)))
	doc := fuzzDoc(r)
	eng := New()
	if err := eng.LoadXML("f.xml", []byte(doc)); err != nil {
		t.Fatalf("seed %d: generated document does not parse: %v\n%s", seed, err, doc)
	}
	for _, q := range fuzzQueries(r) {
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("seed %d: generated query does not compile: %v\n%s", seed, err, q)
		}
		var want string
		res, refErr := prep.Exec(Config{})
		if refErr == nil {
			want = res.String()
		}
		for _, cfg := range fuzzConfigs() {
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
		// Feed the feedback loop and re-run: an analyzed execution may
		// invalidate strategy memos (observed-selectivity drift) and feed
		// the engine-wide calibration, but results must never move.
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
