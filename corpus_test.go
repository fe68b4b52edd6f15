package soxq

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"soxq/internal/spawncheck"
)

// corpusEngine loads n scene/hit documents (docNN.xml, each with distinct
// content so merge order is observable) and defines corpus "news" over all
// of them in load order.
func corpusEngine(t testing.TB, n int) (*Engine, []string) {
	t.Helper()
	eng := New()
	members := make([]string, n)
	for i := 0; i < n; i++ {
		members[i] = fmt.Sprintf("doc%02d.xml", i)
		if err := eng.LoadXML(members[i], []byte(corpusDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.CreateCorpus("news", members...); err != nil {
		t.Fatal(err)
	}
	return eng, members
}

// corpusDoc builds member i's document: 3 scenes with 2 contained hits each,
// ids tagged with the member index.
func corpusDoc(i int) string {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for s := 0; s < 3; s++ {
		base := s * 100
		fmt.Fprintf(&sb, `<scene id="d%d-s%d" start="%d" end="%d"/>`, i, s, base, base+99)
		fmt.Fprintf(&sb, `<hit id="d%d-s%d-a" start="%d" end="%d"/>`, i, s, base+10, base+20)
		fmt.Fprintf(&sb, `<hit id="d%d-s%d-b" start="%d" end="%d"/>`, i, s, base+30, base+40)
	}
	sb.WriteString("</doc>")
	return sb.String()
}

const corpusQuery = `for $h in doc("news")//scene/select-narrow::hit return string($h/@id)`

// corpusWant is the oracle: the query run against each member in turn (by
// substituting the member name for the corpus URI), concatenated in corpus
// order.
func corpusWant(t testing.TB, eng *Engine, members []string) []string {
	t.Helper()
	var want []string
	for _, m := range members {
		q := strings.ReplaceAll(corpusQuery, `doc("news")`, fmt.Sprintf("doc(%q)", m))
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Strings()...)
	}
	return want
}

// TestDocumentsSorted pins the Engine.Documents bugfix: names come back
// sorted, not in map-iteration order, so catalog listings are deterministic.
func TestDocumentsSorted(t *testing.T) {
	eng := New()
	for _, name := range []string{"zebra.xml", "alpha.xml", "mango.xml", "beta.xml"} {
		if err := eng.LoadXML(name, []byte(`<doc/>`)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha.xml", "beta.xml", "mango.xml", "zebra.xml"}
	for round := 0; round < 20; round++ {
		got := eng.Documents()
		if len(got) != len(want) {
			t.Fatalf("Documents() = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: Documents() = %v, want sorted %v", round, got, want)
			}
		}
	}
}

// TestCorpusCatalog covers the corpus definition API: listing, membership,
// replacement, and the error cases.
func TestCorpusCatalog(t *testing.T) {
	eng, members := corpusEngine(t, 3)
	if err := eng.CreateCorpus("b-corpus", members[0]); err != nil {
		t.Fatal(err)
	}
	if got := eng.Corpora(); len(got) != 2 || got[0] != "b-corpus" || got[1] != "news" {
		t.Fatalf("Corpora() = %v, want sorted [b-corpus news]", got)
	}
	got, err := eng.CorpusMembers("news")
	if err != nil {
		t.Fatal(err)
	}
	for i := range members {
		if got[i] != members[i] {
			t.Fatalf("CorpusMembers = %v, want %v (corpus order)", got, members)
		}
	}
	// Redefinition replaces.
	if err := eng.CreateCorpus("news", members[2], members[0]); err != nil {
		t.Fatal(err)
	}
	got, _ = eng.CorpusMembers("news")
	if len(got) != 2 || got[0] != members[2] || got[1] != members[0] {
		t.Fatalf("redefined members = %v", got)
	}
	// Errors.
	if err := eng.CreateCorpus("bad", "nope.xml"); err == nil {
		t.Fatal("want error for unloaded member")
	}
	if err := eng.CreateCorpus(members[0], members[1]); err == nil {
		t.Fatal("want error for corpus name shadowing a document")
	}
	if err := eng.CreateCorpus("dup", members[0], members[0]); err == nil {
		t.Fatal("want error for duplicate member")
	}
	if err := eng.CreateCorpus("empty"); err == nil {
		t.Fatal("want error for empty member list")
	}
	if err := eng.DropCorpus("nope"); err == nil {
		t.Fatal("want error dropping unknown corpus")
	}
	if err := eng.DropCorpus("b-corpus"); err != nil {
		t.Fatal(err)
	}
	if got := eng.Corpora(); len(got) != 1 || got[0] != "news" {
		t.Fatalf("Corpora() after drop = %v", got)
	}
	if _, err := eng.QueryCorpus(corpusQuery, "b-corpus", Config{}); err == nil {
		t.Fatal("want error querying dropped corpus")
	}
}

// TestCorpusMatchesPerDocument pins the fan-out semantics: the corpus result
// equals the per-member results concatenated in corpus order, for the
// materialising and streaming forms, at several chunk sizes.
func TestCorpusMatchesPerDocument(t *testing.T) {
	eng, members := corpusEngine(t, 7)
	want := corpusWant(t, eng, members)
	prep, err := eng.Prepare(corpusQuery)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []string) {
		t.Helper()
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%s:\n got %v\nwant %v", what, got, want)
		}
	}
	for _, chunk := range []int{1, 2, 0} {
		cfg := Config{StreamChunk: chunk}
		res, err := prep.ExecCorpus("news", cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("ExecCorpus chunk=%d", chunk), res.Strings())

		cur, err := prep.StreamCorpus("news", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for cur.Next() {
			got = append(got, cur.Value().String())
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("StreamCorpus chunk=%d", chunk), got)
	}
	res, err := eng.QueryCorpus(corpusQuery, "news", Config{})
	if err != nil {
		t.Fatal(err)
	}
	check("QueryCorpus", res.Strings())
}

// TestQueryCorpusEqualsMembers pins the fan-out semantics on the differential
// fuzz harness's documents and queries — rejects, tree-axis final steps and
// nested for loops included: QueryCorpus, ExecCorpus and StreamCorpus (chunks
// 1, 3 and the default) all equal the concatenation of each member's Exec.
func TestQueryCorpusEqualsMembers(t *testing.T) {
	render := func(res *Result) string {
		var sb strings.Builder
		for i := 0; res != nil && i < res.Len(); i++ {
			sb.WriteString(res.Value(i).XML())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		eng := New()
		members := make([]string, 3)
		for i := range members {
			members[i] = fmt.Sprintf("m%d.xml", i)
			if err := eng.LoadXML(members[i], []byte(fuzzDoc(r))); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.CreateCorpus("c", members...); err != nil {
			t.Fatal(err)
		}
		queries := append(fuzzQueries(r),
			`doc("f.xml")//span/reject-wide::word`,
			`doc("f.xml")//block/reject-narrow::word/select-wide::span`,
			`doc("f.xml")//block/select-narrow::word/@id`,
			`for $a in doc("f.xml")//block for $i in 1 to 3 return ($i, $a/@id)`)
		for _, q := range queries {
			var want string
			for _, m := range members {
				res, err := eng.Query(strings.ReplaceAll(q, `doc("f.xml")`, fmt.Sprintf("doc(%q)", m)))
				if err != nil {
					t.Fatalf("seed %d %q on %s: %v", seed, q, m, err)
				}
				want += render(res)
			}
			cq := strings.ReplaceAll(q, `doc("f.xml")`, `doc("c")`)
			check := func(what, got string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("seed %d %q %s: %v", seed, q, what, err)
				}
				if got != want {
					t.Fatalf("seed %d %q %s:\n got %q\nwant %q", seed, q, what, got, want)
				}
			}
			res, err := eng.QueryCorpus(cq, "c", Config{})
			check("QueryCorpus", render(res), err)
			prep, err := eng.Prepare(cq)
			if err != nil {
				t.Fatal(err)
			}
			res, err = prep.ExecCorpus("c", Config{})
			check("ExecCorpus", render(res), err)
			for _, chunk := range []int{1, 3, 0} {
				cur, err := prep.StreamCorpus("c", Config{StreamChunk: chunk})
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				for cur.Next() {
					sb.WriteString(cur.Value().XML())
					sb.WriteByte('\n')
				}
				check(fmt.Sprintf("StreamCorpus chunk=%d", chunk), sb.String(), cur.Close())
			}
		}
	}
}

// TestExecCorpusHonoursStreamChunk pins that a materialising corpus run (the
// path of soxqd's cache=1) is chunked by StreamChunk like a streamed one: a
// 10-iteration loop over each of two members runs 5 chunks of 2 per shard.
func TestExecCorpusHonoursStreamChunk(t *testing.T) {
	eng := New()
	for _, m := range []string{"a.xml", "b.xml"} {
		if err := eng.LoadXML(m, []byte(`<doc/>`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.CreateCorpus("c", "a.xml", "b.xml"); err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(`for $i in 1 to 10 return $i`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.ExecCorpus("c", Config{StreamChunk: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 20 {
		t.Fatalf("result len = %d, want 20", res.Len())
	}
	tr := prep.TraceLast().String()
	if !strings.Contains(tr, "flwor in=20 out=20 chunks=10\n") {
		t.Fatalf("flwor span does not read chunks=10:\n%s", tr)
	}
}

// TestCorpusStreamEarlyCloseNoLeak closes corpus streams mid-drain, at a
// different shard each round, and asserts no goroutine outlives them.
func TestCorpusStreamEarlyCloseNoLeak(t *testing.T) {
	eng, _ := corpusEngine(t, 8)
	prep, err := eng.Prepare(corpusQuery)
	if err != nil {
		t.Fatal(err)
	}
	spawncheck.Run(func(started func() int) {
		for round := 0; round < 10; round++ {
			cur, err := prep.StreamCorpus("news", Config{StreamChunk: 2})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= round; i++ {
				if !cur.Next() {
					t.Fatal("stream ended early")
				}
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
			if n := started(); n != 0 {
				t.Fatalf("round %d: %d goroutines started by the stream alive after Close", round, n)
			}
		}
	})
}

// TestCorpusGenerationAndResultCache pins the acceptance contract: a hit
// skips execution (telemetry counters), and a load/unload/mutation bumps the
// catalog generation so cached results stop being served.
func TestCorpusGenerationAndResultCache(t *testing.T) {
	eng, members := corpusEngine(t, 3)

	execs := func() int64 { return eng.tel.corpusQueries.Value() }
	res1, err := eng.QueryCorpus(corpusQuery, "news", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if execs() != 1 {
		t.Fatalf("first QueryCorpus ran %d executions, want 1", execs())
	}
	hits, misses, _ := eng.ResultCacheStats()
	if hits != 0 || misses != 1 {
		t.Fatalf("after miss: hits=%d misses=%d", hits, misses)
	}

	res2, err := eng.QueryCorpus(corpusQuery, "news", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if execs() != 1 {
		t.Fatalf("cache hit re-executed (executions=%d)", execs())
	}
	hits, _, _ = eng.ResultCacheStats()
	if hits != 1 {
		t.Fatalf("after hit: hits=%d, want 1", hits)
	}
	if res1.String() != res2.String() {
		t.Fatal("hit returned a different result")
	}

	// Mutation bumps the generation and invalidates: the next QueryCorpus
	// misses, re-executes, and sees the new annotation.
	gen := eng.CatalogGeneration()
	if err := eng.InsertAnnotation(members[1], "hit", Region{Start: 50, End: 60}); err != nil {
		t.Fatal(err)
	}
	if eng.CatalogGeneration() == gen {
		t.Fatal("mutation did not bump the catalog generation")
	}
	res3, err := eng.QueryCorpus(corpusQuery, "news", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if execs() != 2 {
		t.Fatalf("post-mutation QueryCorpus served stale cache (executions=%d)", execs())
	}
	if res3.Len() != res1.Len()+1 {
		t.Fatalf("post-mutation result has %d items, want %d", res3.Len(), res1.Len()+1)
	}

	// Load and unload each bump the generation too.
	gen = eng.CatalogGeneration()
	if err := eng.LoadXML("extra.xml", []byte(`<doc/>`)); err != nil {
		t.Fatal(err)
	}
	if eng.CatalogGeneration() == gen {
		t.Fatal("load did not bump the catalog generation")
	}
	gen = eng.CatalogGeneration()
	eng.Unload("extra.xml")
	if eng.CatalogGeneration() == gen {
		t.Fatal("unload did not bump the catalog generation")
	}
	if _, err := eng.QueryCorpus(corpusQuery, "news", Config{}); err != nil {
		t.Fatal(err)
	}
	if execs() != 3 {
		t.Fatalf("post-load/unload QueryCorpus served stale cache (executions=%d)", execs())
	}
}

// TestCorpusResultCacheSingleflight pins that a thundering herd on one cold
// (query, corpus, generation) key runs the fan-out once.
func TestCorpusResultCacheSingleflight(t *testing.T) {
	eng, _ := corpusEngine(t, 4)
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.QueryCorpus(corpusQuery, "news", Config{}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := eng.tel.corpusQueries.Value(); n != 1 {
		t.Fatalf("herd ran %d executions, want 1 (singleflight)", n)
	}
}

// TestCorpusMemberUnloaded pins the failure mode: querying a corpus whose
// member was unloaded errors instead of silently skipping the shard.
func TestCorpusMemberUnloaded(t *testing.T) {
	eng, members := corpusEngine(t, 3)
	eng.Unload(members[1])
	if _, err := eng.QueryCorpus(corpusQuery, "news", Config{}); err == nil {
		t.Fatal("want error for unloaded corpus member")
	}
	if _, err := streamQueryCorpus(eng, corpusQuery, "news", Config{}); err == nil {
		t.Fatal("want stream error for unloaded corpus member")
	}
}

// TestCorpusConcurrentWithWriters streams corpus queries from many
// goroutines while a writer mutates annotations — each in-flight run drains
// one consistent snapshot, and nothing races (run under -race in CI).
func TestCorpusConcurrentWithWriters(t *testing.T) {
	eng, members := corpusEngine(t, 4)
	prep, err := eng.Prepare(corpusQuery)
	if err != nil {
		t.Fatal(err)
	}
	base := corpusWant(t, eng, members)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			doc := members[i%len(members)]
			if err := eng.InsertAnnotation(doc, "hit", Region{Start: 41, End: 45}); err != nil {
				t.Error(err)
				return
			}
			if _, err := eng.DeleteAnnotation(doc, "hit", 41, 45); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(chunk int) {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				cur, err := prep.StreamCorpus("news", Config{StreamChunk: chunk})
				if err != nil {
					t.Error(err)
					return
				}
				n := 0
				for cur.Next() {
					n++
				}
				if err := cur.Close(); err != nil {
					t.Error(err)
					return
				}
				// Writers add then remove one annotation, so a snapshot sees
				// the base result or at most len(members) extras.
				if n < len(base) || n > len(base)+len(members) {
					t.Errorf("snapshot drained %d items, want %d..%d", n, len(base), len(base)+len(members))
					return
				}
			}
		}(1 + g%3)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
