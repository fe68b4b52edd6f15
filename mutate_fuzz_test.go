package soxq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// This file is the mutation-differential fuzz harness of the annotation
// write path: a seeded generator drives random insert/delete sequences —
// interleaved with queries, compactions and in-flight cursors — against the
// incremental engine AND a plain Go model of the annotation set. After every
// round the incremental engine must agree, across the full execution matrix
// (Exec and Stream over the fuzzConfigs chunk and mode grid), with a
// fresh engine built from the model's regenerated document: the
// delta-layered LSM indexes versus a full rebuild.
//
//	go test -fuzz=FuzzMutationEquivalence     # explore new seeds
//	go test -run TestMutationEquivalenceQuick # 200 fixed seeds, tier-1
//
// The model is deliberately trivial — an ordered slice of (layer, bounds)
// records, appended on insert and filtered on delete — so any divergence is
// the engine's. Regeneration preserves document order (inserts append, like
// the engine's Appender), so serialised results compare byte-for-byte.

// modelAnn is one live annotation in the model. Inserted annotations carry
// no id, exactly like the elements InsertAnnotation writes.
type modelAnn struct {
	layer      string
	id         string
	start, end int64
}

func modelXML(anns []modelAnn) string {
	var sb strings.Builder
	sb.WriteString("<corpus>")
	for _, a := range anns {
		if a.id != "" {
			fmt.Fprintf(&sb, `<%s id="%s" start="%d" end="%d"/>`, a.layer, a.id, a.start, a.end)
		} else {
			fmt.Fprintf(&sb, `<%s start="%d" end="%d"/>`, a.layer, a.start, a.end)
		}
	}
	sb.WriteString("</corpus>")
	return sb.String()
}

// modelOracle builds the full-rebuild reference: a fresh engine over the
// model's regenerated document.
func modelOracle(t *testing.T, model []modelAnn) *Engine {
	t.Helper()
	oracle := New()
	if err := oracle.LoadXML("f.xml", []byte(modelXML(model))); err != nil {
		t.Fatalf("model document does not parse: %v\n%s", err, modelXML(model))
	}
	return oracle
}

// mutRegion draws a random valid annotation region.
func mutRegion(r *rand.Rand, span int64) (int64, int64) {
	start := r.Int63n(span)
	end := start + 1 + r.Int63n(span/4)
	if end > span {
		end = span
	}
	return start, end
}

// checkMutationEquivalence compares the incremental engine against the
// full-rebuild oracle for every query: Exec and Stream under each config,
// with exact error equality. full=false checks a two-config slice (the
// per-round interleave); full=true runs the whole fuzzConfigs matrix.
func checkMutationEquivalence(t *testing.T, seed uint64, round int, eng *Engine, model []modelAnn, queries []string, r *rand.Rand, full bool) {
	t.Helper()
	oracle := modelOracle(t, model)
	cfgs := []Config{{}, fuzzConfigs()[r.Intn(len(fuzzConfigs()))]}
	if full {
		cfgs = append([]Config{{}}, fuzzConfigs()...)
	}
	for _, q := range queries {
		var want string
		res, wantErr := oracle.Query(q)
		if wantErr == nil {
			want = res.String()
		}
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("seed %d round %d: %q does not compile: %v", seed, round, q, err)
		}
		for _, cfg := range cfgs {
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
			if fmt.Sprint(wantErr) != fmt.Sprint(execErr) || fmt.Sprint(wantErr) != fmt.Sprint(streamErr) {
				t.Fatalf("seed %d round %d query %q cfg %+v: errors diverge: oracle=%v exec=%v stream=%v",
					seed, round, q, cfg, wantErr, execErr, streamErr)
			}
			if wantErr != nil {
				continue
			}
			if gotExec != want {
				t.Fatalf("seed %d round %d query %q cfg %+v:\nincremental exec %q\nfull rebuild     %q\nmodel: %s",
					seed, round, q, cfg, gotExec, want, modelXML(model))
			}
			if gotStream != want {
				t.Fatalf("seed %d round %d query %q cfg %+v:\nincremental stream %q\nfull rebuild       %q\nmodel: %s",
					seed, round, q, cfg, gotStream, want, modelXML(model))
			}
		}
	}
}

// runMutationFuzzCase executes one seed: generate an initial annotation set,
// then rounds of random writes with equivalence checks in between, an
// in-flight cursor spanning each round's writes, and a final full-matrix
// check before and after an explicit compaction.
func runMutationFuzzCase(t *testing.T, seed uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(seed)))
	span := int64(150 + r.Intn(350))

	var model []modelAnn
	id := 0
	for _, layer := range fuzzLayers {
		n := 1 + r.Intn(5)
		for i := 0; i < n; i++ {
			start, end := mutRegion(r, span)
			id++
			model = append(model, modelAnn{layer: layer, id: fmt.Sprintf("%s%d", layer[:1], id), start: start, end: end})
		}
	}
	r.Shuffle(len(model), func(i, j int) { model[i], model[j] = model[j], model[i] })

	eng := New()
	if err := eng.LoadXML("f.xml", []byte(modelXML(model))); err != nil {
		t.Fatalf("seed %d: generated document does not parse: %v", seed, err)
	}
	if r.Intn(2) == 0 {
		// Pre-warm the index so writes derive delta layers; otherwise the
		// first post-write read builds fresh from the snapshot — both paths
		// must satisfy the property.
		if err := eng.BuildIndex("f.xml"); err != nil {
			t.Fatal(err)
		}
	}
	if r.Intn(3) == 0 {
		eng.SetAutoCompactThreshold(1 + r.Intn(5))
	}
	queries := fuzzQueries(r)

	rounds := 1 + r.Intn(3)
	for round := 0; round < rounds; round++ {
		// Open a cursor before this round's writes and drain part of it, so
		// the writes land mid-drain. Its full output must match the oracle
		// of either the pre-write or the post-write model: the run pins
		// whichever snapshot it resolves first, never a mix.
		preModel := append([]modelAnn(nil), model...)
		pinQ := queries[r.Intn(len(queries))]
		pinPrep, err := eng.Prepare(pinQ)
		if err != nil {
			t.Fatalf("seed %d: %q does not compile: %v", seed, pinQ, err)
		}
		pinCur, pinErr := pinPrep.Stream(Config{StreamChunk: 1 + r.Intn(3)})
		var pinned []string
		if pinErr == nil {
			for i := r.Intn(3); i >= 0 && pinCur.Next(); i-- {
				pinned = append(pinned, pinCur.Value().XML())
			}
		}

		ops := 1 + r.Intn(5)
		for o := 0; o < ops; o++ {
			if len(model) > 0 && r.Intn(3) == 0 {
				victim := model[r.Intn(len(model))]
				n, err := eng.DeleteAnnotation("f.xml", victim.layer, victim.start, victim.end)
				if err != nil {
					t.Fatalf("seed %d round %d: delete: %v", seed, round, err)
				}
				removed := 0
				kept := model[:0]
				for _, a := range model {
					if a.layer == victim.layer && a.start == victim.start && a.end == victim.end {
						removed++
						continue
					}
					kept = append(kept, a)
				}
				model = kept
				if n != removed {
					t.Fatalf("seed %d round %d: delete(%s, %d, %d) removed %d, model says %d",
						seed, round, victim.layer, victim.start, victim.end, n, removed)
				}
			} else {
				layer := fuzzLayers[r.Intn(len(fuzzLayers))]
				start, end := mutRegion(r, span)
				if err := eng.InsertAnnotation("f.xml", layer, Region{Start: start, End: end}); err != nil {
					t.Fatalf("seed %d round %d: insert: %v", seed, round, err)
				}
				model = append(model, modelAnn{layer: layer, start: start, end: end})
			}
		}
		if r.Intn(4) == 0 {
			if err := eng.CompactAnnotations("f.xml"); err != nil {
				t.Fatal(err)
			}
		}

		// Finish the in-flight cursor across the writes.
		if pinErr == nil {
			for pinCur.Next() {
				pinned = append(pinned, pinCur.Value().XML())
			}
			if err := pinCur.Err(); err == nil {
				if err := pinCur.Close(); err != nil {
					t.Fatalf("seed %d round %d: pinned close: %v", seed, round, err)
				}
				got := strings.Join(pinned, " ")
				oldWant, newWant := "", ""
				if res, err := modelOracle(t, preModel).Query(pinQ); err == nil {
					oldWant = res.String()
				}
				if res, err := modelOracle(t, model).Query(pinQ); err == nil {
					newWant = res.String()
				}
				if got != oldWant && got != newWant {
					t.Fatalf("seed %d round %d query %q: in-flight cursor mixed generations:\ngot %q\npre-write  %q\npost-write %q",
						seed, round, pinQ, got, oldWant, newWant)
				}
			}
		}

		checkMutationEquivalence(t, seed, round, eng, model, queries, r, round == rounds-1)
	}

	// Compaction is equivalence-preserving: fold everything and re-check.
	if err := eng.CompactAnnotations("f.xml"); err != nil {
		t.Fatal(err)
	}
	checkMutationEquivalence(t, seed, rounds, eng, model, queries[:3], r, false)
}

// FuzzMutationEquivalence is the open-ended harness: `go test
// -fuzz=FuzzMutationEquivalence` mutates seeds beyond the checked-in corpus
// (testdata/fuzz/FuzzMutationEquivalence) looking for a divergence between
// the incremental write path and a full rebuild.
func FuzzMutationEquivalence(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1234, 31337, 99999, 8675309} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runMutationFuzzCase(t, seed)
	})
}

// TestMutationEquivalenceQuick is the deterministic tier-1 slice of the
// harness: 200 fixed seeds on every `go test` run.
func TestMutationEquivalenceQuick(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		runMutationFuzzCase(t, seed)
	}
}
