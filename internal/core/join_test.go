package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// figure1Doc is the multimedia example of the paper's Figure 1.
const figure1Doc = `<sample>
  <video>
    <shot id="Intro" start="0:00" end="0:08"/>
    <shot id="Interview" start="0:08" end="1:04"/>
    <shot id="Outro" start="1:04" end="1:34"/>
  </video>
  <audio>
    <music artist="U2" start="0:00" end="0:31"/>
    <music artist="Bach" start="0:52" end="1:34"/>
  </audio>
</sample>`

func figure1Index(t *testing.T) *RegionIndex {
	t.Helper()
	opts := DefaultOptions()
	opts.Type = TypeTimecode
	return buildIx(t, figure1Doc, opts)
}

// TestSection31Table reproduces the example table of section 3.1:
//
//	select-narrow(//music[artist="U2"], //shot)  = Intro
//	select-wide(...)                             = Intro Interview
//	reject-narrow(...)                           = Interview Outro
//	reject-wide(...)                             = Outro
func TestSection31Table(t *testing.T) {
	ix := figure1Index(t)
	d := ix.doc
	var u2 int32 = -1
	musicID, _ := d.Dict().Lookup("music")
	for _, pre := range d.ElementsByName(musicID) {
		if v, _ := d.AttrByName(pre, "artist"); v == "U2" {
			u2 = pre
		}
	}
	if u2 < 0 {
		t.Fatal("U2 music not found")
	}
	shotID, _ := d.Dict().Lookup("shot")
	shots := ix.Filter(d.ElementsByName(shotID))
	ctx := []CtxNode{{Iter: 0, Pre: u2}}

	want := map[Op][]string{
		SelectNarrow: {"Intro"},
		SelectWide:   {"Intro", "Interview"},
		RejectNarrow: {"Interview", "Outro"},
		RejectWide:   {"Outro"},
	}
	for _, strat := range []Strategy{StrategyNaive, StrategyBasic, StrategyLoopLifted} {
		for op, expected := range want {
			pairs := Join(ix, op, strat, ctx, 1, shots, JoinConfig{})
			var got []string
			for _, p := range pairs {
				id, _ := d.AttrByName(p.Pre, "id")
				got = append(got, id)
			}
			if strings.Join(got, " ") != strings.Join(expected, " ") {
				t.Errorf("%s/%s = %v, want %v", op, strat, got, expected)
			}
		}
	}
}

// TestFigure4Trace replays the exact context and candidate tables of the
// paper's Figure 4 through the loop-lifted select-narrow join and checks
// both the produced matches — (iter 1, r1) and (iter 1, r4) — and the
// algorithm's event trace. Our active-set bookkeeping differs slightly from
// Listing 1 (we keep one dominant region per iteration and expire from the
// tail), so "remove c1/c2 from list" steps appear as expiries, but the
// algorithm visits the same items in the same order and emits the same
// results.
func TestFigure4Trace(t *testing.T) {
	// Candidates r1..r4 and contexts c1..c4 share one document; context
	// nodes are fed by pre, candidates are restricted to the r elements.
	src := `<doc>
	  <r n="r1" start="5" end="10"/>
	  <r n="r2" start="22" end="45"/>
	  <r n="r3" start="40" end="60"/>
	  <r n="r4" start="65" end="70"/>
	  <c n="c1" start="0" end="15"/>
	  <c n="c2" start="12" end="35"/>
	  <c n="c3" start="20" end="30"/>
	  <c n="c4" start="55" end="80"/>
	</doc>`
	ix := buildIx(t, src, DefaultOptions())
	d := ix.doc
	pre := map[string]int32{}
	for _, name := range []string{"r", "c"} {
		id, _ := d.Dict().Lookup(name)
		for _, p := range d.ElementsByName(id) {
			n, _ := d.AttrByName(p, "n")
			pre[n] = p
		}
	}
	ctx := []CtxNode{
		{Iter: 1, Pre: pre["c1"]},
		{Iter: 2, Pre: pre["c2"]},
		{Iter: 1, Pre: pre["c3"]},
		{Iter: 1, Pre: pre["c4"]},
	}
	rID, _ := d.Dict().Lookup("r")
	cands := ix.Filter(d.ElementsByName(rID))

	var events []string
	cfg := JoinConfig{Trace: func(ev TraceEvent) {
		switch ev.Kind {
		case "add-context":
			events = append(events, fmt.Sprintf("add iter%d end%d", ev.Key, ev.End))
		case "skip-context":
			events = append(events, fmt.Sprintf("dominated iter%d end%d", ev.Key, ev.End))
		case "emit":
			n, _ := d.AttrByName(ev.Pre, "n")
			events = append(events, fmt.Sprintf("emit iter%d %s", ev.Key, n))
		case "skip-candidate":
			n, _ := d.AttrByName(ev.Pre, "n")
			events = append(events, "skip "+n)
		case "break":
			events = append(events, "break")
		}
	}}
	pairs := Join(ix, SelectNarrow, StrategyLoopLifted, ctx, 3, cands, cfg)

	if len(pairs) != 2 || pairs[0] != (Pair{Iter: 1, Pre: pre["r1"]}) || pairs[1] != (Pair{Iter: 1, Pre: pre["r4"]}) {
		t.Fatalf("Figure 4 matches = %v, want [(1,r1) (1,r4)]", pairs)
	}
	wantTrace := []string{
		"add iter1 end15", // step 1: add c1 to the active list
		"emit iter1 r1",   // step 2: (iter1, r1) result
		"add iter2 end35", // step 3: push c2
		"add iter1 end30", // c3 becomes iter1's dominant item (paper skips it against c1; both are sound)
		"skip r2",         // step 6: no active item contains r2
		"skip r3",         // step 8: skip r3
		"add iter1 end80", // step 7: add c4
		"emit iter1 r4",   // step 9: (iter1, r4) result
	}
	if strings.Join(events, "; ") != strings.Join(wantTrace, "; ") {
		t.Fatalf("trace mismatch:\n got  %v\nwant %v", events, wantTrace)
	}
}

// TestFigure4AllStrategies confirms every strategy agrees on the Figure 4
// input.
func TestFigure4AllStrategies(t *testing.T) {
	src := `<doc>
	  <r n="r1" start="5" end="10"/><r n="r2" start="22" end="45"/>
	  <r n="r3" start="40" end="60"/><r n="r4" start="65" end="70"/>
	  <c n="c1" start="0" end="15"/><c n="c2" start="12" end="35"/>
	  <c n="c3" start="20" end="30"/><c n="c4" start="55" end="80"/>
	</doc>`
	ix := buildIx(t, src, DefaultOptions())
	d := ix.doc
	cID, _ := d.Dict().Lookup("c")
	rID, _ := d.Dict().Lookup("r")
	cs := d.ElementsByName(cID)
	ctx := []CtxNode{{Iter: 1, Pre: cs[0]}, {Iter: 2, Pre: cs[1]}, {Iter: 1, Pre: cs[2]}, {Iter: 1, Pre: cs[3]}}
	cands := ix.Filter(d.ElementsByName(rID))
	ref := Join(ix, SelectNarrow, StrategyNaive, ctx, 3, cands, JoinConfig{})
	for _, strat := range []Strategy{StrategyBasic, StrategyLoopLifted} {
		for _, d := range listMaxes {
			setListMax(t, d)
			got := Join(ix, SelectNarrow, strat, ctx, 3, cands, JoinConfig{})
			if !pairsEqual(got, ref) {
				t.Errorf("%v(D=%d) = %v, want %v", strat, d, got, ref)
			}
		}
	}
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomSingleRegionIndex builds a document with n annotated elements at
// random positions.
func randomSingleRegionIndex(t *testing.T, rng *rand.Rand, n int, maxPos int64) *RegionIndex {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < n; i++ {
		s := rng.Int63n(maxPos)
		e := s + rng.Int63n(maxPos/4+1)
		fmt.Fprintf(&sb, `<a i="%d" start="%d" end="%d"/>`, i, s, e)
	}
	sb.WriteString("</doc>")
	return buildIx(t, sb.String(), DefaultOptions())
}

// TestStrategiesAgreeSingleRegion is the central property test: on random
// single-region data, all three strategies (and both active-set structures)
// must return identical results for all four operators.
func TestStrategiesAgreeSingleRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 60; round++ {
		nAreas := 1 + rng.Intn(40)
		ix := randomSingleRegionIndex(t, rng, nAreas, 200)
		areas := ix.Areas()
		nIters := int32(1 + rng.Intn(5))
		var ctx []CtxNode
		for i := 0; i < rng.Intn(12); i++ {
			ctx = append(ctx, CtxNode{
				Iter: rng.Int31n(nIters),
				Pre:  areas[rng.Intn(len(areas))],
			})
		}
		// Randomly restrict candidates to a subset.
		cand := ix.All()
		if rng.Intn(2) == 0 {
			var sub []int32
			for _, a := range areas {
				if rng.Intn(2) == 0 {
					sub = append(sub, a)
				}
			}
			cand = ix.Filter(sub)
		}
		for op := SelectNarrow; op <= RejectWide; op++ {
			ref := Join(ix, op, StrategyNaive, ctx, nIters, cand, JoinConfig{})
			for _, strat := range []Strategy{StrategyBasic, StrategyLoopLifted} {
				for _, d := range listMaxes {
					setListMax(t, d)
					got := Join(ix, op, strat, ctx, nIters, cand, JoinConfig{})
					if !pairsEqual(got, ref) {
						t.Fatalf("round %d: %v/%v(D=%d) disagrees with naive:\n got  %v\nwant %v\nctx %v",
							round, op, strat, d, got, ref, ctx)
					}
				}
			}
		}
	}
}

// TestStrategiesAgreeMultiRegion stresses the exact multi-region paths
// (region-element representation, non-contiguous areas).
func TestStrategiesAgreeMultiRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	opts := DefaultOptions()
	opts.Region = "region"
	opts.UseRegionElements = true
	for round := 0; round < 40; round++ {
		var sb strings.Builder
		sb.WriteString("<doc>")
		nAreas := 1 + rng.Intn(20)
		for i := 0; i < nAreas; i++ {
			sb.WriteString("<a>")
			pos := rng.Int63n(50)
			for r, nr := 0, 1+rng.Intn(3); r < nr; r++ {
				length := rng.Int63n(30)
				fmt.Fprintf(&sb, "<region><start>%d</start><end>%d</end></region>", pos, pos+length)
				pos += length + 2 + rng.Int63n(20)
			}
			sb.WriteString("</a>")
		}
		sb.WriteString("</doc>")
		ix := buildIx(t, sb.String(), opts)
		areas := ix.Areas()
		nIters := int32(1 + rng.Intn(4))
		var ctx []CtxNode
		for i := 0; i < rng.Intn(8); i++ {
			ctx = append(ctx, CtxNode{Iter: rng.Int31n(nIters), Pre: areas[rng.Intn(len(areas))]})
		}
		for op := SelectNarrow; op <= RejectWide; op++ {
			ref := Join(ix, op, StrategyNaive, ctx, nIters, ix.All(), JoinConfig{})
			for _, strat := range []Strategy{StrategyBasic, StrategyLoopLifted} {
				for _, d := range listMaxes {
					setListMax(t, d)
					got := Join(ix, op, strat, ctx, nIters, ix.All(), JoinConfig{})
					if !pairsEqual(got, ref) {
						t.Fatalf("round %d: %v/%v(D=%d) disagrees:\n got  %v\nwant %v\ndoc %s\nctx %v",
							round, op, strat, d, got, ref, sb.String(), ctx)
					}
				}
			}
			checkMatch(t, ix, op, ctx, ix.All(), naiveJoin(ix, op%2, ctx, nIters, ix.All()), JoinConfig{})
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	ix := figure1Index(t)
	// Empty context: selects yield nothing, rejects yield everything.
	for _, strat := range []Strategy{StrategyNaive, StrategyBasic, StrategyLoopLifted} {
		if got := Join(ix, SelectNarrow, strat, nil, 2, ix.All(), JoinConfig{}); len(got) != 0 {
			t.Fatalf("%v: select-narrow with empty context = %v", strat, got)
		}
		got := Join(ix, RejectWide, strat, nil, 2, ix.All(), JoinConfig{})
		if len(got) != 2*ix.NumAreas() {
			t.Fatalf("%v: reject-wide with empty context: %d pairs, want %d", strat, len(got), 2*ix.NumAreas())
		}
	}
	// Context nodes that are not areas contribute nothing.
	d := ix.doc
	video := idOf(t, d, "video")
	for _, strat := range []Strategy{StrategyNaive, StrategyBasic, StrategyLoopLifted} {
		if got := Join(ix, SelectWide, strat, []CtxNode{{Iter: 0, Pre: video}}, 1, ix.All(), JoinConfig{}); len(got) != 0 {
			t.Fatalf("%v: non-area context must not match, got %v", strat, got)
		}
	}
	// Empty candidates.
	if got := Join(ix, SelectWide, StrategyLoopLifted, []CtxNode{{Iter: 0, Pre: idOf(t, d, "music")}}, 1, ix.Filter(nil), JoinConfig{}); len(got) != 0 {
		t.Fatalf("empty candidates must match nothing, got %v", got)
	}
}

// TestSelfContainment: an area always select-narrow-matches itself when it
// is both context and candidate (the Figure 2 function has the same
// property).
func TestSelfContainment(t *testing.T) {
	ix := buildIx(t, `<d><a start="3" end="9"/></d>`, DefaultOptions())
	a := ix.Areas()[0]
	for _, strat := range []Strategy{StrategyNaive, StrategyBasic, StrategyLoopLifted} {
		got := Join(ix, SelectNarrow, strat, []CtxNode{{Iter: 0, Pre: a}}, 1, ix.All(), JoinConfig{})
		if len(got) != 1 || got[0].Pre != a {
			t.Fatalf("%v: self containment = %v", strat, got)
		}
	}
}

// TestDuplicateContextNodes: the same node bound in several iterations must
// match independently per iteration.
func TestDuplicateContextNodes(t *testing.T) {
	ix := figure1Index(t)
	d := ix.doc
	musicID, _ := d.Dict().Lookup("music")
	u2 := d.ElementsByName(musicID)[0]
	shotID, _ := d.Dict().Lookup("shot")
	shots := ix.Filter(d.ElementsByName(shotID))
	ctx := []CtxNode{{Iter: 0, Pre: u2}, {Iter: 2, Pre: u2}}
	got := Join(ix, SelectWide, StrategyLoopLifted, ctx, 3, shots, JoinConfig{})
	// Iter 0 and iter 2 each match Intro and Interview; iter 1 matches nothing.
	if len(got) != 4 || got[0].Iter != 0 || got[2].Iter != 2 {
		t.Fatalf("duplicate-context join = %v", got)
	}
}

// TestJoinReduceAgainstJoin: JoinReduce's per-key counts and first matches
// equal reducing the naive join's pairs and Join's, for both select
// operators and both active sets, with and without a keep filter and a
// recycling arena, over single- and multi-region areas, with several nested
// or overlapping context nodes per key. out accumulates onto what it held.
func TestJoinReduceAgainstJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	regionOpts := DefaultOptions()
	regionOpts.Region, regionOpts.UseRegionElements = "region", true
	arena := AcquireJoinArena()
	defer arena.Release()
	keepOdd := func(pre int32) bool { return pre%2 == 1 }
	for round := 0; round < 80; round++ {
		var ix *RegionIndex
		if round%2 == 0 {
			ix = randomSingleRegionIndex(t, rng, 1+rng.Intn(40), 200)
		} else {
			var sb strings.Builder
			sb.WriteString("<doc>")
			for i, n := 0, 1+rng.Intn(30); i < n; i++ {
				sb.WriteString("<a>")
				pos := rng.Int63n(100)
				for r, nr := 0, 1+rng.Intn(3); r < nr; r++ {
					length := rng.Int63n(40)
					fmt.Fprintf(&sb, "<region><start>%d</start><end>%d</end></region>", pos, pos+length)
					pos += length + 2 + rng.Int63n(30)
				}
				sb.WriteString("</a>")
			}
			sb.WriteString("</doc>")
			ix = buildIx(t, sb.String(), regionOpts)
		}
		areas := ix.Areas()
		nKeys := 1 + rng.Intn(6)
		var ctx []CtxNode
		for i := rng.Intn(16); i > 0; i-- {
			ctx = append(ctx, CtxNode{Iter: rng.Int31n(int32(nKeys)), Pre: areas[rng.Intn(len(areas))]})
		}
		cand := ix.All()
		if rng.Intn(2) == 0 {
			var sub []int32
			for _, a := range areas {
				if rng.Intn(2) == 0 {
					sub = append(sub, a)
				}
			}
			cand = ix.Filter(sub)
		}
		for _, op := range []Op{SelectNarrow, SelectWide} {
			naive := Join(ix, op, StrategyNaive, ctx, int32(nKeys), cand, JoinConfig{})
			ll := slices.Clone(Join(ix, op, StrategyLoopLifted, ctx, int32(nKeys), cand, JoinConfig{}))
			for _, keep := range []func(int32) bool{nil, keepOdd} {
				for _, first := range []bool{false, true} {
					init := make([]int32, nKeys)
					for i := range init {
						if first {
							init[i] = []int32{-1, areas[rng.Intn(len(areas))]}[rng.Intn(2)]
						} else {
							init[i] = rng.Int31n(3)
						}
					}
					want := reducePairs(naive, keep, first, init)
					if got := reducePairs(ll, keep, first, init); !slices.Equal(got, want) {
						t.Fatalf("round %d %v first=%v: reduced Join %v, reduced naive %v", round, op, first, got, want)
					}
					for _, d := range listMaxes {
						setListMax(t, d)
						for _, cfg := range []JoinConfig{{}, {Arena: arena}} {
							got := slices.Clone(init)
							JoinReduce(ix, op, areasOf(ix, ctx, cfg.Arena), cand, keep, first, got, cfg)
							if !slices.Equal(got, want) {
								t.Fatalf("round %d %v first=%v keep=%v D=%d: JoinReduce %v, want %v\nctx %v",
									round, op, first, keep != nil, d, got, want, ctx)
							}
						}
					}
				}
			}
		}
	}
}

// reducePairs is JoinReduce by definition: init, plus per key the count of
// the pairs keep admits, or the smallest of their pres.
func reducePairs(pairs []Pair, keep func(int32) bool, first bool, init []int32) []int32 {
	out := slices.Clone(init)
	for _, p := range pairs {
		switch {
		case keep != nil && !keep(p.Pre):
		case !first:
			out[p.Iter]++
		case out[p.Iter] < 0 || p.Pre < out[p.Iter]:
			out[p.Iter] = p.Pre
		}
	}
	return out
}
