package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// tiledJoin is a join input shaped like per-iteration units over one
// position range (sentences over tokens): context areas <c> tile the range,
// one iteration each, some holding nested areas of their own or of another
// iteration; candidate areas <a> lie in the tiles. Elements are written in
// shuffled order, so pre order is a permutation of region order.
type tiledJoin struct {
	ix     *RegionIndex
	ctx    []CtxNode
	nIters int32
	cand   *Candidates
}

func newTiledJoin(t *testing.T, rng *rand.Rand) tiledJoin {
	t.Helper()
	type elem struct {
		name       string
		iter       int
		start, end int64
	}
	var elems []elem
	nTiles := 1 + rng.Intn(10)
	pos := int64(rng.Intn(3))
	for tile := 0; tile < nTiles; tile++ {
		s, e := pos, pos+int64(rng.Intn(40))
		elems = append(elems, elem{"c", tile, s, e})
		// Nested areas take the active set from one entry to up to three
		// and back; an equal start is common.
		for n := rng.Intn(3); n > 0; n-- {
			ns := s + rng.Int63n(e-s+1)
			if rng.Intn(3) == 0 {
				ns = s
			}
			iter := tile
			if rng.Intn(2) == 0 {
				iter = rng.Intn(nTiles)
			}
			elems = append(elems, elem{"c", iter, ns, ns + rng.Int63n(e-ns+1)})
		}
		for n := rng.Intn(61); n > 0; n-- {
			cs := s + rng.Int63n(e-s+1)
			var ce int64
			switch rng.Intn(6) {
			case 0: // zero width
				ce = cs
			case 1: // straddles the tile's end
				ce = e + 1 + rng.Int63n(8)
			case 2: // starts with the tile
				cs, ce = s, s+rng.Int63n(e-s+1)
			default:
				ce = cs + rng.Int63n(e-cs+1)
			}
			elems = append(elems, elem{"a", -1, cs, ce})
		}
		// The next tile starts at this one's end about half the time, so a
		// context often starts exactly at a candidate's start.
		pos = e + int64(rng.Intn(2))
	}
	rng.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
	var sb strings.Builder
	sb.WriteString("<doc>")
	for _, el := range elems {
		fmt.Fprintf(&sb, `<%s start="%d" end="%d"/>`, el.name, el.start, el.end)
	}
	sb.WriteString("</doc>")
	ix := buildIx(t, sb.String(), DefaultOptions())
	j := tiledJoin{ix: ix, nIters: int32(nTiles)}
	cID, _ := ix.doc.Dict().Lookup("c")
	aID, _ := ix.doc.Dict().Lookup("a")
	for _, pre := range ix.doc.ElementsByName(cID) {
		j.ctx = append(j.ctx, CtxNode{Iter: int32(elems[pre-2].iter), Pre: pre})
	}
	rng.Shuffle(len(j.ctx), func(a, b int) { j.ctx[a], j.ctx[b] = j.ctx[b], j.ctx[a] })
	j.cand = ix.All()
	if as := ix.doc.ElementsByName(aID); rng.Intn(3) > 0 {
		j.cand = ix.Filter(as)
	}
	return j
}

// areasOf resolves the context nodes ctx with ContextAreas, as Join does.
func areasOf(ix *RegionIndex, ctx []CtxNode, a *JoinArena) Areas {
	pres, iters := make([]int32, len(ctx)), make([]int32, len(ctx))
	for i, cn := range ctx {
		pres[i], iters[i] = cn.Pre, cn.Iter
	}
	return ix.ContextAreas(pres, iters, a)
}

// naiveJoin is joinNaive over the context nodes as they come: in ctx's
// order, unresolved, nodes that are not areas included. It is the oracle,
// and it does not go through ContextAreas.
func naiveJoin(ix *RegionIndex, op Op, ctx []CtxNode, nIters int32, cand *Candidates) []Pair {
	a := Areas{Start: make([]int64, len(ctx)), End: make([]int64, len(ctx))}
	for _, cn := range ctx {
		a.Pre, a.Iter = append(a.Pre, cn.Pre), append(a.Iter, cn.Iter)
	}
	return joinNaive(ix, op, a, nIters, cand)
}

// checkAgainstNaive holds every join of the input against the naive nested
// loop: Join under all four ops, JoinAreas' Basic and Loop-Lifted joins
// called directly on the ContextAreas of all iterations (pseudo-keyed over an
// index with a multi-region area), MatchAreas per iteration, and
// JoinReduce's counts and first matches under both select ops. Each runs
// under the production list bound and under a bound of one, which turns the
// active set into a heap and back whenever two keys are live, with and
// without an arena.
func checkAgainstNaive(t *testing.T, ix *RegionIndex, ctx []CtxNode, nIters int32, cand *Candidates, arena *JoinArena) {
	t.Helper()
	for _, d := range []int{activeListMax, 1} {
		setListMax(t, d)
		checkAgainstNaiveAt(t, ix, ctx, nIters, cand, arena, d)
	}
}

func checkAgainstNaiveAt(t *testing.T, ix *RegionIndex, ctx []CtxNode, nIters int32, cand *Candidates, arena *JoinArena, d int) {
	t.Helper()
	cfgs := []JoinConfig{{}, {Arena: arena}}
	for op := SelectNarrow; op <= RejectWide; op++ {
		naive := naiveJoin(ix, op, ctx, nIters, cand)
		for _, cfg := range cfgs {
			if got := Join(ix, op, StrategyLoopLifted, ctx, nIters, cand, cfg); !pairsEqual(got, naive) {
				t.Fatalf("%v D=%d arena=%v:\n got  %v\nwant %v\nctx %v", op, d, cfg.Arena != nil, got, naive, ctx)
			}
			for _, strat := range []Strategy{StrategyBasic, StrategyLoopLifted} {
				if got := JoinAreas(ix, op, strat, areasOf(ix, ctx, cfg.Arena), nIters, cand, cfg); !pairsEqual(got, naive) {
					t.Fatalf("JoinAreas %v/%v D=%d arena=%v:\n got  %v\nwant %v\nctx %v", op, strat, d, cfg.Arena != nil, got, naive, ctx)
				}
			}
			checkMatch(t, ix, op, ctx, cand, naiveJoin(ix, op%2, ctx, nIters, cand), cfg)
		}
		if op != SelectNarrow && op != SelectWide {
			continue
		}
		for _, first := range []bool{false, true} {
			init := make([]int32, nIters)
			if first {
				for i := range init {
					init[i] = -1
				}
			}
			want := reducePairs(naive, nil, first, init)
			for _, cfg := range cfgs {
				got := slices.Clone(init)
				JoinReduce(ix, op, areasOf(ix, ctx, cfg.Arena), cand, nil, first, got, cfg)
				if !slices.Equal(got, want) {
					t.Fatalf("JoinReduce %v first=%v D=%d arena=%v: %v, want %v\nctx %v",
						op, first, d, cfg.Arena != nil, got, want, ctx)
				}
			}
		}
	}
}

// checkMatch holds MatchAreas to its contract: each iteration's context
// alone, as the areas ContextAreas resolves with no Iter column, repeated
// nodes kept, gives that iteration's pairs of op's select half (sel, the
// naive join's), each once, in any order.
func checkMatch(t *testing.T, ix *RegionIndex, op Op, ctx []CtxNode, cand *Candidates, sel []Pair, cfg JoinConfig) {
	t.Helper()
	want := map[int32][]Pair{}
	for _, p := range sel {
		want[p.Iter] = append(want[p.Iter], Pair{Pre: p.Pre})
	}
	byIter := map[int32][]int32{}
	for _, cn := range ctx {
		byIter[cn.Iter] = append(byIter[cn.Iter], cn.Pre)
	}
	for iter, pres := range byIter {
		got := slices.Clone(MatchAreas(ix, op, ix.ContextAreas(pres, nil, cfg.Arena), cand, cfg))
		sortPairsDirect(got) // no dedup: a pair matched twice fails
		if !pairsEqual(got, want[iter]) {
			t.Fatalf("MatchAreas %v arena=%v iteration %d:\n got  %v\nwant %v\npres %v", op, cfg.Arena != nil, iter, got, want[iter], pres)
		}
	}
}

// TestMergeNarrowRunsAgainstNaive: the merge's single-context runs — in every
// emit mode, stopping at the next context's start or past the context's end —
// give the naive join's answers on tiled per-iteration contexts.
func TestMergeNarrowRunsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	arena := AcquireJoinArena()
	defer arena.Release()
	for round := 0; round < 300; round++ {
		j := newTiledJoin(t, rng)
		checkAgainstNaive(t, j.ix, j.ctx, j.nIters, j.cand, arena)
	}
}

// TestGallopAgainstSortSearch: gallop finds what sort.Search finds, over
// runs of duplicates, from every lo, for targets below, at and above every
// value.
func TestGallopAgainstSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		col := make([]int64, rng.Intn(40))
		v := int64(rng.Intn(3))
		for i := range col {
			if rng.Intn(3) == 0 { // else a duplicate of the previous value
				v += 1 + int64(rng.Intn(4))
			}
			col[i] = v
		}
		for lo := 0; lo <= len(col); lo++ {
			targets := []int64{-1, v + 1}
			for _, x := range col {
				targets = append(targets, x-1, x, x+1)
			}
			for _, target := range targets {
				want := lo + sort.Search(len(col)-lo, func(i int) bool { return col[lo+i] >= target })
				if got := gallop(col, lo, target); got != want {
					t.Fatalf("gallop(%v, %d, %d) = %d, want %d", col, lo, target, got, want)
				}
			}
		}
	}
}

// TestHeapJoinSkipsLikeList: over sparse contexts, the merge skips the
// candidates between contexts with the active set in its heap state (list
// bound 0) as it does in its list state — once per gap, so a join costs the
// contexts, not the candidate column.
func TestHeapJoinSkipsLikeList(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<doc>")
	const nCtx, nCand = 50, 5000
	for i := 0; i < nCand; i++ {
		fmt.Fprintf(&sb, `<a start="%d" end="%d"/>`, i*20, i*20+5)
	}
	for i := 0; i < nCtx; i++ {
		fmt.Fprintf(&sb, `<c start="%d" end="%d"/>`, i*2000, i*2000+50)
	}
	sb.WriteString("</doc>")
	ix := buildIx(t, sb.String(), DefaultOptions())
	aID, _ := ix.doc.Dict().Lookup("a")
	cID, _ := ix.doc.Dict().Lookup("c")
	cand := ix.Filter(ix.doc.ElementsByName(aID))
	var ctx []CtxNode
	for i, pre := range ix.doc.ElementsByName(cID) {
		ctx = append(ctx, CtxNode{Iter: int32(i), Pre: pre})
	}
	skips := 0
	hook := testHookSkip
	testHookSkip = func() { skips++ }
	defer func() { testHookSkip = hook }()
	var pairs [2][]Pair
	var count [2]int
	for h, d := range []int{activeListMax, 0} {
		setListMax(t, d)
		skips = 0
		pairs[h] = Join(ix, SelectNarrow, StrategyLoopLifted, ctx, nCtx, cand, JoinConfig{})
		count[h] = skips
	}
	if !pairsEqual(pairs[0], pairs[1]) || len(pairs[0]) != 3*nCtx {
		t.Fatalf("list %d pairs, heap %d pairs, want %d each", len(pairs[0]), len(pairs[1]), 3*nCtx)
	}
	if count[0] < nCtx-1 || count[1] != count[0] {
		t.Fatalf("skips: list %d, heap %d; want the same, at least %d", count[0], count[1], nCtx-1)
	}
}

// FuzzMergeJoin holds the joins against the naive nested loop
// (checkAgainstNaive: all four ops, count and first, list bound 1 and the
// production one) on a random region document — single-region areas at
// random or tiling the positions, or multi-region areas in the region-element
// encoding — with random contexts and a random candidate subset. A context
// may hold nodes that are not areas (the <doc> element, any other node) and
// a node twice, in one iteration or in two.
func FuzzMergeJoin(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, seed%3 == 0)
	}
	f.Fuzz(func(t *testing.T, seed uint64, multi bool) {
		rng := rand.New(rand.NewSource(int64(seed)))
		arena := AcquireJoinArena()
		defer arena.Release()
		if !multi && rng.Intn(2) == 0 {
			j := newTiledJoin(t, rng)
			checkAgainstNaive(t, j.ix, j.ctx, j.nIters, j.cand, arena)
			return
		}
		opts := DefaultOptions()
		var sb strings.Builder
		sb.WriteString("<doc>")
		for n := 1 + rng.Intn(40); n > 0; n-- {
			if !multi {
				s := rng.Int63n(200)
				fmt.Fprintf(&sb, `<a start="%d" end="%d"/>`, s, s+rng.Int63n(60))
				continue
			}
			sb.WriteString("<a>")
			pos := rng.Int63n(100)
			for r := 1 + rng.Intn(3); r > 0; r-- {
				length := rng.Int63n(40)
				fmt.Fprintf(&sb, "<region><start>%d</start><end>%d</end></region>", pos, pos+length)
				pos += length + 2 + rng.Int63n(30)
			}
			sb.WriteString("</a>")
		}
		sb.WriteString("</doc>")
		if multi {
			opts.Region, opts.UseRegionElements = "region", true
		}
		ix := buildIx(t, sb.String(), opts)
		areas := ix.Areas()
		nIters := 1 + rng.Int31n(6)
		var ctx []CtxNode
		for i := rng.Intn(16); i > 0; i-- {
			pre := areas[rng.Intn(len(areas))]
			switch rng.Intn(10) {
			case 0:
				pre = 1 // the <doc> element
			case 1:
				pre = rng.Int31n(int32(ix.doc.NumNodes())) // any node
			}
			cn := CtxNode{Iter: rng.Int31n(nIters), Pre: pre}
			ctx = append(ctx, cn)
			switch rng.Intn(5) {
			case 0:
				ctx = append(ctx, cn)
			case 1:
				ctx = append(ctx, CtxNode{Iter: rng.Int31n(nIters), Pre: pre})
			}
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
		checkAgainstNaive(t, ix, ctx, nIters, cand, arena)
	})
}

// TestContextAreasResolvesAnyContext: ContextAreas keeps the context nodes
// that are areas, repeats included, with their iterations, ordered by
// (start, end, iteration, pre), an area's start its first region's and its
// end its last region's. With and without an arena, single- and
// multi-region.
func TestContextAreasResolvesAnyContext(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	arena := AcquireJoinArena()
	defer arena.Release()
	for round := 0; round < 200; round++ {
		var sb strings.Builder
		sb.WriteString("<doc>")
		multi := round%2 == 1
		for n := 1 + rng.Intn(30); n > 0; n-- {
			s := rng.Int63n(40)
			if !multi {
				fmt.Fprintf(&sb, `<a start="%d" end="%d"/>`, s, s+rng.Int63n(10))
				continue
			}
			sb.WriteString("<a>")
			for r := 1 + rng.Intn(3); r > 0; r-- {
				fmt.Fprintf(&sb, "<region><start>%d</start><end>%d</end></region>", s, s+rng.Int63n(5))
				s += 6 + rng.Int63n(10)
			}
			sb.WriteString("</a>")
		}
		sb.WriteString("</doc>")
		opts := DefaultOptions()
		if multi {
			opts.Region, opts.UseRegionElements = "region", true
		}
		ix := buildIx(t, sb.String(), opts)
		var pres, iters []int32
		for i := rng.Intn(150); i > 0; i-- { // past radixMin rows at times
			pres = append(pres, rng.Int31n(int32(ix.doc.NumNodes())))
			iters = append(iters, rng.Int31n(5))
		}
		if rng.Intn(3) == 0 {
			iters = nil
		}
		type area struct {
			start, end int64
			pre, iter  int32
		}
		var want []area
		for i, p := range pres {
			if r := ix.RegionsOf(p); len(r) > 0 {
				a := area{start: r[0].Start, end: r[len(r)-1].End, pre: p}
				if iters != nil {
					a.iter = iters[i]
				}
				want = append(want, a)
			}
		}
		slices.SortFunc(want, func(x, y area) int {
			return cmp.Or(cmp.Compare(x.start, y.start), cmp.Compare(x.end, y.end), cmp.Compare(x.iter, y.iter), cmp.Compare(x.pre, y.pre))
		})
		for _, a := range []*JoinArena{nil, arena} {
			got := ix.ContextAreas(pres, iters, a)
			if got.Len() != len(want) || len(want) > 0 && (got.Iter == nil) != (iters == nil) {
				t.Fatalf("round %d arena=%v: %d areas, Iter %v; want %d, %v",
					round, a != nil, got.Len(), got.Iter != nil, len(want), iters != nil)
			}
			for j, w := range want {
				g := area{start: got.Start[j], end: got.End[j], pre: got.Pre[j]}
				if iters != nil {
					g.iter = got.Iter[j]
				}
				if g != w {
					t.Fatalf("round %d arena=%v: area %d = %+v, want %+v", round, a != nil, j, g, w)
				}
			}
		}
	}
}

// TestRegionRowsFollowDeltaIndex: whether a join expands its context to
// region rows is the index's MultiRegion, so it follows the writes. A
// single-region base gets a multi-region area inserted and then deleted
// (MultiRegion false, true, false), and each version holds every join
// against the naive loop (checkAgainstNaive) on contexts that mix the
// inserted area with single-region ones. On each version regionRows, in
// both key modes, is the rows RegionsOf gives in (start, end, key, pre)
// order; over a single-region version no join reaches it.
func TestRegionRowsFollowDeltaIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for round := 0; round < 20; round++ {
		var sb strings.Builder
		sb.WriteString("<doc>")
		for n := 2 + rng.Intn(30); n > 0; n-- {
			s := rng.Int63n(80)
			fmt.Fprintf(&sb, "<%s><region><start>%d</start><end>%d</end></region></%[1]s>", layerNames[n%2], s, s+rng.Int63n(20))
		}
		sb.WriteString("</doc>")
		base := buildIx(t, sb.String(), regionOpts(t))
		regs := randArea(rng)
		for len(regs) < 2 {
			regs = randArea(rng)
		}
		d1, ix1, pre := carryInsert(t, base.doc, base, layerNames[rng.Intn(2)], regs)
		_, ix2 := layerDelete(t, d1, ix1, pre)
		for v, ix := range []*RegionIndex{base, ix1, ix2} {
			if ix.MultiRegion() != (v == 1) {
				t.Fatalf("round %d version %d: MultiRegion = %v", round, v, ix.MultiRegion())
			}
			nIters := 1 + rng.Int31n(4)
			areas := ix.Areas()
			ctx := []CtxNode{{Iter: rng.Int31n(nIters), Pre: pre}}
			for i := rng.Intn(12); i > 0; i-- {
				ctx = append(ctx, CtxNode{Iter: rng.Int31n(nIters), Pre: areas[rng.Intn(len(areas))]})
			}
			id, _ := ix.doc.Dict().Lookup(layerNames[rng.Intn(2)])
			arena := new(JoinArena) // not the pool's: its regions must start empty
			for _, cand := range []*Candidates{ix.All(), ix.FilterByName(id)} {
				checkAgainstNaive(t, ix, ctx, nIters, cand, arena)
			}
			if expanded := arena.regions.Start != nil; expanded != ix.MultiRegion() {
				t.Fatalf("round %d version %d: region rows built = %v, MultiRegion = %v", round, v, expanded, ix.MultiRegion())
			}
			checkRegionRows(t, ix, areasOf(ix, ctx, nil))
		}
	}
}

// checkRegionRows holds regionRows to the rows of ctx's areas' regions, read
// from RegionsOf, keyed by iteration or by area index, in (start, end, key,
// pre) order.
func checkRegionRows(t *testing.T, ix *RegionIndex, ctx Areas) {
	t.Helper()
	for _, exact := range []bool{false, true} {
		var want []ctxRow
		for i, p := range ctx.Pre {
			key := ctx.key(i)
			if exact {
				key = int32(i)
			}
			for _, r := range ix.RegionsOf(p) {
				want = append(want, ctxRow{key: key, pre: p, start: r.Start, end: r.End})
			}
		}
		slices.SortFunc(want, func(x, y ctxRow) int {
			return cmp.Or(cmp.Compare(x.start, y.start), cmp.Compare(x.end, y.end), cmp.Compare(x.key, y.key), cmp.Compare(x.pre, y.pre))
		})
		got := ix.regionRows(ctx, exact, nil)
		for j := 0; j < max(got.Len(), len(want)); j++ {
			if j >= got.Len() || j >= len(want) || (ctxRow{got.key(j), got.Pre[j], got.Start[j], got.End[j]}) != want[j] {
				t.Fatalf("regionRows exact=%v = %+v, want %+v", exact, got, want)
			}
		}
	}
}
