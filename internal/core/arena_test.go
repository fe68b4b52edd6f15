package core

import (
	"math/rand"
	"testing"
)

// TestJoinArenaEquivalence pins the arena's ownership contract: joins that
// share one arena across many invocations (recycled pair buffers, reused
// active sets and context rows) return exactly what arena-free joins return,
// for every operator, strategy, and active-set list bound.
func TestJoinArenaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	arena := AcquireJoinArena()
	defer arena.Release()
	for round := 0; round < 40; round++ {
		nAreas := 1 + rng.Intn(40)
		ix := randomSingleRegionIndex(t, rng, nAreas, 200)
		areas := ix.Areas()
		nIters := int32(1 + rng.Intn(5))
		var ctx []CtxNode
		for i := 0; i < rng.Intn(12); i++ {
			ctx = append(ctx, CtxNode{Iter: rng.Int31n(nIters), Pre: areas[rng.Intn(len(areas))]})
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
		for op := SelectNarrow; op <= RejectWide; op++ {
			for _, strat := range []Strategy{StrategyNaive, StrategyBasic, StrategyLoopLifted} {
				for _, d := range listMaxes {
					setListMax(t, d)
					ref := Join(ix, op, strat, ctx, nIters, cand, JoinConfig{})
					got := Join(ix, op, strat, ctx, nIters, cand, JoinConfig{Arena: arena})
					if !pairsEqual(got, ref) {
						t.Fatalf("round %d: %v/%v(D=%d) with arena disagrees:\n got  %v\nwant %v\nctx %v",
							round, op, strat, d, got, ref, ctx)
					}
					// got is on loan until the next arena Join — compared
					// above, not referenced below.
				}
			}
		}
	}
}

// TestComplementDenseMatch pins complement's exact capacity accounting on a
// dense corpus: when every candidate is matched in every iteration, the
// reject remainder is empty (the former nIters*len(areas)-len(matched)
// arithmetic hits exactly zero — the boundary the stale hint got wrong), and
// partially dense contexts produce exactly the unmatched grid cells.
func TestComplementDenseMatch(t *testing.T) {
	// One umbrella area [0,100] containing every other area.
	src := `<doc><a start="0" end="100"/><a start="5" end="10"/><a start="10" end="20"/><a start="30" end="40"/><a start="90" end="100"/></doc>`
	ix := buildIx(t, src, DefaultOptions())
	areas := ix.Areas()
	umbrella := areas[0]
	nIters := int32(3)
	ctx := []CtxNode{{Iter: 0, Pre: umbrella}, {Iter: 1, Pre: umbrella}, {Iter: 2, Pre: umbrella}}
	for _, d := range listMaxes {
		setListMax(t, d)
		for _, arena := range []*JoinArena{nil, AcquireJoinArena()} {
			cfg := JoinConfig{Arena: arena}
			sel := Join(ix, SelectNarrow, StrategyLoopLifted, ctx, nIters, ix.All(), cfg)
			if len(sel) != int(nIters)*len(areas) {
				t.Fatalf("D=%d arena=%v: dense select-narrow returned %d pairs, want %d",
					d, arena != nil, len(sel), int(nIters)*len(areas))
			}
			rej := Join(ix, RejectNarrow, StrategyLoopLifted, ctx, nIters, ix.All(), cfg)
			if len(rej) != 0 {
				t.Fatalf("D=%d arena=%v: dense reject-narrow returned %d pairs, want 0: %v",
					d, arena != nil, len(rej), rej)
			}
			// Partially dense: one iteration has no context at all, so its
			// whole candidate row set is the complement.
			part := []CtxNode{{Iter: 0, Pre: umbrella}, {Iter: 2, Pre: umbrella}}
			rej = Join(ix, RejectNarrow, StrategyLoopLifted, part, nIters, ix.All(), cfg)
			if len(rej) != len(areas) {
				t.Fatalf("D=%d arena=%v: partial reject-narrow returned %d pairs, want %d",
					d, arena != nil, len(rej), len(areas))
			}
			for i, p := range rej {
				if p.Iter != 1 || p.Pre != areas[i] {
					t.Fatalf("D=%d arena=%v: partial reject pair %d = %v, want {1 %d}",
						d, arena != nil, i, p, areas[i])
				}
			}
			arena.Release()
		}
	}
}

// TestComplementContractViolation pins the clamp: duplicated matched pairs
// (a contract violation) must degrade to growth, not panic on a negative
// make capacity.
func TestComplementContractViolation(t *testing.T) {
	areas := []int32{1}
	matched := []Pair{{Iter: 0, Pre: 1}, {Iter: 0, Pre: 1}, {Iter: 0, Pre: 1}}
	out := complement(matched, 1, areas, nil) // 1*1-3 < 0 without the clamp
	if len(out) != 0 {
		t.Fatalf("complement on duplicated matches: got %v, want empty", out)
	}
}
