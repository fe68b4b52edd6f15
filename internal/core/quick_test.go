package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// regionSpec is a generatable description of an annotated document.
type regionSpec struct {
	Starts  []uint16
	Lengths []uint8
}

// Generate implements quick.Generator: up to 48 random single-region areas.
func (regionSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(48)
	s := regionSpec{Starts: make([]uint16, n), Lengths: make([]uint8, n)}
	for i := 0; i < n; i++ {
		s.Starts[i] = uint16(r.Intn(500))
		s.Lengths[i] = uint8(r.Intn(120))
	}
	return reflect.ValueOf(s)
}

func (s regionSpec) doc(t *testing.T) *RegionIndex {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := range s.Starts {
		fmt.Fprintf(&sb, `<a start="%d" end="%d"/>`,
			int(s.Starts[i]), int(s.Starts[i])+int(s.Lengths[i]))
	}
	sb.WriteString("</doc>")
	return buildIx(t, sb.String(), DefaultOptions())
}

// TestQuickIndexInvariants: for arbitrary inputs the region index is
// clustered on start, covers every annotation, and its end-ordered columns
// are ordered on end.
func TestQuickIndexInvariants(t *testing.T) {
	f := func(spec regionSpec) bool {
		ix := spec.doc(t)
		if ix.NumAreas() != len(spec.Starts) || ix.NumRegions() != len(spec.Starts) {
			return false
		}
		rStart, rEnd, rID := ix.All().regionCols()
		for i := 1; i < len(rStart); i++ {
			if rStart[i] < rStart[i-1] {
				return false
			}
			if rStart[i] == rStart[i-1] && rEnd[i] < rEnd[i-1] {
				return false
			}
		}
		_, ee, eid := ix.endCols()
		if len(eid) != len(rID) || !slices.IsSorted(ee) {
			return false
		}
		// areas are ascending pres and each one resolves to its region.
		if !sort.SliceIsSorted(ix.areas, func(a, b int) bool { return ix.areas[a] < ix.areas[b] }) {
			return false
		}
		for _, pre := range ix.areas {
			if len(ix.RegionsOf(pre)) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickJoinInvariants: join outputs are always sorted by (Iter, Pre),
// duplicate-free, within the candidate set, and select/reject partition the
// candidates per iteration.
func TestQuickJoinInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(spec regionSpec, sel uint8) bool {
		ix := spec.doc(t)
		areas := ix.Areas()
		nIters := int32(1 + rng.Intn(4))
		var ctx []CtxNode
		for i := 0; i < rng.Intn(8); i++ {
			ctx = append(ctx, CtxNode{Iter: rng.Int31n(nIters), Pre: areas[rng.Intn(len(areas))]})
		}
		cand := ix.All()
		if sel%2 == 0 {
			var sub []int32
			for _, a := range areas {
				if rng.Intn(2) == 0 {
					sub = append(sub, a)
				}
			}
			cand = ix.Filter(sub)
		}
		candSet := map[int32]bool{}
		for _, p := range cand.AreaPres() {
			candSet[p] = true
		}
		for op := SelectNarrow; op <= RejectWide; op++ {
			pairs := Join(ix, op, StrategyLoopLifted, ctx, nIters, cand, JoinConfig{})
			for i, pr := range pairs {
				if pr.Iter < 0 || pr.Iter >= nIters || !candSet[pr.Pre] {
					return false
				}
				if i > 0 {
					prev := pairs[i-1]
					if prev.Iter > pr.Iter || (prev.Iter == pr.Iter && prev.Pre >= pr.Pre) {
						return false
					}
				}
			}
		}
		// select + reject partition the candidates per iteration.
		for _, pairOps := range [][2]Op{{SelectNarrow, RejectNarrow}, {SelectWide, RejectWide}} {
			sel := Join(ix, pairOps[0], StrategyLoopLifted, ctx, nIters, cand, JoinConfig{})
			rej := Join(ix, pairOps[1], StrategyLoopLifted, ctx, nIters, cand, JoinConfig{})
			if len(sel)+len(rej) != int(nIters)*len(cand.AreaPres()) {
				return false
			}
			seen := map[Pair]bool{}
			for _, p := range sel {
				seen[p] = true
			}
			for _, p := range rej {
				if seen[p] {
					return false // overlap between select and reject
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSortDedupPairs: the counting-sort path agrees with a direct sort
// for arbitrary pair multisets.
func TestQuickSortDedupPairs(t *testing.T) {
	f := func(iters []uint8, pres []uint16) bool {
		n := len(iters)
		if len(pres) < n {
			n = len(pres)
		}
		pairs := make([]Pair, n)
		for i := 0; i < n; i++ {
			pairs[i] = Pair{Iter: int32(iters[i] % 16), Pre: int32(pres[i] % 64)}
		}
		ref := map[Pair]bool{}
		for _, p := range pairs {
			ref[p] = true
		}
		got := append([]Pair(nil), pairs...)
		sortDedupPairs(&got, nil)
		if len(got) != len(ref) {
			return false
		}
		for i, p := range got {
			if !ref[p] {
				return false
			}
			if i > 0 && (got[i-1].Iter > p.Iter || (got[i-1].Iter == p.Iter && got[i-1].Pre >= p.Pre)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Force the large counting-sort path explicitly.
	var big []Pair
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		big = append(big, Pair{Iter: rng.Int31n(20), Pre: rng.Int31n(40)})
	}
	cp := append([]Pair(nil), big...)
	sortDedupPairs(&cp, nil)
	direct := append([]Pair(nil), big...)
	sortPairsDirect(direct)
	out := direct[:0]
	for i, p := range direct {
		if i == 0 || p != direct[i-1] {
			out = append(out, p)
		}
	}
	if !pairsEqual(cp, out) {
		t.Fatalf("counting sort diverges:\n%v\n%v", cp, out)
	}
}

// TestQuickParseIntBytes: parseIntBytes agrees with the standard library on
// arbitrary int64 values.
func TestQuickParseIntBytes(t *testing.T) {
	f := func(v int64) bool {
		s := fmt.Sprintf("%d", v)
		got, err := parseIntBytes([]byte(s))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTimecodeRoundTrip: formatting then parsing a timecode is the
// identity on non-negative millisecond values.
func TestQuickTimecodeRoundTrip(t *testing.T) {
	o := Options{Type: TypeTimecode}
	f := func(raw uint32) bool {
		ms := int64(raw) % (99 * 3600000)
		s := o.FormatPosition(ms)
		back, err := o.ParsePosition(s)
		return err == nil && back == ms
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
