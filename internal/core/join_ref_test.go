package core

// The pair and context-row ordering this package shipped before the
// linear-time one, kept verbatim as the oracle of TestSortDedupPairsAgainst
// Reference and TestSortCtxRowsAgainstReference: a counting sort over Iter
// whose buckets go through slices.SortFunc with a closure comparator, and a
// slices.SortFunc over the context table.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func sortDedupPairsRef(pairs *[]Pair, a *JoinArena) {
	p := *pairs
	if len(p) >= 64 {
		maxIter := int32(0)
		for _, x := range p {
			if x.Iter > maxIter {
				maxIter = x.Iter
			}
		}
		if int(maxIter) < 4*len(p) { // counting sort pays off
			off := a.getOff(int(maxIter) + 2)
			for _, x := range p {
				off[x.Iter+1]++
			}
			for i := 1; i < len(off); i++ {
				off[i] += off[i-1]
			}
			sorted := a.getPairsLen(len(p))
			fill := a.getFill(int(maxIter) + 1)
			copy(fill, off[:len(off)-1])
			for _, x := range p {
				sorted[fill[x.Iter]] = x
				fill[x.Iter]++
			}
			for i := int32(0); i <= maxIter; i++ {
				bucket := sorted[off[i]:off[i+1]]
				slices.SortFunc(bucket, func(x, y Pair) int { return int(x.Pre) - int(y.Pre) })
			}
			a.putPairs(p)
			p = sorted
		} else {
			sortPairsDirect(p)
		}
	} else {
		sortPairsDirect(p)
	}
	out := p[:0]
	for i, pr := range p {
		if i == 0 || pr != p[i-1] {
			out = append(out, pr)
		}
	}
	*pairs = out
}

func sortCtxRowsRef(rows []ctxRow) {
	slices.SortFunc(rows, func(x, y ctxRow) int {
		if x.start != y.start {
			return cmp.Compare(x.start, y.start)
		}
		return cmp.Compare(x.end, y.end)
	})
}

// TestSortDedupPairsAgainstReference: bucket lengths on both sides of the
// comparison-sort and radix thresholds, duplicates, an iteration column too
// sparse for the counting sort, ordered and reversed input, pres that differ
// in one byte only, with and without an arena.
func TestSortDedupPairsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type shape struct {
		name           string
		n, iters, pres int32
		order          string // "random", "sorted", "reversed"
	}
	var shapes []shape
	for _, n := range []int32{0, 1, 63, 64, 65, radixMin - 1, radixMin, radixMin + 1, 700, 5000} {
		for _, iters := range []int32{1, 3, 40} {
			for _, order := range []string{"random", "sorted", "reversed"} {
				shapes = append(shapes, shape{"dense", n, iters, 1 << 20, order})
			}
		}
		shapes = append(shapes,
			shape{"duplicates", n, 2, 7, "random"},
			shape{"sparse-iters", n, 1 << 30, 1 << 20, "random"},
			shape{"one-byte", n, 1, 200, "random"},
			shape{"high-byte", n, 2, 1 << 30, "random"})
	}
	arena := AcquireJoinArena()
	defer arena.Release()
	for _, sh := range shapes {
		in := make([]Pair, sh.n)
		for i := range in {
			in[i] = Pair{Iter: rng.Int31n(sh.iters), Pre: rng.Int31n(sh.pres)}
			if sh.name == "high-byte" {
				in[i].Pre &^= 0xffff // only the top bytes vary
			}
		}
		if sh.order != "random" {
			sortPairsDirect(in)
			if sh.order == "reversed" {
				slices.Reverse(in)
			}
		}
		want := slices.Clone(in)
		sortDedupPairsRef(&want, nil)
		for _, a := range []*JoinArena{nil, arena} {
			got := slices.Clone(in)
			sortDedupPairs(&got, a)
			if !pairsEqual(got, want) {
				t.Fatalf("%s n=%d iters=%d %s (arena %v): got %d pairs, want %d\n%v\n%v",
					sh.name, sh.n, sh.iters, sh.order, a != nil, len(got), len(want), got, want)
			}
		}
	}
}

// TestSortCtxRowsAgainstReference: the (start, end) sequence is unique, the
// keys of equal rows may come in any order.
func TestSortCtxRowsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	arena := AcquireJoinArena()
	defer arena.Release()
	for _, n := range []int{0, 1, radixMin - 1, radixMin, 300, 4000} {
		for _, span := range []int64{1, 5, 1 << 9, 1 << 40} {
			for _, order := range []string{"random", "sorted", "reversed"} {
				in := make([]ctxRow, n)
				for i := range in {
					s := rng.Int63n(span) - span/2
					in[i] = ctxRow{key: int32(i), start: s, end: s + rng.Int63n(4)}
				}
				if order != "random" {
					sortCtxRowsRef(in)
					if order == "reversed" {
						slices.Reverse(in)
					}
				}
				for i := range in {
					in[i].key = int32(i)
				}
				want := slices.Clone(in)
				sortCtxRowsRef(want)
				for _, a := range []*JoinArena{nil, arena} {
					got := sortCtxRows(append(a.getCtxRows(n), in...), a)
					a.putCtxRows(got)
					if len(got) != len(want) {
						t.Fatalf("n=%d span=%d %s: %d rows, want %d", n, span, order, len(got), len(want))
					}
					seen := make(map[int32]bool, n)
					for i, r := range got {
						if r.start != want[i].start || r.end != want[i].end {
							t.Fatalf("n=%d span=%d %s: row %d = (%d,%d), want (%d,%d)",
								n, span, order, i, r.start, r.end, want[i].start, want[i].end)
						}
						if in[r.key] != r || seen[r.key] {
							t.Fatalf("n=%d span=%d %s: row %d is not an input row, or came twice: %+v", n, span, order, i, r)
						}
						seen[r.key] = true
					}
				}
			}
		}
	}
}

// BenchmarkSortDedupPairs prices one bucket per length around radixMin.
func BenchmarkSortDedupPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{32, 64, 96, 128, 256, 1024, 100000} {
		in := make([]Pair, n)
		for i := range in {
			in[i] = Pair{Pre: rng.Int31n(1 << 21)}
		}
		buf, tmp := make([]Pair, n), make([]Pair, n)
		for name, sortBucket := range map[string]func(b, tmp []Pair){
			"radix": sortByPre,
			"cmp":   func(b, _ []Pair) { slices.SortFunc(b, func(x, y Pair) int { return int(x.Pre) - int(y.Pre) }) },
		} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, in)
					sortBucket(buf, tmp)
				}
			})
		}
	}
}

// TestSortDedupPairsOrderedInput: sortPairs returns input already in (Iter,
// Pre) order as it is, in its own backing array and without taking an arena
// buffer, and orders everything else as sortPairsDirect does: strictly
// ordered input, sorted with duplicate pairs (which sortDedupPairs still
// drops), sorted but for one inversion at the last pair, and reversed, under
// and over the 64-pair counting-sort threshold. sortDedupPairs hands strictly
// ordered input back as it came, in the same backing array.
func TestSortDedupPairsOrderedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{2, 10, 63, 64, 65, 300} {
		sorted := make([]Pair, n) // strictly ordered: no pair twice
		for i := range sorted {
			sorted[i] = Pair{Iter: int32(4 * i / n), Pre: int32(16*i) + rng.Int31n(16)}
		}
		dups := slices.Clone(sorted)
		for i := 1; i < n; i += 3 {
			dups[i] = dups[i-1]
		}
		last := slices.Clone(sorted)
		last[n-2], last[n-1] = last[n-1], last[n-2]
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		for _, c := range []struct {
			name            string
			in              []Pair
			ordered, strict bool
		}{{"strict", sorted, true, true}, {"duplicates", dups, true, false}, {"last-inversion", last, false, false}, {"reversed", reversed, false, false}} {
			want := slices.Clone(c.in)
			sortPairsDirect(want)
			if c.ordered != slices.Equal(want, c.in) {
				t.Fatalf("n=%d %s: the case is not what it says", n, c.name)
			}
			a := &JoinArena{}
			a.putPairs(make([]Pair, 0, 2*n))
			in := slices.Clone(c.in)
			got, strict := sortPairs(in, a)
			if !slices.Equal(got, want) || strict != c.strict {
				t.Fatalf("n=%d %s: sortPairs = %v strict %v, want %v strict %v", n, c.name, got, strict, want, c.strict)
			}
			if c.ordered && (&got[0] != &in[0] || len(a.pairFree) != 1 || a.csOff != nil) {
				t.Errorf("n=%d %s: ordered input was copied or took an arena buffer", n, c.name)
			}
			dedup, wantDedup := slices.Clone(c.in), slices.Compact(want)
			in = dedup
			sortDedupPairs(&dedup, a)
			if !slices.Equal(dedup, wantDedup) {
				t.Fatalf("n=%d %s: sortDedupPairs = %v, want %v", n, c.name, dedup, wantDedup)
			}
			if c.strict && (&dedup[0] != &in[0] || len(dedup) != len(in) || cap(dedup) != cap(in)) {
				t.Errorf("n=%d %s: strictly ordered input did not come back as it came", n, c.name)
			}
		}
	}
}
