package xqexec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkPendingSet drives a pendingSet through a chunk sequence read from
// data and checks it against sort + dedup: after every chunk, take must hand
// out exactly the sorted distinct pres below the chunk's watermark that have
// not left yet, and hold the rest. Chunks carry duplicates within themselves
// and of pres still pending from earlier chunks, pres at the word edges
// lo+63, lo+64, lo+65, and come either in any order or strictly ascending
// (the pass-through form, which applies only while nothing is pending);
// watermarks start below lo, step through word edges, and jump past the top.
// The stream ends with a full drain or an early release, and either way
// every word handed back is zero.
func checkPendingSet(t *testing.T, lo int32, data []byte) {
	t.Helper()
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	p := pendingSet{lo: lo}
	var held, all, got []int32 // held: the model's pending pres, ascending
	wm := int64(lo) - int64(next(3))
	for chunk := 0; len(data) > 0 && chunk < 48; chunk++ {
		floor := max(wm, int64(lo)) // no pres below the last watermark
		var pres []int32
		for j, n := 0, next(12); j < n; j++ {
			pre := floor + int64(next(160))
			switch next(5) {
			case 0:
				pre = max(floor, int64(lo)+63+int64(next(3)))
			case 1:
				if len(pres) > 0 {
					pre = int64(pres[next(len(pres))])
				}
			case 2:
				if len(held) > 0 {
					pre = int64(held[next(len(held))])
				}
			}
			pres = append(pres, int32(pre))
		}
		if next(2) == 0 {
			slices.Sort(pres)
			pres = slices.Compact(pres)
		}
		switch next(4) {
		case 1:
			wm += int64(next(40))
		case 2:
			wm = max(wm, int64(lo)+63+int64(next(3)))
		case 3:
			top := int64(lo)
			for _, pre := range append(slices.Clone(held), pres...) {
				top = max(top, int64(pre))
			}
			wm = max(wm, top+1+int64(next(70)))
		}
		all = append(all, pres...)
		held = append(held, pres...)
		slices.Sort(held)
		held = slices.Compact(held)
		k, _ := slices.BinarySearch(held, int32(min(wm, math.MaxInt32)))
		want := slices.Clone(held[:k])
		held = held[k:]
		out := p.take(nil, pres, wm)
		if !slices.Equal(out, want) {
			t.Fatalf("lo %d chunk %d %v wm %d: took %v, sort+dedup has %v", lo, chunk, pres, wm, out, want)
		}
		if p.n != len(held) {
			t.Fatalf("lo %d chunk %d: %d pres pending, sort+dedup holds %d", lo, chunk, p.n, len(held))
		}
		got = append(got, out...)
		if next(16) == 0 {
			words := p.words[:cap(p.words)]
			p.release()
			if i := slices.IndexFunc(words, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("lo %d: word %d is %#x after an early release", lo, i, words[i])
			}
			return
		}
	}
	got = p.drain(got, math.MaxInt64)
	slices.Sort(all)
	if all = slices.Compact(all); !slices.Equal(got, all) {
		t.Fatalf("lo %d: the stream emitted %v, sort+dedup has %v", lo, got, all)
	}
	words := p.words[:cap(p.words)]
	if i := slices.IndexFunc(words, func(w uint64) bool { return w != 0 }); i >= 0 {
		t.Fatalf("lo %d: word %d is %#x after a full drain", lo, i, words[i])
	}
	p.release()
}

// TestPendingSetAgainstSortDedup: random chunk sequences put in document
// order by the pending set equal sort + dedup of everything joined.
func TestPendingSetAgainstSortDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 600)
	for seed := 0; seed < 400; seed++ {
		rng.Read(data)
		checkPendingSet(t, []int32{0, 1, 63, 64, 1000}[seed%5], data)
	}
}

// FuzzPendingSet is TestPendingSetAgainstSortDedup over fuzzed chunk
// sequences.
//
//	go test -run '^FuzzPendingSet$' -fuzz '^FuzzPendingSet$' -fuzztime 20s ./internal/xqexec
func FuzzPendingSet(f *testing.F) {
	f.Add(uint16(0), []byte{0, 5, 3, 1, 2, 2, 0, 1, 3, 7, 9})
	f.Add(uint16(64), []byte{2, 11, 0, 1, 0, 2, 1, 0, 1, 4, 0, 3, 3, 9, 1, 0, 200, 4, 2})
	f.Fuzz(func(t *testing.T, lo uint16, data []byte) {
		checkPendingSet(t, int32(lo), data)
	})
}
