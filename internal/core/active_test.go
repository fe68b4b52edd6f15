package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// listMaxes are the list bounds the join tests run the active set under: the
// production one, one (a switch to the heap and back whenever two keys are
// live) and zero (the heap from the first insert).
var listMaxes = []int{activeListMax, 1, 0}

// setListMax lowers the active set's list bound to d until the test ends.
func setListMax(t testing.TB, d int) {
	old := listMax
	listMax = d
	t.Cleanup(func() { listMax = old })
}

func activeKeys(s *activeSet, thresh int64) []int32 {
	var keys []int32
	s.forEach(thresh, func(k int32) { keys = append(keys, k) })
	return keys
}

// TestActiveListMiddleDeletion exercises the list state directly: a new
// dominant region for a key must replace the key's older entry even when it
// sits in the middle of the list.
func TestActiveListMiddleDeletion(t *testing.T) {
	l := new(activeSet).reset(3)
	l.insert(0, 50)
	l.insert(1, 40)
	l.insert(2, 30)
	if l.len() != 3 || l.items[0].end != 50 {
		t.Fatalf("len=%d maxEnd=%d", l.len(), l.items[0].end)
	}
	if l.insert(1, 35) {
		t.Fatal("dominated insert must be rejected")
	}
	if !l.insert(1, 60) {
		t.Fatal("dominant insert must be accepted")
	}
	if l.heap || l.len() != 3 {
		t.Fatalf("middle deletion failed, heap=%v len=%d", l.heap, l.len())
	}
	if keys := activeKeys(l, 0); fmt.Sprint(keys) != "[1 0 2]" {
		t.Fatalf("order after middle deletion = %v", keys)
	}
	l.expire(35)
	if l.len() != 2 {
		t.Fatalf("expire failed, len=%d", l.len())
	}
	if keys := activeKeys(l, 45); fmt.Sprint(keys) != "[1 0]" {
		t.Fatalf("forEach(45) = %v", keys)
	}
}

// TestHeapActiveLazyStaleness exercises the heap state's lazy deletion.
func TestHeapActiveLazyStaleness(t *testing.T) {
	setListMax(t, 0)
	h := new(activeSet).reset(2)
	h.insert(0, 10)
	h.insert(1, 20)
	h.insert(0, 30) // supersedes (0,10)
	if !h.heap || h.len() != 2 {
		t.Fatalf("heap=%v live=%d", h.heap, h.len())
	}
	if keys := activeKeys(h, 5); fmt.Sprint(keys) != "[0 1]" {
		t.Fatalf("forEach = %v (stale entry leaked?)", keys)
	}
	// Re-run: items must have been pushed back.
	if keys := activeKeys(h, 15); fmt.Sprint(keys) != "[0 1]" {
		t.Fatalf("second forEach = %v", keys)
	}
	if keys := activeKeys(h, 25); fmt.Sprint(keys) != "[0]" {
		t.Fatalf("forEach(25) = %v", keys)
	}
	h.expire(31)
	if h.heap || h.len() != 0 {
		t.Fatalf("expire past the top: heap=%v len=%d, want the empty list", h.heap, h.len())
	}
}

// TestQuickActiveSetsAgree: under list bounds 0, 1, 3 and unbounded, the set
// answers a random operation mix with non-decreasing expiry cutoffs like a
// per-key model of dominant ends, so the four agree while switches between
// the list and the heap happen mid-sequence. len() is exact in the list
// state; the heap may still count keys that ended after the cutoff that last
// emptied it, never fewer, and is empty exactly when the model is.
func TestQuickActiveSetsAgree(t *testing.T) {
	defer func(d int) { listMax = d }(listMax)
	switches := map[int]int{}
	f := func(seed int64) bool {
		for _, d := range []int{0, 1, 3, math.MaxInt} {
			listMax = d
			n, err := checkActiveOps(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Logf("D=%d seed=%d: %v", d, seed, err)
				return false
			}
			switches[d] += n
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{0, 1, 3} {
		if switches[d] == 0 {
			t.Errorf("D=%d: the op mixes never switched between list and heap", d)
		}
	}
}

// checkActiveOps runs one random op mix against the model and returns how
// often the set switched state.
func checkActiveOps(rng *rand.Rand) (int, error) {
	nKeys := int32(1 + rng.Intn(12))
	s := new(activeSet).reset(nKeys)
	model := make([]int64, nKeys)
	for i := range model {
		model[i] = math.MinInt64
	}
	cutoff, switches, wasHeap := int64(0), 0, false
	for op := 0; op < 200; op++ {
		switch rng.Intn(3) {
		case 0: // insert at or after the cutoff
			key, end := rng.Int31n(nKeys), cutoff+rng.Int63n(30)
			want := end > model[key]
			if want {
				model[key] = end
			}
			if got := s.insert(key, end); got != want {
				return switches, fmt.Errorf("op %d: insert(%d, %d) = %v, want %v", op, key, end, got, want)
			}
		case 1: // expire with a non-decreasing cutoff
			cutoff += rng.Int63n(8)
			s.expire(cutoff)
			live := 0
			for _, e := range model {
				if e >= cutoff {
					live++
				}
			}
			if n := s.len(); n < live || (n == 0) != (live == 0) || !s.heap && n != live {
				return switches, fmt.Errorf("op %d: len() = %d (heap=%v), %d live at cutoff %d", op, n, s.heap, live, cutoff)
			}
			if key, end, ok := s.single(); ok && (live != 1 || model[key] != end) {
				return switches, fmt.Errorf("op %d: single() = (%d, %d), model %v at cutoff %d", op, key, end, model, cutoff)
			}
		case 2: // forEach at a threshold >= cutoff
			thresh := cutoff + rng.Int63n(20)
			var want []int32
			for k, e := range model {
				if e >= thresh {
					want = append(want, int32(k))
				}
			}
			got := activeKeys(s, thresh)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				return switches, fmt.Errorf("op %d: forEach(%d) = %v, want %v", op, thresh, got, want)
			}
		}
		if s.heap != wasHeap {
			switches++
			wasHeap = s.heap
		}
		if !s.heap && len(s.items) > listMax {
			return switches, fmt.Errorf("op %d: list state holds %d entries, bound %d", op, len(s.items), listMax)
		}
	}
	return switches, nil
}

// TestActiveSetSwitchKeepsLen: at depths D-1, D and D+1 around the list
// bound, a key whose entry the list expired and that is inserted again after
// the switch to the heap counts once — the heap's floor starts at the list's
// last cutoff — and the heap empties back into the list.
func TestActiveSetSwitchKeepsLen(t *testing.T) {
	for _, d := range []int{1, 4, activeListMax} {
		setListMax(t, d)
		for depth := d - 1; depth <= d+1; depth++ {
			s := new(activeSet).reset(int32(depth + 1))
			s.insert(0, 5)
			s.expire(10) // key 0 leaves the list
			for k := 1; k <= depth; k++ {
				s.insert(int32(k), int64(10+k))
			}
			if wantHeap := depth > d; s.heap != wantHeap {
				t.Fatalf("D=%d depth %d: heap=%v, want %v", d, depth, s.heap, wantHeap)
			}
			s.insert(0, 100)
			if s.len() != depth+1 {
				t.Fatalf("D=%d depth %d: len() = %d after re-inserting the expired key, want %d", d, depth, s.len(), depth+1)
			}
			if keys := activeKeys(s, 100); fmt.Sprint(keys) != "[0]" {
				t.Fatalf("D=%d depth %d: forEach(100) = %v", d, depth, keys)
			}
			s.expire(101)
			if s.heap || s.len() != 0 {
				t.Fatalf("D=%d depth %d: after expiring all, heap=%v len=%d", d, depth, s.heap, s.len())
			}
		}
	}
}

// TestActiveListStaysShort: on the two shapes where every context stays
// active — ascending contexts under select-narrow, and per-iteration
// contexts under select-wide, which never expires — the list state never
// holds more than the bound, so no insert shifts more than D entries and
// the join stays near-linear in the contexts.
func TestActiveListStaysShort(t *testing.T) {
	const n = 2000
	for _, d := range []int{1, 3, activeListMax} {
		setListMax(t, d)
		for _, shape := range []string{"ascending", "wide"} {
			s := new(activeSet).reset(n)
			for i := int64(0); i < n; i++ {
				if shape == "ascending" {
					// Context [i, 10n+i]; the candidate at n+i expires nothing.
					s.insert(int32(i), 10*n+i)
					s.expire(i)
					s.forEach(10*n+n+i, func(int32) {})
				} else {
					// Hits 20 apart, scenes of 1000 ending after each.
					s.insert(int32(i), 20*i+5)
					s.forEach(20*i-1000, func(int32) {})
				}
				if !s.heap && len(s.items) > d {
					t.Fatalf("D=%d %s: list state holds %d entries after %d inserts", d, shape, len(s.items), i+1)
				}
			}
			if !s.heap || s.len() != n {
				t.Fatalf("D=%d %s: heap=%v len=%d, want the heap with all %d live", d, shape, s.heap, s.len(), n)
			}
		}
	}
}
