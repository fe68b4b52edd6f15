package core

import "math"

// activeListMax is D: the set keeps its entries as the paper's sorted list
// while at most D are live, and as a max-heap beyond that. Tuned with
// BenchmarkAblation_ActiveList; any value from 32 to 256 is within noise.
const activeListMax = 64

// listMax is activeListMax; tests lower it to force the switches.
var listMax = activeListMax

// activeSet holds the "active context items" of the StandOff MergeJoin
// (section 4.4/4.5): per key (an iteration, or a pseudo-iteration standing
// for one multi-region context area), the dominant context region seen so
// far. A region dominates another of the same key when it was inserted no
// later (hence its start is <=) and its end is >=: whenever the dominated
// region satisfies a join condition, the dominant one does too, so keeping
// one region per key is exact for the semi-join.
//
// The set has two states over the one items slice. While at most listMax
// entries are live it is the paper's list, sorted descending on end, "from
// which we currently may delete elements in the middle – so it really is a
// list" (section 5): tail entries expire as the candidate scan advances, and
// a fresh dominant region for a key deletes the key's stale middle entry.
// Past listMax, where each list insert or delete would shift a long array,
// it becomes the heap section 5 suggests for "data-distributions that cause
// it to grow long": a binary max-heap on end with lazy deletion of
// superseded entries, so an insert or an emission costs O(log n). A
// descending slice already is a max-heap, so the switch moves nothing, and
// the heap returns to the list state when expire empties it.
type activeSet struct {
	items   []activeEntry
	best    []int64 // per key: dominant end, MinInt64 when none
	heap    bool    // the heap state
	live    int     // heap state: keys whose entry is in items
	scratch []activeEntry
	// floor: list state, the last expire cutoff; heap state, the cutoff
	// before which every entry had left items. A key whose best end is
	// below it has no entry in items.
	floor int64
}

type activeEntry struct {
	key int32
	end int64
}

// reset reinitialises the set for nKeys keys in the list state, keeping the
// backing arrays — the arena-recycled construction path.
func (s *activeSet) reset(nKeys int32) *activeSet {
	if cap(s.best) < int(nKeys) {
		s.best = make([]int64, nKeys)
	}
	s.best = s.best[:nKeys]
	for i := range s.best {
		s.best[i] = math.MinInt64
	}
	s.items, s.scratch = s.items[:0], s.scratch[:0]
	s.heap, s.live, s.floor = false, 0, math.MinInt64
	return s
}

// insert offers a context region; dominated regions are ignored. Returns
// whether the region was kept. An inserted end is never below the last
// expire cutoff (the merges insert a row only once its start is past it).
func (s *activeSet) insert(key int32, end int64) bool {
	old := s.best[key]
	if old >= end {
		return false // dominated by an earlier region of the same key
	}
	s.best[key] = end
	if s.heap {
		if old != math.MinInt64 && old >= s.floor {
			s.live-- // the old entry becomes stale in place
		}
		s.push(activeEntry{key: key, end: end})
		s.live++
		return true
	}
	if old != math.MinInt64 {
		s.deleteEntry(key, old)
	}
	// Binary search for the first position whose end < end (descending).
	lo, hi := 0, len(s.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.items[mid].end >= end {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.items = append(s.items, activeEntry{})
	copy(s.items[lo+1:], s.items[lo:])
	s.items[lo] = activeEntry{key: key, end: end}
	if len(s.items) > listMax {
		// Every entry is live and ends at or after floor, and every key
		// with no entry ended before it: the heap state's invariant.
		s.heap, s.live = true, len(s.items)
	}
	return true
}

// deleteEntry removes the list's (key,end) entry if still present (it may
// have been expired from the tail already).
func (s *activeSet) deleteEntry(key int32, end int64) {
	lo, hi := 0, len(s.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.items[mid].end > end {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(s.items) && s.items[i].end == end; i++ {
		if s.items[i].key == key {
			s.items = append(s.items[:i], s.items[i+1:]...)
			return
		}
	}
}

// forEach invokes f once per key whose dominant end is >= thresh.
func (s *activeSet) forEach(thresh int64, f func(key int32)) {
	if !s.heap {
		for _, it := range s.items {
			if it.end < thresh {
				return
			}
			f(it.key)
		}
		return
	}
	s.scratch = s.scratch[:0]
	for len(s.items) > 0 && s.items[0].end >= thresh {
		e := s.pop()
		if s.best[e.key] != e.end {
			continue // stale: superseded by a later dominant region
		}
		f(e.key)
		s.scratch = append(s.scratch, e)
	}
	for _, e := range s.scratch {
		s.push(e)
	}
}

// expire drops items with end < cutoff. Cutoffs must not decrease over the
// life of the set (select-narrow's candidate start values). The list drops
// its tail; the heap empties, back into the list state, once its top —
// always live, as a key's newest entry ends after its stale ones — has ended,
// and till then forEach passes over the ended entries.
func (s *activeSet) expire(cutoff int64) {
	if !s.heap {
		n := len(s.items)
		for n > 0 && s.items[n-1].end < cutoff {
			n--
		}
		s.items, s.floor = s.items[:n], cutoff
		return
	}
	if s.items[0].end < cutoff {
		s.items, s.heap, s.live, s.floor = s.items[:0], false, 0, cutoff
	}
}

// len returns the number of live items.
func (s *activeSet) len() int {
	if s.heap {
		return s.live
	}
	return len(s.items)
}

// single returns the one live item when exactly one is live.
func (s *activeSet) single() (key int32, end int64, ok bool) {
	if s.len() != 1 {
		return 0, 0, false
	}
	return s.items[0].key, s.items[0].end, true
}

func (s *activeSet) push(e activeEntry) {
	s.items = append(s.items, e)
	i := len(s.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.items[p].end >= s.items[i].end {
			break
		}
		s.items[p], s.items[i] = s.items[i], s.items[p]
		i = p
	}
}

func (s *activeSet) pop() activeEntry {
	top := s.items[0]
	last := len(s.items) - 1
	s.items[0] = s.items[last]
	s.items = s.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(s.items) && s.items[l].end > s.items[big].end {
			big = l
		}
		if r < len(s.items) && s.items[r].end > s.items[big].end {
			big = r
		}
		if big == i {
			break
		}
		s.items[i], s.items[big] = s.items[big], s.items[i]
		i = big
	}
	return top
}
