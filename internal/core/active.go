package core

import "math"

// activeSet holds the "active context items" of the StandOff MergeJoin
// (section 4.4/4.5): per key (an iteration, or a pseudo-iteration standing
// for one multi-region context area), the dominant context region seen so
// far. A region dominates another of the same key when it was inserted no
// later (hence its start is <=) and its end is >=: whenever the dominated
// region satisfies a join condition, the dominant one does too, so keeping
// one region per key is exact for the semi-join.
type activeSet interface {
	// insert offers a context region; dominated regions are ignored.
	// Returns whether the region was kept.
	insert(key int32, end int64) bool
	// forEach invokes f once per key whose dominant end is >= thresh.
	forEach(thresh int64, f func(key int32))
	// expire drops items with end < cutoff (the heap: once none is left
	// above). Only valid when cutoffs are non-decreasing over the life of the
	// set (select-narrow's candidate start values).
	expire(cutoff int64)
	// len returns the number of live items.
	len() int
	// single returns the one live item when exactly one is live.
	single() (key int32, end int64, ok bool)
}

type activeEntry struct {
	key int32
	end int64
}

// listActive is the paper's structure: a list of active items sorted
// descending on end, "from which we currently may delete elements in the
// middle – so it really is a list" (section 5). Tail entries expire as the
// candidate scan advances; a fresh dominant region for a key deletes the
// key's stale middle entry.
type listActive struct {
	items []activeEntry // sorted descending by end
	best  []int64       // per key: dominant end, MinInt64 when none
}

func newListActive(nKeys int32) *listActive {
	return (&listActive{}).reset(nKeys)
}

// reset reinitialises the set for nKeys keys, keeping the backing arrays —
// the arena-recycled construction path.
func (l *listActive) reset(nKeys int32) *listActive {
	if cap(l.best) < int(nKeys) {
		l.best = make([]int64, nKeys)
	}
	l.best = l.best[:nKeys]
	for i := range l.best {
		l.best[i] = math.MinInt64
	}
	l.items = l.items[:0]
	return l
}

func (l *listActive) insert(key int32, end int64) bool {
	old := l.best[key]
	if old >= end {
		return false // dominated by an earlier region of the same key
	}
	if old != math.MinInt64 {
		l.deleteEntry(key, old)
	}
	l.best[key] = end
	// Binary search for the first position whose end < end (descending).
	lo, hi := 0, len(l.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.items[mid].end >= end {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	l.items = append(l.items, activeEntry{})
	copy(l.items[lo+1:], l.items[lo:])
	l.items[lo] = activeEntry{key: key, end: end}
	return true
}

// deleteEntry removes the (key,end) entry if still present (it may have been
// expired from the tail already).
func (l *listActive) deleteEntry(key int32, end int64) {
	lo, hi := 0, len(l.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.items[mid].end > end {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(l.items) && l.items[i].end == end; i++ {
		if l.items[i].key == key {
			copy(l.items[i:], l.items[i+1:])
			l.items = l.items[:len(l.items)-1]
			return
		}
	}
}

func (l *listActive) forEach(thresh int64, f func(key int32)) {
	for _, it := range l.items {
		if it.end < thresh {
			return
		}
		f(it.key)
	}
}

func (l *listActive) expire(cutoff int64) {
	n := len(l.items)
	for n > 0 && l.items[n-1].end < cutoff {
		n--
	}
	l.items = l.items[:n]
}

func (l *listActive) len() int { return len(l.items) }

func (l *listActive) single() (int32, int64, bool) {
	if len(l.items) != 1 {
		return 0, 0, false
	}
	return l.items[0].key, l.items[0].end, true
}

// heapActive is the heap replacement suggested by the paper's section 5 for
// data distributions that let the active list grow long: a binary max-heap
// on end with lazy deletion of superseded entries. forEach pops matching
// entries and pushes the live ones back, so each emission costs O(log n)
// instead of the list's O(n) middle deletions and insert shifts.
type heapActive struct {
	heap    []activeEntry
	best    []int64
	live    int
	scratch []activeEntry
	floor   int64 // the cutoff that last emptied the heap: a best end below it is gone
}

func newHeapActive(nKeys int32) *heapActive {
	return (&heapActive{}).reset(nKeys)
}

// reset reinitialises the heap for nKeys keys, keeping the backing arrays.
func (h *heapActive) reset(nKeys int32) *heapActive {
	if cap(h.best) < int(nKeys) {
		h.best = make([]int64, nKeys)
	}
	h.best = h.best[:nKeys]
	for i := range h.best {
		h.best[i] = math.MinInt64
	}
	h.heap = h.heap[:0]
	h.scratch = h.scratch[:0]
	h.live, h.floor = 0, math.MinInt64
	return h
}

func (h *heapActive) insert(key int32, end int64) bool {
	if h.best[key] >= end {
		return false
	}
	if old := h.best[key]; old != math.MinInt64 && old >= h.floor {
		h.live-- // the old entry becomes stale in place
	}
	h.best[key] = end
	h.push(activeEntry{key: key, end: end})
	h.live++
	return true
}

func (h *heapActive) push(e activeEntry) {
	h.heap = append(h.heap, e)
	i := len(h.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.heap[p].end >= h.heap[i].end {
			break
		}
		h.heap[p], h.heap[i] = h.heap[i], h.heap[p]
		i = p
	}
}

func (h *heapActive) pop() activeEntry {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.heap) && h.heap[l].end > h.heap[big].end {
			big = l
		}
		if r < len(h.heap) && h.heap[r].end > h.heap[big].end {
			big = r
		}
		if big == i {
			break
		}
		h.heap[i], h.heap[big] = h.heap[big], h.heap[i]
		i = big
	}
	return top
}

func (h *heapActive) forEach(thresh int64, f func(key int32)) {
	h.scratch = h.scratch[:0]
	for len(h.heap) > 0 && h.heap[0].end >= thresh {
		e := h.pop()
		if h.best[e.key] != e.end {
			continue // stale: superseded by a later dominant region
		}
		f(e.key)
		h.scratch = append(h.scratch, e)
	}
	for _, e := range h.scratch {
		h.push(e)
	}
}

// expire empties the heap once its top, always live (a key's newest entry
// ends after its stale ones), ends before cutoff; till then forEach skips
// expired entries.
func (h *heapActive) expire(cutoff int64) {
	if len(h.heap) > 0 && h.heap[0].end < cutoff {
		h.heap, h.live, h.floor = h.heap[:0], 0, cutoff
	}
}

func (h *heapActive) len() int { return h.live }

func (h *heapActive) single() (int32, int64, bool) {
	if h.live != 1 {
		return 0, 0, false
	}
	return h.heap[0].key, h.heap[0].end, true
}
