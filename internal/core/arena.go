package core

import (
	"slices"
	"sync"
	"sync/atomic"
)

// JoinArena recycles the allocation-heavy scratch of the StandOff joins
// across invocations: []Pair outputs, the counting-sort offset and fill
// arrays of sortDedupPairs, the columns of a bulk context's Areas (and of
// its region rows over a multi-region index), the rows of the context sort,
// and the active sets. One arena belongs to exactly one execution run (one
// Exec/Stream drain); the evaluator threads it through JoinConfig and
// releases it when the run's cursor closes. Arenas are not goroutine-safe,
// and need not be: a run executes on the one goroutine that drains it.
//
// Ownership contract: the []Pair returned by JoinAreas or MatchAreas is on
// loan from the arena and stays valid only until the next join call with the
// same arena (which reclaims it); the Areas returned by ContextAreas stay
// valid until its next call with the arena. Every caller consumes them
// before joining again, so the loan is invisible above the core layer. A nil
// *JoinArena is valid everywhere and degrades to plain allocation.
type JoinArena struct {
	pairFree [][]Pair // recycled pair buffers (len 0, spare capacity)
	loaned   []Pair   // the last join result, reclaimed on the next join

	areas   Areas    // ContextAreas' columns
	regions Areas    // regionRows' columns
	ctxRows []ctxRow // the rows ContextAreas and regionRows sort
	ctxTmp  []ctxRow // sortCtxRows' other buffer
	csOff   []int32  // counting-sort bucket offsets
	csFill  []int32  // counting-sort fill positions

	active activeSet
}

// maxFreePairBufs bounds the free list; a join pipeline holds at most a
// handful of pair buffers at a time, so anything beyond this is leak-shaped.
const maxFreePairBufs = 8

var arenaPool = sync.Pool{New: func() any {
	arenaMisses.Add(1)
	return new(JoinArena)
}}

// arenaAcquires/arenaMisses are process-wide pool telemetry: every acquire
// counts, and the pool's New func counts the ones that had to allocate. The
// GC empties sync.Pools, so a nonzero steady-state miss rate under constant
// load is the pool being collected between runs, not a leak.
var (
	arenaAcquires atomic.Uint64
	arenaMisses   atomic.Uint64
)

// ArenaPoolStats returns the cumulative arena-pool hit and miss counts
// (acquires served from the pool vs freshly allocated), process-wide.
func ArenaPoolStats() (hits, misses uint64) {
	a, m := arenaAcquires.Load(), arenaMisses.Load()
	if m > a { // a racing acquire has bumped misses but not acquires yet
		m = a
	}
	return a - m, m
}

// AcquireJoinArena fetches an arena from the package pool. Pair it with
// Release when the run owning it ends.
func AcquireJoinArena() *JoinArena {
	arenaAcquires.Add(1)
	return arenaPool.Get().(*JoinArena)
}

// Release reclaims the loaned result and returns the arena to the package
// pool. The caller must not use the arena — or any []Pair borrowed from it —
// afterwards. Safe on a nil arena.
func (a *JoinArena) Release() {
	if a == nil {
		return
	}
	a.reclaim()
	arenaPool.Put(a)
}

// reclaim takes back the buffer loaned to the previous join caller.
func (a *JoinArena) reclaim() {
	if a == nil || a.loaned == nil {
		return
	}
	a.putPairs(a.loaned)
	a.loaned = nil
}

// loan records the buffer handed to the join caller so the next join (or
// Release) can recycle it.
func (a *JoinArena) loan(p []Pair) {
	if a != nil {
		a.loaned = p
	}
}

// getPairs pops a recycled pair buffer (length 0), or returns nil so the
// caller grows a fresh one.
func (a *JoinArena) getPairs() []Pair {
	if a == nil || len(a.pairFree) == 0 {
		return nil
	}
	n := len(a.pairFree) - 1
	b := a.pairFree[n]
	a.pairFree[n] = nil
	a.pairFree = a.pairFree[:n]
	return b
}

// getPairsCap returns an empty pair buffer with at least the given capacity.
func (a *JoinArena) getPairsCap(c int) []Pair {
	b := a.getPairs()
	if cap(b) < c {
		return make([]Pair, 0, c)
	}
	return b
}

// getPairsLen returns a pair buffer of exactly the given length (contents
// arbitrary — the caller overwrites every slot).
func (a *JoinArena) getPairsLen(n int) []Pair {
	return a.getPairsCap(n)[:n]
}

// putPairs recycles a pair buffer. The caller must hold no other alias.
func (a *JoinArena) putPairs(p []Pair) {
	if a == nil || cap(p) == 0 || len(a.pairFree) >= maxFreePairBufs {
		return
	}
	a.pairFree = append(a.pairFree, p[:0])
}

// getCtxRows returns an empty ctxRow buffer with capacity for n rows. The
// buffer is valid until the next getCtxRows call on this arena.
func (a *JoinArena) getCtxRows(n int) []ctxRow {
	if a == nil {
		return make([]ctxRow, 0, n)
	}
	if cap(a.ctxRows) < n {
		a.ctxRows = make([]ctxRow, 0, n)
	}
	return a.ctxRows[:0]
}

// putCtxRows stores the (possibly regrown) row buffer back for reuse.
func (a *JoinArena) putCtxRows(rows []ctxRow) {
	if a != nil {
		a.ctxRows = rows
	}
}

// getCtxTmp returns a ctxRow buffer of length n with arbitrary contents (the
// radix scratch of sortCtxRows); putCtxTmp stores back whichever of the two
// row buffers the sort ended up not returning.
func (a *JoinArena) getCtxTmp(n int) []ctxRow {
	if a == nil || cap(a.ctxTmp) < n {
		return make([]ctxRow, n)
	}
	return a.ctxTmp[:n]
}

func (a *JoinArena) putCtxTmp(rows []ctxRow) {
	if a != nil {
		a.ctxTmp = rows
	}
}

// getAreas returns Areas columns of n areas with arbitrary contents, Iter
// only when asked for: regionRows' buffer when regions is set, ContextAreas'
// otherwise, valid until the next getAreas call for the same buffer.
func (a *JoinArena) getAreas(n int, iters, regions bool) Areas {
	b := &Areas{}
	switch {
	case a != nil && regions:
		b = &a.regions
	case a != nil:
		b = &a.areas
	}
	b.Start, b.End, b.Pre = slices.Grow(b.Start[:0], n), slices.Grow(b.End[:0], n), slices.Grow(b.Pre[:0], n)
	out := Areas{Start: b.Start[:n], End: b.End[:n], Pre: b.Pre[:n]}
	if iters {
		b.Iter = slices.Grow(b.Iter[:0], n)
		out.Iter = b.Iter[:n]
	}
	return out
}

// getOff returns a zeroed int32 buffer of length n (counting-sort offsets).
func (a *JoinArena) getOff(n int) []int32 {
	var b []int32
	if a != nil {
		b = a.csOff
	}
	if cap(b) < n {
		b = make([]int32, n)
	} else {
		b = b[:n]
		clear(b)
	}
	if a != nil {
		a.csOff = b
	}
	return b
}

// getFill returns an int32 buffer of length n with arbitrary contents
// (counting-sort fill positions — the caller copies the offsets in).
func (a *JoinArena) getFill(n int) []int32 {
	var b []int32
	if a != nil {
		b = a.csFill
	}
	if cap(b) < n {
		b = make([]int32, n)
	} else {
		b = b[:n]
	}
	if a != nil {
		a.csFill = b
	}
	return b
}
