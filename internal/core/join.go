package core

import (
	"cmp"
	"fmt"
	"slices"
)

// Op selects one of the four StandOff joins of section 3.1.
type Op int

const (
	// SelectNarrow returns candidates contained by some context area
	// (containment semi-join).
	SelectNarrow Op = iota
	// SelectWide returns candidates overlapping some context area
	// (overlap semi-join).
	SelectWide
	// RejectNarrow returns candidates not contained in any context area
	// (containment anti-join).
	RejectNarrow
	// RejectWide returns candidates not overlapping any context area
	// (overlap anti-join).
	RejectWide
)

func (op Op) String() string {
	switch op {
	case SelectNarrow:
		return "select-narrow"
	case SelectWide:
		return "select-wide"
	case RejectNarrow:
		return "reject-narrow"
	case RejectWide:
		return "reject-wide"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Strategy selects the evaluation algorithm, mirroring the three variants of
// the paper's section 4.6 experiment.
type Strategy int

const (
	// StrategyNaive evaluates the join as a quadratic nested loop per
	// iteration — the cost model of the Figure 2/3 XQuery functions.
	StrategyNaive Strategy = iota
	// StrategyBasic runs the Basic StandOff MergeJoin (section 4.4) once
	// per iteration; every invocation scans the candidate sequence anew.
	StrategyBasic
	// StrategyLoopLifted runs the Loop-Lifted StandOff MergeJoin
	// (section 4.5): a single pass over context and candidates computes
	// the join for all iterations at once.
	StrategyLoopLifted
)

func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategyBasic:
		return "basic"
	case StrategyLoopLifted:
		return "looplifted"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// CtxNode is one context item of a loop-lifted StandOff step, node Pre bound
// in iteration Iter: Join's form of a context, which it resolves to Areas.
type CtxNode struct {
	Iter int32
	Pre  int32
}

// Pair is one result row: candidate node Pre matches in iteration Iter.
// Join results are sorted by (Iter, Pre) and duplicate-free — node sequences
// in document order per iteration, as XPath steps require.
type Pair struct {
	Iter int32
	Pre  int32
}

// TraceEvent reports one step of the merge join for diagnostics and for the
// paper's Figure 4 execution-trace reproduction.
type TraceEvent struct {
	Kind string // "add-context", "skip-context", "expire", "emit", "break"
	Key  int32  // iteration (or pseudo-iteration) of the context item
	Pre  int32  // candidate pre for "emit"
	End  int64  // region end for context events
}

// Tracer receives TraceEvents; nil disables tracing.
type Tracer func(TraceEvent)

// JoinConfig tunes the join execution.
type JoinConfig struct {
	// Trace receives execution events (Figure 4); nil disables tracing.
	Trace Tracer
	// Arena recycles join scratch and output buffers across invocations
	// within one execution run; nil disables recycling. See JoinArena for
	// the ownership contract of the returned pairs.
	Arena *JoinArena
}

// Join is JoinAreas over the context nodes ctx of all iterations (any
// order), resolved by ContextAreas: context nodes that are not
// area-annotations simply produce no matches.
func Join(ix *RegionIndex, op Op, strat Strategy, ctx []CtxNode, nIters int32, cand *Candidates, cfg JoinConfig) []Pair {
	pres, iters := make([]int32, len(ctx)), make([]int32, len(ctx))
	for i, cn := range ctx {
		pres[i], iters[i] = cn.Pre, cn.Iter
	}
	return JoinAreas(ix, op, strat, ix.ContextAreas(pres, iters, cfg.Arena), nIters, cand, cfg)
}

// JoinAreas evaluates one StandOff join of the context ctx, whose areas lie
// in nIters iterations, against the candidate sequence cand. The result is
// sorted by (Iter, Pre) and duplicate-free.
//
// With cfg.Arena set, the returned slice is borrowed from the arena and is
// valid only until the next join call carrying the same arena.
func JoinAreas(ix *RegionIndex, op Op, strat Strategy, ctx Areas, nIters int32, cand *Candidates, cfg JoinConfig) []Pair {
	cfg.Arena.reclaim()
	var out []Pair
	switch strat {
	case StrategyNaive:
		out = joinNaive(ix, op, ctx, nIters, cand)
	case StrategyBasic:
		out = joinBasic(ix, op, ctx, nIters, cand, cfg)
	default:
		out = order(match(ix, op, ctx, nIters, cand, cfg, false), op, nIters, cand, cfg.Arena)
	}
	cfg.Arena.loan(out)
	return out
}

// Areas is a join's context given by its area-annotations rather than by
// node pres, so that a join over it looks no region up: area i is node
// Pre[i] bound in iteration Iter[i] (every area in iteration 0 when Iter is
// nil), covered by [Start[i], End[i]] (its first region's start and its last
// region's end), and the areas ascend by (Start, End) — the order of a
// candidate view's bounds rows. It is the iter|start|end table the merges
// read, as it is; only over an index with a multi-region area does a merge
// first expand it to one row per region (regionRows). An Areas may alias an
// index's columns: it is read-only.
type Areas struct {
	Start, End []int64
	Pre, Iter  []int32
}

// Len returns the number of areas.
func (a Areas) Len() int { return len(a.Pre) }

// key returns area i's iteration.
func (a Areas) key(i int) int32 {
	if a.Iter == nil {
		return 0
	}
	return a.Iter[i]
}

// Slice returns areas i through j-1.
func (a Areas) Slice(i, j int) Areas {
	s := Areas{Start: a.Start[i:j], End: a.End[i:j], Pre: a.Pre[i:j]}
	if a.Iter != nil {
		s.Iter = a.Iter[i:j]
	}
	return s
}

// groups returns a's areas grouped by iteration, each group in a's order,
// group i of nIters being g.Slice(off[i], off[i+1]); g has no Iter column.
func (a Areas) groups(nIters int32) (g Areas, off []int) {
	off = make([]int, nIters+1)
	if a.Iter == nil {
		for i := 1; i < len(off); i++ {
			off[i] = a.Len()
		}
		return a, off
	}
	for _, it := range a.Iter {
		off[it+1]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	g = Areas{Start: make([]int64, a.Len()), End: make([]int64, a.Len()), Pre: make([]int32, a.Len())}
	fill := slices.Clone(off)
	for i, it := range a.Iter {
		j := fill[it]
		fill[it]++
		g.Start[j], g.End[j], g.Pre[j] = a.Start[i], a.End[i], a.Pre[i]
	}
	return g, off
}

// MatchAreas is the match step of the Loop-Lifted StandOff MergeJoin alone:
// the pairs of op's select half (select-narrow for reject-narrow,
// select-wide for reject-wide), each once, in no set order. JoinAreas is this
// step, then the sort and, for a reject op, the complement. ctx is the
// context of one iteration, 0: its Iter column is nil or all 0. The returned
// slice is on loan from cfg.Arena like JoinAreas'.
func MatchAreas(ix *RegionIndex, op Op, ctx Areas, cand *Candidates, cfg JoinConfig) []Pair {
	cfg.Arena.reclaim()
	out := match(ix, op, ctx, 1, cand, cfg, false)
	cfg.Arena.loan(out)
	return out
}

// ctxRow is one row of the context sort: a context area, or one of its
// regions, with its key (iteration, or pseudo-iteration in exact-narrow
// mode).
type ctxRow struct {
	key        int32
	pre        int32
	start, end int64
}

// regionRows is the context table of ctx over an index with a multi-region
// area: one row per region of each area, from RegionsOf, ordered by
// sortCtxRows. A row's key (its Iter) is its area's iteration or, when exact
// is set, the area's index in ctx: exact containment needs to know *which*
// context area matched. This is the one copy of a context between its
// resolution and a merge; the rows are on loan from the arena until its next
// regionRows call.
func (ix *RegionIndex) regionRows(ctx Areas, exact bool, a *JoinArena) Areas {
	rows := a.getCtxRows(ctx.Len())
	for i, p := range ctx.Pre {
		key := ctx.key(i)
		if exact {
			key = int32(i)
		}
		for _, r := range ix.RegionsOf(p) {
			rows = append(rows, ctxRow{key: key, pre: p, start: r.Start, end: r.End})
		}
	}
	return sortedAreas(rows, exact || ctx.Iter != nil, true, a)
}

// sortedAreas orders rows by sortCtxRows and writes them out as the columns
// of an Areas on loan from the arena (regionRows' buffer when regions is
// set, ContextAreas' otherwise), with the keys as Iter when iters is set.
func sortedAreas(rows []ctxRow, iters, regions bool, a *JoinArena) Areas {
	rows = sortCtxRows(rows, a)
	out := a.getAreas(len(rows), iters, regions)
	start, end, pre := out.Start[:len(rows)], out.End[:len(rows)], out.Pre[:len(rows)]
	for j, r := range rows {
		start[j], end[j], pre[j] = r.start, r.end, r.pre
		if iters {
			out.Iter[j] = r.key
		}
	}
	a.putCtxRows(rows)
	return out
}

// sortCtxRows orders the context table by (start, end, key, pre) and returns
// it, possibly in the arena's other row buffer. Like sortByPre: nothing to do
// for rows that arrive ordered (a context in document order over a document
// written in position order), the comparison sort for a short table, else an
// LSD radix sort over the bytes of start that vary, equal starts then put in
// (end, key, pre) order.
func sortCtxRows(rows []ctxRow, a *JoinArena) []ctxRow {
	cmpRows := func(x, y ctxRow) int {
		switch {
		case x.start != y.start:
			return cmp.Compare(x.start, y.start)
		case x.end != y.end:
			return cmp.Compare(x.end, y.end)
		case x.key != y.key:
			return cmp.Compare(x.key, y.key)
		}
		return cmp.Compare(x.pre, y.pre)
	}
	if slices.IsSortedFunc(rows, cmpRows) {
		return rows
	}
	if len(rows) < radixMin {
		slices.SortFunc(rows, cmpRows)
		return rows
	}
	lo, hi := rows[0].start, rows[0].start
	for _, r := range rows {
		lo, hi = min(lo, r.start), max(hi, r.start)
	}
	src, dst := rows, a.getCtxTmp(len(rows))
	for shift := 0; uint64(hi-lo)>>shift != 0; shift += 8 {
		var pos [256]int32
		for _, r := range src {
			pos[uint8(uint64(r.start-lo)>>shift)]++
		}
		if pos[uint8(uint64(src[0].start-lo)>>shift)] == int32(len(src)) {
			continue // every start shares this byte
		}
		at := int32(0)
		for d, n := range pos {
			pos[d] = at
			at += n
		}
		for _, r := range src {
			d := uint8(uint64(r.start-lo) >> shift)
			dst[pos[d]] = r
			pos[d]++
		}
		src, dst = dst, src
	}
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j].start == src[i].start {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], cmpRows)
		}
		i = j
	}
	a.putCtxTmp(dst)
	return src
}

func newActiveSet(nKeys int32, a *JoinArena) *activeSet {
	if a != nil {
		return a.active.reset(nKeys)
	}
	return new(activeSet).reset(nKeys)
}

// narrow reports whether op is one of the containment joins.
func narrow(op Op) bool { return op == SelectNarrow || op == RejectNarrow }

// match computes the pairs of op's select half for the nKeys iterations of
// ctx, each once, in no set order. fullScan forces visiting every candidate
// row (Basic behaviour: no early break). Over an index with a multi-region
// area, containment is exact (pseudo-keyed) and overlap reads the context's
// regions. Only two shapes can match a (key, candidate) pair twice, and only
// they are sorted here: exact containment (two context areas of one
// iteration) and overlap with a multi-region candidate (two of its regions).
func match(ix *RegionIndex, op Op, ctx Areas, nKeys int32, cand *Candidates, cfg JoinConfig, fullScan bool) []Pair {
	var m []Pair
	switch {
	case narrow(op) && ix.MultiRegion():
		m = matchNarrowExact(ix, ctx, cand, cfg, fullScan)
	case narrow(op):
		emit := emitState{out: cfg.Arena.getPairs()}
		mergeNarrow(ctx, nKeys, cand, cfg, fullScan, &emit)
		return emit.out
	default:
		if ix.MultiRegion() {
			ctx = ix.regionRows(ctx, false, cfg.Arena)
		}
		if m = matchWide(ctx, nKeys, cand, cfg); len(cand.rID) == len(cand.areas) {
			return m
		}
	}
	sortDedupPairs(&m, cfg.Arena)
	return m
}

// order sorts matched select pairs by (Iter, Pre) and, for a reject op,
// turns them into its pairs: the complement over nIters iterations.
func order(matched []Pair, op Op, nIters int32, cand *Candidates, a *JoinArena) []Pair {
	sortDedupPairs(&matched, a)
	if op == RejectNarrow || op == RejectWide {
		out := complement(matched, nIters, cand.AreaPres(), a)
		a.putPairs(matched)
		return out
	}
	return matched
}

// mergeNarrow is match's containment fast path over an index whose areas
// are all single regions: containment of a candidate area reduces to
// containment of its bounding region, and one dominant context region per
// key is exact, so every (key, candidate) match reaches emit exactly once.
// It reads ctx's columns as they are, keyed by iteration, nKeys of them.
func mergeNarrow(ctx Areas, nKeys int32, cand *Candidates, cfg JoinConfig, fullScan bool, emit *emitState) {
	n := ctx.Len()
	as := newActiveSet(nKeys, cfg.Arena)
	tr := cfg.Trace
	i := 0
	bStart, bEnd, bID := cand.boundsCols()
	for k := 0; k < len(bID); k++ {
		cs := bStart[k]
		for i < n && ctx.Start[i] <= cs {
			key, end := ctx.key(i), ctx.End[i]
			if as.insert(key, end) {
				if tr != nil {
					tr(TraceEvent{Kind: "add-context", Key: key, End: end})
				}
			} else if tr != nil {
				tr(TraceEvent{Kind: "skip-context", Key: key, End: end})
			}
			i++
		}
		as.expire(cs)
		if !fullScan && tr == nil {
			// Basic pays the paper's full scan, and tracing walks candidate
			// by candidate so that the event stream stays byte-identical.
			if as.len() == 0 {
				// Empty staircase: skip to the next context row's start (> cs:
				// the loop above consumed every earlier row), or end.
				if i == n {
					break
				}
				k = gallop(bStart, k+1, ctx.Start[i]) - 1
				continue
			}
			if key, end, ok := as.single(); ok {
				// One context: it alone decides until the next row enters.
				lim := end
				if i < n {
					lim = min(lim, ctx.Start[i]-1)
				}
				k = emit.run(key, end, lim, bStart, bEnd, bID, k) - 1
				continue
			}
		}
		cid := bID[k]
		before := len(emit.out)
		emit.pre = cid
		as.forEach(bEnd[k], emit.callback())
		if tr != nil {
			if len(emit.out) > before {
				for _, p := range emit.out[before:] {
					tr(TraceEvent{Kind: "emit", Key: p.Iter, Pre: cid})
				}
			} else {
				tr(TraceEvent{Kind: "skip-candidate", Pre: cid})
			}
		}
		if !fullScan && i == n && as.len() == 0 {
			if tr != nil {
				tr(TraceEvent{Kind: "break"})
			}
			break // no remaining candidate can be contained (section 4.5, lines 37-38)
		}
	}
}

// emitState collects join output through a single reusable closure so the
// merge loops do not allocate one closure per candidate row. With red set,
// a match of candidate pre for key is reduced on the spot instead of
// becoming a Pair: counted in red[key], or, with first set, kept in red[key]
// when it is the key's smallest pre so far (a negative red[key] is none).
type emitState struct {
	out   []Pair
	red   []int32
	first bool
	pre   int32
	cb    func(key int32)
}

func (e *emitState) callback() func(key int32) {
	if e.cb == nil {
		switch {
		case e.red == nil:
			e.cb = func(key int32) { e.out = append(e.out, Pair{Iter: key, Pre: e.pre}) }
		case e.first:
			e.cb = func(key int32) {
				if r := e.red[key]; r < 0 || e.pre < r {
					e.red[key] = e.pre
				}
			}
		default:
			e.cb = func(key int32) { e.red[key]++ }
		}
	}
	return e.cb
}

// run emits, with one active context (key, end), the candidates from k on that
// start by lim and end by end, and returns the first candidate past lim. One
// loop per emit mode, so a candidate costs no call.
func (e *emitState) run(key int32, end, lim int64, bStart, bEnd []int64, bID []int32, k int) int {
	bEnd, bID = bEnd[:len(bStart)], bID[:len(bStart)]
	switch {
	case e.red == nil:
		for ; k < len(bStart) && bStart[k] <= lim; k++ {
			if bEnd[k] <= end {
				e.out = append(e.out, Pair{Iter: key, Pre: bID[k]})
			}
		}
	case e.first:
		r := e.red[key]
		for ; k < len(bStart) && bStart[k] <= lim; k++ {
			if bEnd[k] <= end && (r < 0 || bID[k] < r) {
				r = bID[k]
			}
		}
		e.red[key] = r
	default:
		n := e.red[key]
		for ; k < len(bStart) && bStart[k] <= lim; k++ {
			if bEnd[k] <= end {
				n++
			}
		}
		e.red[key] = n
	}
	return k
}

// gallop returns the first j >= lo with col[j] >= target (or len(col)) in an
// ascending col: it probes lo, lo+1, lo+3, lo+7, … and binary-searches the
// last step, so a skip of d rows costs O(log d) probes.
func gallop(col []int64, lo int, target int64) int {
	hi, step := lo, 1
	for hi < len(col) && col[hi] < target {
		lo, hi, step = hi+1, hi+step, step*2
	}
	j, _ := slices.BinarySearch(col[lo:min(hi, len(col))], target)
	testHookSkip()
	return lo + j
}

// testHookSkip is called once per gallop; tests count skips with it.
var testHookSkip = func() {}

// JoinReduce runs the Loop-Lifted select join op (SelectNarrow or
// SelectWide) for a consumer that reads one number per key instead of the
// pairs: with first unset it adds to out[key] how many candidates key
// matches; with first set it lowers out[key] to the smallest pre key matches,
// a negative out[key] standing for none. keep, when non-nil, drops the
// candidates it rejects first. Every ctx.Iter must be < len(out); out
// accumulates, so one out can gather the joins of several documents.
//
// The result equals reducing JoinAreas' pairs. For select-narrow over an
// index whose areas are all single regions the merge reduces each match as
// it emits it, with no pair buffer and no sort; every other shape reduces
// JoinAreas' sorted pairs.
func JoinReduce(ix *RegionIndex, op Op, ctx Areas, cand *Candidates, keep func(pre int32) bool, first bool, out []int32, cfg JoinConfig) {
	emit := &emitState{red: out, first: first}
	if op == SelectNarrow && keep == nil && cfg.Trace == nil && !ix.MultiRegion() {
		mergeNarrow(ctx, int32(len(out)), cand, cfg, false, emit)
		return
	}
	cb := emit.callback()
	for _, p := range JoinAreas(ix, op, StrategyLoopLifted, ctx, int32(len(out)), cand, cfg) {
		if keep == nil || keep(p.Pre) {
			emit.pre = p.Pre
			cb(p.Iter)
		}
	}
}

// matchNarrowExact is containment over an index with multi-region areas:
// each context area becomes its own pseudo-iteration, the join runs at
// region granularity, and a candidate matches a context area only if *all*
// its regions were matched by that same area (the paper's omitted
// post-processing, section 4.5).
func matchNarrowExact(ix *RegionIndex, ctx Areas, cand *Candidates, cfg JoinConfig, fullScan bool) []Pair {
	a := cfg.Arena
	rows := ix.regionRows(ctx, true, a)
	as := newActiveSet(int32(ctx.Len()), a)
	emit := emitState{out: a.getPairs()}
	i := 0
	rStart, rEnd, rID := cand.regionCols()
	for k := 0; k < len(rID); k++ {
		cs := rStart[k]
		for i < rows.Len() && rows.Start[i] <= cs {
			as.insert(rows.Iter[i], rows.End[i])
			i++
		}
		as.expire(cs)
		if !fullScan && as.len() == 0 {
			if i == rows.Len() {
				break
			}
			k = gallop(rStart, k+1, rows.Start[i]) - 1
			continue
		}
		emit.pre = rID[k]
		as.forEach(rEnd[k], emit.callback())
	}
	// Aggregate: a candidate area qualifies for a pseudo-iteration when the
	// number of matched regions equals its region count.
	hits, _ := sortPairs(emit.out, a)
	out := a.getPairs()
	for s := 0; s < len(hits); {
		e := s
		for e < len(hits) && hits[e] == hits[s] {
			e++
		}
		// Regions of one candidate are distinct rows, so equal (key,pre)
		// hits count matched regions of that candidate.
		if int32(e-s) == ix.regionCount(hits[s].Pre) {
			out = append(out, Pair{Iter: ctx.key(int(hits[s].Iter)), Pre: hits[s].Pre})
		}
		s = e
	}
	a.putPairs(hits)
	return out
}

// matchWide computes the overlap semi-join pairs (unsorted, may contain
// duplicates for multi-region candidates). Candidates are consumed in end
// order so that the context insertion threshold (ctx.start <= cand.end) is
// monotone; the per-iteration dominant context region is exact because the
// overlap test only constrains start from above and end from below. ctx is
// keyed by iteration, nKeys of them.
func matchWide(ctx Areas, nKeys int32, cand *Candidates, cfg JoinConfig) []Pair {
	n := ctx.Len()
	as := newActiveSet(nKeys, cfg.Arena)
	emit := emitState{out: cfg.Arena.getPairs()}
	i := 0
	eStart, eEnd, eID := cand.endCols()
	for k := 0; k < len(eID); k++ {
		ce := eEnd[k]
		for i < n && ctx.Start[i] <= ce {
			as.insert(ctx.key(i), ctx.End[i])
			i++
		}
		if as.len() == 0 {
			// Nothing active (no context region admitted yet — matchWide
			// never removes entries, so this only holds on the leading
			// candidate run): fast-forward to the first candidate whose end
			// reaches the next context region's start.
			if i == n {
				break
			}
			k = gallop(eEnd, k+1, ctx.Start[i]) - 1
			continue
		}
		emit.pre = eID[k]
		as.forEach(eStart[k], emit.callback())
	}
	return emit.out
}

// complement turns matched select pairs into reject pairs: per iteration,
// all candidate areas that were not matched. matched must be sorted by
// (Iter, Pre) and duplicate-free; areas is the candidate pre list in
// document order.
func complement(matched []Pair, nIters int32, areas []int32, a *JoinArena) []Pair {
	// The matched pairs are a sorted, duplicate-free subset of the
	// iteration × area grid, so the remainder count is the exact output
	// size. Clamp at zero so a contract-violating caller (duplicates in
	// matched) degrades to append growth instead of a negative-capacity
	// panic.
	want := int(nIters)*len(areas) - len(matched)
	if want < 0 {
		want = 0
	}
	out := a.getPairsCap(want)
	m := 0
	for iter := int32(0); iter < nIters; iter++ {
		for _, pre := range areas {
			if m < len(matched) && matched[m].Iter == iter && matched[m].Pre == pre {
				m++
				continue
			}
			out = append(out, Pair{Iter: iter, Pre: pre})
		}
	}
	return out
}

// sortDedupPairs sorts pairs by (Iter, Pre) and removes duplicates.
func sortDedupPairs(pairs *[]Pair, a *JoinArena) {
	p, strict := sortPairs(*pairs, a)
	if strict {
		*pairs = p
		return
	}
	out := p[:0]
	for i, pr := range p {
		if i == 0 || pr != p[i-1] {
			out = append(out, pr)
		}
	}
	*pairs = out
}

// sortPairs orders pairs by (Iter, Pre) and returns them, possibly in another
// arena buffer than the one passed in (which is then recycled). The joins emit
// in candidate order, so iterations arrive interleaved: large inputs are dealt
// to their iterations by a counting sort over the Iter column, and every
// iteration's bucket is then ordered by Pre in time linear in its length.
// Input already in order (as over disjoint contexts) comes back as it is, and
// strict reports whether it also held no pair twice.
func sortPairs(p []Pair, a *JoinArena) (sorted []Pair, strict bool) {
	if len(p) == 0 {
		return p, true
	}
	maxIter, ordered, dup := p[0].Iter, true, false
	for i, x := range p[1:] {
		prev := p[i]
		maxIter, ordered = max(maxIter, x.Iter), ordered && (prev.Iter < x.Iter || prev.Iter == x.Iter && prev.Pre <= x.Pre)
		dup = dup || prev == x
	}
	if ordered {
		return p, !dup
	}
	if len(p) < 64 || int(maxIter) >= 4*len(p) { // too short or sparse for the counting sort to pay off
		sortPairsDirect(p)
		return p, false
	}
	off := a.getOff(int(maxIter) + 2)
	for _, x := range p {
		off[x.Iter+1]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	sorted = a.getPairsLen(len(p))
	fill := a.getFill(int(maxIter) + 1)
	copy(fill, off[:len(off)-1])
	for _, x := range p {
		sorted[fill[x.Iter]] = x
		fill[x.Iter]++
	}
	// The input buffer has been dealt out; each bucket borrows its own range
	// of it as radix scratch.
	for i := int32(0); i <= maxIter; i++ {
		sortByPre(sorted[off[i]:off[i+1]], p[off[i]:off[i+1]])
	}
	a.putPairs(p)
	return sorted, false
}

// radixMin is the bucket length from which the radix sort beats the
// comparison sort (BenchmarkSortDedupPairs).
const radixMin = 64

// sortByPre orders one iteration's bucket by Pre: nothing to do for a bucket
// that arrives ordered (candidates of a document written in position order),
// the comparison sort for a short one, and otherwise an LSD radix sort over
// the bytes of Pre that vary, through tmp (same length as b).
func sortByPre(b, tmp []Pair) {
	ordered, maxPre := true, int32(0)
	for i, x := range b {
		if i > 0 && x.Pre < b[i-1].Pre {
			ordered = false
		}
		if x.Pre > maxPre {
			maxPre = x.Pre
		}
	}
	if ordered {
		return
	}
	if len(b) < radixMin {
		slices.SortFunc(b, func(x, y Pair) int { return int(x.Pre) - int(y.Pre) })
		return
	}
	src, dst := b, tmp
	for shift := 0; maxPre>>shift != 0; shift += 8 {
		var pos [256]int32
		for _, x := range src {
			pos[uint8(x.Pre>>shift)]++
		}
		if pos[uint8(src[0].Pre>>shift)] == int32(len(src)) {
			continue // every Pre shares this byte
		}
		at := int32(0)
		for d, n := range pos {
			pos[d] = at
			at += n
		}
		for _, x := range src {
			d := uint8(x.Pre >> shift)
			dst[pos[d]] = x
			pos[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &b[0] {
		copy(b, src)
	}
}

func sortPairsDirect(p []Pair) {
	slices.SortFunc(p, func(a, b Pair) int {
		if a.Iter != b.Iter {
			return int(a.Iter) - int(b.Iter)
		}
		return int(a.Pre) - int(b.Pre)
	})
}

// joinBasic evaluates the join with the Basic StandOff MergeJoin: the merge
// is re-run for every iteration, so every iteration pays a fresh scan of the
// candidate sequence (the behaviour that makes XMark Q2 DNF in Figure 6).
func joinBasic(ix *RegionIndex, op Op, ctx Areas, nIters int32, cand *Candidates, cfg JoinConfig) []Pair {
	a := cfg.Arena
	g, off := ctx.groups(nIters)
	all := a.getPairs()
	for iter := int32(0); iter < nIters; iter++ {
		// The group alone is a context of iteration 0: run the full merge.
		matched := order(match(ix, op, g.Slice(off[iter], off[iter+1]), 1, cand, cfg, true), op, 1, cand, a)
		for _, p := range matched {
			all = append(all, Pair{Iter: iter, Pre: p.Pre})
		}
		a.putPairs(matched)
	}
	return all
}

// joinNaive evaluates the join exactly like the XQuery functions of Figures
// 2 and 3: per iteration, a nested loop compares every context area with
// every candidate area.
func joinNaive(ix *RegionIndex, op Op, ctx Areas, nIters int32, cand *Candidates) []Pair {
	g, off := ctx.groups(nIters)
	areas := cand.AreaPres()
	var out []Pair
	for iter := int32(0); iter < nIters; iter++ {
		for _, pre := range areas {
			candArea, ok := ix.AreaOf(pre)
			if !ok {
				continue
			}
			match := false
			for _, ctxPre := range g.Pre[off[iter]:off[iter+1]] {
				ctxArea, ok := ix.AreaOf(ctxPre)
				if !ok {
					continue
				}
				var hit bool
				switch op {
				case SelectNarrow, RejectNarrow:
					hit = ctxArea.Contains(candArea)
				default:
					hit = ctxArea.Overlaps(candArea)
				}
				if hit {
					match = true
					break
				}
			}
			if match == (op == SelectNarrow || op == SelectWide) {
				out = append(out, Pair{Iter: iter, Pre: pre})
			}
		}
	}
	return out
}
