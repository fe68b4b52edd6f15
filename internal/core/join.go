package core

import (
	"fmt"
	"slices"
	"sort"
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
	// StrategyAuto is not an algorithm: it asks the evaluator to resolve
	// the Basic vs Loop-Lifted choice per step from the region index
	// statistics (the planner's cost model). Join treats it as
	// StrategyLoopLifted should it ever reach the join layer unresolved.
	StrategyAuto
)

func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategyBasic:
		return "basic"
	case StrategyLoopLifted:
		return "looplifted"
	case StrategyAuto:
		return "auto"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// CtxNode is one context item of a loop-lifted StandOff step: node Pre bound
// in iteration Iter. The paper's iter|start|end context table is derived
// from these by fetching each node's regions from the index.
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
	// UseHeap replaces the sorted active list by the max-heap suggested in
	// the paper's section 5 (future work; see the ablation benchmarks).
	UseHeap bool
	// Trace receives execution events (Figure 4); nil disables tracing.
	Trace Tracer
	// Arena recycles join scratch and output buffers across invocations
	// within one execution run; nil disables recycling. See JoinArena for
	// the ownership contract of the returned pairs.
	Arena *JoinArena
}

// Join evaluates one StandOff join. ctx holds the context nodes of all
// iterations (any order); nIters is the iteration count (every ctx.Iter must
// be < nIters); cand is the candidate sequence. The result is sorted by
// (Iter, Pre) and duplicate-free. Context nodes that are not
// area-annotations simply produce no matches.
//
// With cfg.Arena set, the returned slice is borrowed from the arena and is
// valid only until the next Join call carrying the same arena.
func Join(ix *RegionIndex, op Op, strat Strategy, ctx []CtxNode, nIters int32, cand *Candidates, cfg JoinConfig) []Pair {
	cfg.Arena.reclaim()
	var out []Pair
	switch strat {
	case StrategyNaive:
		out = joinNaive(ix, op, ctx, nIters, cand)
	case StrategyBasic:
		out = joinBasic(ix, op, ctx, nIters, cand, cfg)
	default:
		out = joinLoopLifted(ix, op, ctx, nIters, cand, cfg)
	}
	cfg.Arena.loan(out)
	return out
}

// ctxRow is one region of a context area in the iter|start|end table.
type ctxRow struct {
	key        int32 // iteration, or pseudo-iteration in exact-narrow mode
	start, end int64
}

// buildCtxRows fetches the regions of every context node and reports whether
// any context area is multi-region. When pseudoKeys is true each ctx entry
// becomes its own key (exact containment needs to know *which* context area
// matched); pseudoToIter maps keys back to iterations.
func buildCtxRows(ix *RegionIndex, ctx []CtxNode, pseudoKeys bool, a *JoinArena) (rows []ctxRow, pseudoToIter []int32, multi bool) {
	rows = a.getCtxRows(len(ctx))
	if pseudoKeys {
		pseudoToIter = a.getPseudo(len(ctx))
	}
	for _, cn := range ctx {
		regs := ix.RegionsOf(cn.Pre)
		if regs == nil {
			continue
		}
		if len(regs) > 1 {
			multi = true
		}
		key := cn.Iter
		if pseudoKeys {
			key = int32(len(pseudoToIter))
			pseudoToIter = append(pseudoToIter, cn.Iter)
		}
		for _, r := range regs {
			rows = append(rows, ctxRow{key: key, start: r.Start, end: r.End})
		}
	}
	rows = sortCtxRows(rows, a)
	a.putCtxRows(rows)
	if pseudoKeys {
		a.putPseudo(pseudoToIter)
	}
	return rows, pseudoToIter, multi
}

// sortCtxRows orders the context table by (start, end) and returns it,
// possibly in the arena's other row buffer. Like sortByPre: nothing to do for
// rows that arrive ordered (a context in document order over a document
// written in position order), the comparison sort for a short table, else an
// LSD radix sort over the bytes of start that vary, equal starts then put in
// end order.
func sortCtxRows(rows []ctxRow, a *JoinArena) []ctxRow {
	cmpRows := func(x, y ctxRow) int {
		if x.start != y.start {
			return cmpI64(x.start, y.start)
		}
		return cmpI64(x.end, y.end)
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

// ctxHasMultiRegion reports whether any context node is a multi-region area.
func ctxHasMultiRegion(ix *RegionIndex, ctx []CtxNode) bool {
	if !ix.multiRegion {
		return false
	}
	for _, cn := range ctx {
		if regs := ix.RegionsOf(cn.Pre); len(regs) > 1 {
			return true
		}
	}
	return false
}

func newActiveSet(nKeys int32, cfg JoinConfig) activeSet {
	if a := cfg.Arena; a != nil {
		if cfg.UseHeap {
			return a.heap.reset(nKeys)
		}
		return a.list.reset(nKeys)
	}
	if cfg.UseHeap {
		return newHeapActive(nKeys)
	}
	return newListActive(nKeys)
}

// joinLoopLifted is the entry point of the Loop-Lifted StandOff MergeJoin.
func joinLoopLifted(ix *RegionIndex, op Op, ctx []CtxNode, nIters int32, cand *Candidates, cfg JoinConfig) []Pair {
	a := cfg.Arena
	var matched []Pair
	switch op {
	case SelectNarrow, RejectNarrow:
		matched = matchNarrow(ix, ctx, cand, cfg, false)
	case SelectWide, RejectWide:
		matched = matchWide(ix, ctx, cand, cfg)
	}
	sortDedupPairs(&matched, a)
	if op == RejectNarrow || op == RejectWide {
		out := complement(matched, nIters, cand.AreaPres(), a)
		a.putPairs(matched)
		return out
	}
	return matched
}

// matchNarrow computes the containment semi-join pairs (unsorted, possibly
// with duplicates in exact mode). fullScan forces visiting every candidate
// row (Basic behaviour: no early break).
func matchNarrow(ix *RegionIndex, ctx []CtxNode, cand *Candidates, cfg JoinConfig, fullScan bool) []Pair {
	if ctxHasMultiRegion(ix, ctx) {
		return matchNarrowExact(ix, ctx, cand, cfg, fullScan)
	}
	// Fast path: every context area is a single region, so containment of a
	// candidate area reduces to containment of its bounding region, and one
	// dominant context region per iteration is exact.
	rows, _, _ := buildCtxRows(ix, ctx, false, cfg.Arena)
	nKeys := int32(0)
	for _, r := range rows {
		if r.key+1 > nKeys {
			nKeys = r.key + 1
		}
	}
	as := newActiveSet(nKeys, cfg)
	tr := cfg.Trace
	emit := emitState{out: cfg.Arena.getPairs()}
	i := 0
	bStart, bEnd, bID := cand.boundsCols()
	for k := 0; k < len(bID); k++ {
		cs := bStart[k]
		for i < len(rows) && rows[i].start <= cs {
			if as.insert(rows[i].key, rows[i].end) {
				if tr != nil {
					tr(TraceEvent{Kind: "add-context", Key: rows[i].key, End: rows[i].end})
				}
			} else if tr != nil {
				tr(TraceEvent{Kind: "skip-context", Key: rows[i].key, End: rows[i].end})
			}
			i++
		}
		as.expire(cs)
		if !fullScan && tr == nil && as.len() == 0 {
			// Empty staircase: nothing can emit until the next context region
			// enters, so fast-forward to the first candidate that admits it
			// (rows[i].start > cs here — the merge loop above consumed every
			// earlier row). With the context exhausted this is the early
			// break. Tracing keeps the plain per-candidate walk so the event
			// stream (skip-candidate per candidate) stays byte-identical.
			if i == len(rows) {
				break
			}
			next := rows[i].start
			lo := k + 1
			k = lo + sort.Search(len(bID)-lo, func(j int) bool { return bStart[lo+j] >= next }) - 1
			continue
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
		if !fullScan && i == len(rows) && as.maxEnd() < cs {
			if tr != nil {
				tr(TraceEvent{Kind: "break"})
			}
			break // no remaining candidate can be contained (section 4.5, lines 37-38)
		}
	}
	return emit.out
}

// emitState collects join output through a single reusable closure so the
// merge loops do not allocate one closure per candidate row.
type emitState struct {
	out []Pair
	pre int32
	cb  func(key int32)
}

func (e *emitState) callback() func(key int32) {
	if e.cb == nil {
		e.cb = func(key int32) {
			e.out = append(e.out, Pair{Iter: key, Pre: e.pre})
		}
	}
	return e.cb
}

// matchNarrowExact handles multi-region context areas: each context area
// becomes its own pseudo-iteration, the join runs at region granularity, and
// a candidate matches a context area only if *all* its regions were matched
// by that same area (the paper's omitted post-processing, section 4.5).
func matchNarrowExact(ix *RegionIndex, ctx []CtxNode, cand *Candidates, cfg JoinConfig, fullScan bool) []Pair {
	a := cfg.Arena
	rows, pseudoToIter, _ := buildCtxRows(ix, ctx, true, a)
	as := newActiveSet(int32(len(pseudoToIter)), cfg)
	emit := emitState{out: a.getPairs()}
	i := 0
	rStart, rEnd, rID := cand.regionCols()
	for k := 0; k < len(rID); k++ {
		cs := rStart[k]
		for i < len(rows) && rows[i].start <= cs {
			as.insert(rows[i].key, rows[i].end)
			i++
		}
		as.expire(cs)
		if !fullScan && as.len() == 0 {
			if i == len(rows) {
				break
			}
			next := rows[i].start
			lo := k + 1
			k = lo + sort.Search(len(rID)-lo, func(j int) bool { return rStart[lo+j] >= next }) - 1
			continue
		}
		emit.pre = rID[k]
		as.forEach(rEnd[k], emit.callback())
		if !fullScan && i == len(rows) && as.maxEnd() < cs {
			break
		}
	}
	// Aggregate: a candidate area qualifies for a pseudo-iteration when the
	// number of matched regions equals its region count.
	hits := sortPairs(emit.out, a)
	out := a.getPairs()
	for s := 0; s < len(hits); {
		e := s
		for e < len(hits) && hits[e] == hits[s] {
			e++
		}
		// Regions of one candidate are distinct rows, so equal (key,pre)
		// hits count matched regions of that candidate.
		if int32(e-s) == ix.regionCount(hits[s].Pre) {
			out = append(out, Pair{Iter: pseudoToIter[hits[s].Iter], Pre: hits[s].Pre})
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
// overlap test only constrains start from above and end from below.
func matchWide(ix *RegionIndex, ctx []CtxNode, cand *Candidates, cfg JoinConfig) []Pair {
	rows, _, _ := buildCtxRows(ix, ctx, false, cfg.Arena)
	nKeys := int32(0)
	for _, r := range rows {
		if r.key+1 > nKeys {
			nKeys = r.key + 1
		}
	}
	as := newActiveSet(nKeys, cfg)
	emit := emitState{out: cfg.Arena.getPairs()}
	i := 0
	eStart, eEnd, eID := cand.endCols()
	for k := 0; k < len(eID); k++ {
		ce := eEnd[k]
		for i < len(rows) && rows[i].start <= ce {
			as.insert(rows[i].key, rows[i].end)
			i++
		}
		if as.len() == 0 {
			// Nothing active (no context region admitted yet — matchWide
			// never removes entries, so this only holds on the leading
			// candidate run): fast-forward to the first candidate whose end
			// reaches the next context region's start.
			if i == len(rows) {
				break
			}
			next := rows[i].start
			lo := k + 1
			k = lo + sort.Search(len(eID)-lo, func(j int) bool { return eEnd[lo+j] >= next }) - 1
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

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// sortDedupPairs sorts pairs by (Iter, Pre) and removes duplicates.
func sortDedupPairs(pairs *[]Pair, a *JoinArena) {
	p := sortPairs(*pairs, a)
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
func sortPairs(p []Pair, a *JoinArena) []Pair {
	if len(p) < 64 {
		sortPairsDirect(p)
		return p
	}
	maxIter := int32(0)
	for _, x := range p {
		if x.Iter > maxIter {
			maxIter = x.Iter
		}
	}
	if int(maxIter) >= 4*len(p) { // too sparse for the counting sort to pay off
		sortPairsDirect(p)
		return p
	}
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
	// The input buffer has been dealt out; each bucket borrows its own range
	// of it as radix scratch.
	for i := int32(0); i <= maxIter; i++ {
		sortByPre(sorted[off[i]:off[i+1]], p[off[i]:off[i+1]])
	}
	a.putPairs(p)
	return sorted
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
func joinBasic(ix *RegionIndex, op Op, ctx []CtxNode, nIters int32, cand *Candidates, cfg JoinConfig) []Pair {
	a := cfg.Arena
	byIter := make([][]CtxNode, nIters)
	for _, cn := range ctx {
		byIter[cn.Iter] = append(byIter[cn.Iter], cn)
	}
	all := a.getPairs()
	local := a.getCtxNodes(len(ctx))
	for iter := int32(0); iter < nIters; iter++ {
		group := byIter[iter]
		// Remap the group to a single iteration and run the full merge.
		local = local[:0]
		for _, cn := range group {
			local = append(local, CtxNode{Iter: 0, Pre: cn.Pre})
		}
		var matched []Pair
		switch op {
		case SelectNarrow, RejectNarrow:
			matched = matchNarrow(ix, local, cand, cfg, true)
		default:
			matched = matchWide(ix, local, cand, cfg)
		}
		sortDedupPairs(&matched, a)
		if op == RejectNarrow || op == RejectWide {
			comp := complement(matched, 1, cand.AreaPres(), a)
			a.putPairs(matched)
			matched = comp
		}
		for _, p := range matched {
			all = append(all, Pair{Iter: iter, Pre: p.Pre})
		}
		a.putPairs(matched)
	}
	a.putCtxNodes(local)
	return all
}

// joinNaive evaluates the join exactly like the XQuery functions of Figures
// 2 and 3: per iteration, a nested loop compares every context area with
// every candidate area.
func joinNaive(ix *RegionIndex, op Op, ctx []CtxNode, nIters int32, cand *Candidates) []Pair {
	byIter := make([][]CtxNode, nIters)
	for _, cn := range ctx {
		byIter[cn.Iter] = append(byIter[cn.Iter], cn)
	}
	areas := cand.AreaPres()
	var out []Pair
	for iter := int32(0); iter < nIters; iter++ {
		for _, pre := range areas {
			candArea, ok := ix.AreaOf(pre)
			if !ok {
				continue
			}
			match := false
			for _, cn := range byIter[iter] {
				ctxArea, ok := ix.AreaOf(cn.Pre)
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
