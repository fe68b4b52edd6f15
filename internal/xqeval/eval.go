package xqeval

import (
	"math"
	"sort"
	"strings"

	"soxq/internal/blob"
	"soxq/internal/core"
	"soxq/internal/obs"
	"soxq/internal/tree"
	"soxq/internal/xqast"
	"soxq/internal/xqplan"
)

// Evaluator is the per-run execution state for one compiled query: the
// immutable Plan (shared, cacheable, safe for any number of concurrent
// runs), the engine environment it executes against, the strategy knobs of
// one execution, and the mutable recursion depth. An Evaluator is cheap to
// construct; create a fresh one per Run — a single Evaluator must not be
// shared between goroutines or reused across runs.
type Evaluator struct {
	// Plan is the compiled query (function table, globals, folded body,
	// static StandOff step decisions, effective options).
	Plan *xqplan.Plan
	// Resolver loads a document for fn:doc.
	Resolver func(uri string) (*tree.Doc, error)
	// IndexFor returns the region index for a document under the plan's
	// stand-off options.
	IndexFor func(d *tree.Doc) (*core.RegionIndex, error)
	// BlobFor returns the BLOB a document's regions refer into (may return
	// nil); used by the so:blob-text extension function.
	BlobFor func(d *tree.Doc) blob.Store
	// Strategy picks the StandOff join algorithm (section 4.6 variants).
	// core.StrategyAuto defers the Basic vs Loop-Lifted choice to the
	// plan's per-step cost model, resolved against each region index's
	// statistics at first use; any other value forces that algorithm for
	// every step.
	Strategy core.Strategy
	// JoinCfg tunes the join (active-set structure, tracing).
	JoinCfg core.JoinConfig
	// Pushdown enables candidate-sequence pushdown of element name tests
	// into StandOff steps (section 3.3 (iii)); disabled it post-filters.
	Pushdown bool
	// Stats, when non-nil, collects the per-operator runtime counters
	// behind EXPLAIN ANALYZE (rows in/out, candidates scanned, join
	// algorithm run, FLWOR tuples). Nil disables collection; every record
	// call is nil-safe, so the hot paths pay one pointer check.
	Stats *xqplan.ExecStats
	// Cal is the engine-wide setup-cost calibration the strategy choices
	// price with; nil prices with the static default. Analyzed executions
	// feed it through Stats (ExecStats.Cal is the same pointer).
	Cal *xqplan.Calibration
	// Met is the engine-wide set of always-on metric counters (joins per
	// algorithm, work-steals, chunk adaptations). Unlike Stats it is live
	// on every execution, so recording must stay one nil check plus one
	// atomic add; nil disables it. Fork carries it over — worker forks feed
	// the same counters.
	Met *obs.ExecMetrics
	// MaxRecursion bounds user-defined function recursion.
	MaxRecursion int

	depth int

	// stepPres is the recycled per-context-node pre buffer of the tree
	// steps (single-goroutine, like the evaluator itself).
	stepPres []int32

	// genericPredicates makes every step predicate run as xqplan.PredGeneric;
	// tests set it to check the classified predicates against the evaluator.
	genericPredicates bool

	// seqs is the scoped scratch arena of the streaming pipeline (see
	// seqarena.go); nil outside a streaming run, in which case every
	// arena-aware helper allocates plainly.
	seqs *seqArena
}

// Run executes the compiled plan and returns the result sequence.
func (ev *Evaluator) Run() ([]Item, error) {
	if ev.JoinCfg.Arena == nil {
		ev.AttachArena()
		defer ev.DetachArena()
	}
	f, err := ev.NewRootFrame()
	if err != nil {
		return nil, err
	}
	out, err := ev.eval(ev.Plan.Body(), f)
	if err != nil {
		return nil, err
	}
	return out.Group(0), nil
}

// eval dispatches on the expression type. Every case returns an LLSeq with
// exactly f.n iterations.
func (ev *Evaluator) eval(e xqast.Expr, f *frame) (LLSeq, error) {
	switch v := e.(type) {
	case *xqast.StringLit:
		return ev.scrConstLL(f.n, Str(v.V)), nil
	case *xqast.IntLit:
		return ev.scrConstLL(f.n, Int(v.V)), nil
	case *xqast.FloatLit:
		return ev.scrConstLL(f.n, Float(v.V)), nil
	case *xqast.EmptySeq:
		return NewLL(f.n), nil
	case *xqast.VarRef:
		b := f.lookup(v.Name)
		if b == nil {
			return LLSeq{}, errf(codeUndefVar, "undeclared variable $%s", v.Name)
		}
		return ev.scrMaterialize(b), nil
	case *xqast.ContextItem:
		if f.ctx == nil {
			return LLSeq{}, errf(codeNoContext, "context item is absent")
		}
		return ev.scrMaterialize(f.ctx), nil
	case *xqast.Binary:
		return ev.evalBinary(v, f)
	case *xqast.Unary:
		return ev.evalUnary(v, f)
	case *xqast.IfExpr:
		return ev.evalIf(v, f)
	case *xqast.FLWOR:
		return ev.evalFLWOR(v, f)
	case *xqast.Quantified:
		return ev.evalQuantified(v, f)
	case *xqast.Path:
		return ev.evalPath(v, f)
	case *xqast.Filter:
		return ev.evalFilter(v, f)
	case *xqast.FuncCall:
		return ev.evalCall(v, f)
	case *xqast.DirectElem:
		return ev.evalDirectElem(v, f)
	case *xqast.ComputedElem:
		return ev.evalComputedElem(v, f)
	case *xqast.ComputedAttr:
		return ev.evalComputedAttr(v, f)
	case *xqast.ComputedText:
		return ev.evalComputedText(v, f)
	case *xqast.Enclosed:
		return ev.eval(v.X, f)
	default:
		return LLSeq{}, errf(codeType, "unsupported expression %T", e)
	}
}

func (ev *Evaluator) evalBinary(v *xqast.Binary, f *frame) (LLSeq, error) {
	switch v.Op {
	case ",":
		l, err := ev.eval(v.L, f)
		if err != nil {
			return LLSeq{}, err
		}
		r, err := ev.eval(v.R, f)
		if err != nil {
			return LLSeq{}, err
		}
		b := ev.scrBuilderCap(f.n, l.Total()+r.Total())
		for i := 0; i < f.n; i++ {
			b.add2(l.Group(i), r.Group(i))
		}
		return b.done(), nil
	case "and", "or":
		return ev.evalLogical(v, f)
	case "to":
		return ev.evalRange(v, f)
	case "+", "-", "*", "div", "idiv", "mod":
		return ev.evalArith(v, f)
	case "union", "intersect", "except":
		return ev.evalSetOp(v, f)
	case "is", "<<", ">>":
		return ev.evalNodeComp(v, f)
	case "eq", "ne", "lt", "le", "gt", "ge":
		return ev.evalValueComp(v, f)
	default: // general comparisons = != < <= > >=
		return ev.evalGeneralComp(v, f)
	}
}

func (ev *Evaluator) evalLogical(v *xqast.Binary, f *frame) (LLSeq, error) {
	l, err := ev.eval(v.L, f)
	if err != nil {
		return LLSeq{}, err
	}
	r, err := ev.eval(v.R, f)
	if err != nil {
		return LLSeq{}, err
	}
	b := ev.scrBuilderCap(f.n, f.n)
	for i := 0; i < f.n; i++ {
		lb, err := ebv(l.Group(i))
		if err != nil {
			return LLSeq{}, err
		}
		rb, err := ebv(r.Group(i))
		if err != nil {
			return LLSeq{}, err
		}
		if v.Op == "and" {
			b.add(Bool(lb && rb))
		} else {
			b.add(Bool(lb || rb))
		}
	}
	return b.done(), nil
}

func (ev *Evaluator) evalRange(v *xqast.Binary, f *frame) (LLSeq, error) {
	l, err := ev.eval(v.L, f)
	if err != nil {
		return LLSeq{}, err
	}
	r, err := ev.eval(v.R, f)
	if err != nil {
		return LLSeq{}, err
	}
	b := ev.scrBuilderCap(f.n, 0)
	for i := 0; i < f.n; i++ {
		lo, loOK, err := singletonInt(l.Group(i))
		if err != nil {
			return LLSeq{}, err
		}
		hi, hiOK, err := singletonInt(r.Group(i))
		if err != nil {
			return LLSeq{}, err
		}
		if !loOK || !hiOK || lo > hi {
			b.add()
			continue
		}
		if hi-lo >= RangeLimit {
			return LLSeq{}, ErrRangeTooLarge(lo, hi)
		}
		for x := lo; x <= hi; x++ {
			b.appendItem(Int(x))
		}
		b.endGroup()
	}
	return b.done(), nil
}

// singletonInt coerces a 0/1-item group to an integer; ok=false on empty.
func singletonInt(items []Item) (int64, bool, error) {
	if len(items) == 0 {
		return 0, false, nil
	}
	if len(items) > 1 {
		return 0, false, errf(codeType, "expected a single integer, got %d items", len(items))
	}
	// No Atomize: the default branch coerces nodes through NumericValue,
	// which parses attribute values from bytes without a string conversion.
	a := items[0]
	switch a.Kind {
	case KInt:
		return a.I, true, nil
	case KFloat:
		if a.F != math.Trunc(a.F) {
			return 0, false, errf(codeType, "expected an integer, got %v", a.F)
		}
		return int64(a.F), true, nil
	default:
		fv, ok := a.NumericValue()
		if !ok || fv != math.Trunc(fv) {
			return 0, false, errf(codeType, "expected an integer, got %q", a.StringValue())
		}
		return int64(fv), true, nil
	}
}

func (ev *Evaluator) evalArith(v *xqast.Binary, f *frame) (LLSeq, error) {
	l, err := ev.eval(v.L, f)
	if err != nil {
		return LLSeq{}, err
	}
	r, err := ev.eval(v.R, f)
	if err != nil {
		return LLSeq{}, err
	}
	b := ev.scrBuilderCap(f.n, f.n)
	for i := 0; i < f.n; i++ {
		lg, rg := l.Group(i), r.Group(i)
		if len(lg) == 0 || len(rg) == 0 {
			b.add()
			continue
		}
		if len(lg) > 1 || len(rg) > 1 {
			return LLSeq{}, errf(codeType, "arithmetic on a sequence of more than one item")
		}
		// Raw items go straight to arith: it only type-switches on KInt and
		// otherwise coerces via NumericValue, which parses attribute nodes
		// from their value bytes — no per-row untypedAtomic string.
		res, err := arith(v.Op, lg[0], rg[0])
		if err != nil {
			return LLSeq{}, err
		}
		b.add(res)
	}
	return b.done(), nil
}

func arith(op string, a, b Item) (Item, error) {
	// Integer fast path (div always yields a double, as xs:decimal).
	if a.Kind == KInt && b.Kind == KInt && op != "div" {
		x, y := a.I, b.I
		switch op {
		case "+":
			return Int(x + y), nil
		case "-":
			return Int(x - y), nil
		case "*":
			return Int(x * y), nil
		case "idiv":
			if y == 0 {
				return Item{}, errf(codeDivZero, "integer division by zero")
			}
			return Int(x / y), nil
		case "mod":
			if y == 0 {
				return Item{}, errf(codeDivZero, "modulus by zero")
			}
			return Int(x % y), nil
		}
	}
	x, okx := a.NumericValue()
	y, oky := b.NumericValue()
	if !okx || !oky {
		return Item{}, errf(codeType, "arithmetic on non-numeric value %q", pickBad(okx, a, b).StringValue())
	}
	switch op {
	case "+":
		return Float(x + y), nil
	case "-":
		return Float(x - y), nil
	case "*":
		return Float(x * y), nil
	case "div":
		if y == 0 {
			return Item{}, errf(codeDivZero, "division by zero")
		}
		return Float(x / y), nil
	case "idiv":
		if y == 0 {
			return Item{}, errf(codeDivZero, "integer division by zero")
		}
		return Int(int64(x / y)), nil
	case "mod":
		if y == 0 {
			return Item{}, errf(codeDivZero, "modulus by zero")
		}
		return Float(math.Mod(x, y)), nil
	}
	return Item{}, errf(codeType, "unknown arithmetic operator %q", op)
}

func pickBad(firstOK bool, a, b Item) Item {
	if firstOK {
		return b
	}
	return a
}

func (ev *Evaluator) evalUnary(v *xqast.Unary, f *frame) (LLSeq, error) {
	x, err := ev.eval(v.X, f)
	if err != nil {
		return LLSeq{}, err
	}
	b := ev.scrBuilderCap(f.n, f.n)
	for i := 0; i < f.n; i++ {
		g := x.Group(i)
		if len(g) == 0 {
			b.add()
			continue
		}
		if len(g) > 1 {
			return LLSeq{}, errf(codeType, "unary minus on a sequence")
		}
		a := g[0].Atomize()
		if !v.Neg {
			if a.Kind == KInt || a.Kind == KFloat {
				b.add(a)
				continue
			}
		}
		switch a.Kind {
		case KInt:
			b.add(Int(-a.I))
		case KFloat:
			b.add(Float(-a.F))
		default:
			fv, ok := a.NumericValue()
			if !ok {
				return LLSeq{}, errf(codeType, "unary minus on non-numeric %q", a.StringValue())
			}
			if v.Neg {
				fv = -fv
			}
			b.add(Float(fv))
		}
	}
	return b.done(), nil
}

// evalIf partitions the iterations by the condition's EBV and evaluates each
// branch only on its partition — the loop-lifted conditional that also
// guarantees recursive functions terminate (an empty partition skips the
// branch entirely).
func (ev *Evaluator) evalIf(v *xqast.IfExpr, f *frame) (LLSeq, error) {
	cond, err := ev.eval(v.Cond, f)
	if err != nil {
		return LLSeq{}, err
	}
	var thenIters, elseIters []int32
	for i := 0; i < f.n; i++ {
		bv, err := ebv(cond.Group(i))
		if err != nil {
			return LLSeq{}, err
		}
		if bv {
			thenIters = append(thenIters, int32(i))
		} else {
			elseIters = append(elseIters, int32(i))
		}
	}
	evalBranch := func(e xqast.Expr, iters []int32) (LLSeq, error) {
		if len(iters) == 0 {
			return NewLL(0), nil
		}
		return ev.eval(e, f.restrict(iters))
	}
	thenSeq, err := evalBranch(v.Then, thenIters)
	if err != nil {
		return LLSeq{}, err
	}
	elseSeq, err := evalBranch(v.Else, elseIters)
	if err != nil {
		return LLSeq{}, err
	}
	// Merge the partitions back into frame order.
	b := newLLBuilderCap(f.n, thenSeq.Total()+elseSeq.Total())
	ti, ei := 0, 0
	for i := 0; i < f.n; i++ {
		if ti < len(thenIters) && thenIters[ti] == int32(i) {
			b.add(thenSeq.Group(ti)...)
			ti++
		} else {
			b.add(elseSeq.Group(ei)...)
			ei++
		}
	}
	return b.done(), nil
}

func (ev *Evaluator) evalQuantified(v *xqast.Quantified, f *frame) (LLSeq, error) {
	seq, err := ev.eval(v.Seq, f)
	if err != nil {
		return LLSeq{}, err
	}
	inner, outerOf, varB := expandFor(seq)
	nf := f.expand(outerOf).bind(v.Var, varB)
	sat, err := ev.eval(v.Satisfies, nf)
	if err != nil {
		return LLSeq{}, err
	}
	result := make([]bool, f.n)
	for i := range result {
		result[i] = v.Every // every: vacuously true; some: vacuously false
	}
	for j := 0; j < inner; j++ {
		bv, err := ebv(sat.Group(j))
		if err != nil {
			return LLSeq{}, err
		}
		o := outerOf[j]
		if v.Every {
			result[o] = result[o] && bv
		} else {
			result[o] = result[o] || bv
		}
	}
	b := newLLBuilderCap(f.n, f.n)
	for i := 0; i < f.n; i++ {
		b.add(Bool(result[i]))
	}
	return b.done(), nil
}

// expandFor turns a binding sequence into for-loop scaffolding: the inner
// iteration count, the inner->outer mapping, and the loop variable binding
// (one item per inner iteration).
func expandFor(seq LLSeq) (inner int, outerOf []int32, varB *binding) {
	inner = seq.Total()
	outerOf = make([]int32, 0, inner)
	varSeq := LLSeq{Off: make([]int32, 1, inner+1), Items: seq.Items}
	for i := 0; i < seq.N(); i++ {
		for k := seq.Off[i]; k < seq.Off[i+1]; k++ {
			outerOf = append(outerOf, int32(i))
			varSeq.Off = append(varSeq.Off, k+1)
		}
	}
	return inner, outerOf, newBinding(varSeq)
}

// flworClauses applies a FLWOR's for/let clauses to f, returning the expanded
// tuple frame and the mapping from tuples back to f's iterations. The mapping
// is always non-decreasing: tuples expand in iteration order. A nil mapping
// means identity (no for clause expanded) — the executor's chunk tails hit
// this every chunk, so the identity is never materialised.
func (ev *Evaluator) flworClauses(clauses []xqast.Clause, f *frame) (*frame, []int32, error) {
	cur := f
	// rootOf maps the current tuple space back to f's iterations; nil is the
	// identity mapping.
	var rootOf []int32
	// Positional vars are bound as the tuples expand.
	for _, cl := range clauses {
		switch c := cl.(type) {
		case *xqast.ForClause:
			seq, err := ev.eval(c.Seq, cur)
			if err != nil {
				return nil, nil, err
			}
			inner, outerOf, varB := expandFor(seq)
			nf := cur.expand(outerOf).bind(c.Var, varB)
			if c.Pos != "" {
				posSeq := LLSeq{Off: make([]int32, 1, inner+1)}
				prev := int32(-1)
				var p int64
				for j := 0; j < inner; j++ {
					if outerOf[j] != prev {
						prev = outerOf[j]
						p = 0
					}
					p++
					posSeq.Items = append(posSeq.Items, Int(p))
					posSeq.Off = append(posSeq.Off, int32(len(posSeq.Items)))
				}
				nf = nf.bind(c.Pos, newBinding(posSeq))
			}
			rootOf = composeMap(rootOf, outerOf)
			cur = nf
		case *xqast.LetClause:
			seq, err := ev.eval(c.Seq, cur)
			if err != nil {
				return nil, nil, err
			}
			cur = ev.scrBindSeq(cur, c.Var, seq)
		}
	}
	return cur, rootOf, nil
}

// flworWhere filters the tuple frame by the where condition, composing the
// root mapping accordingly.
func (ev *Evaluator) flworWhere(where xqast.Expr, cur *frame, rootOf []int32) (*frame, []int32, error) {
	cond, err := ev.eval(where, cur)
	if err != nil {
		return nil, nil, err
	}
	var keep []int32
	for i := 0; i < cur.n; i++ {
		bv, err := ebv(cond.Group(i))
		if err != nil {
			return nil, nil, err
		}
		if bv {
			keep = append(keep, int32(i))
		}
	}
	return cur.restrict(keep), composeMap(rootOf, keep), nil
}

func (ev *Evaluator) evalFLWOR(v *xqast.FLWOR, f *frame) (LLSeq, error) {
	cur, rootOf, err := ev.flworClauses(v.Clauses, f)
	if err != nil {
		return LLSeq{}, err
	}
	tuples := int64(cur.n)
	// where: filter tuples.
	if v.Where != nil {
		cur, rootOf, err = ev.flworWhere(v.Where, cur, rootOf)
		if err != nil {
			return LLSeq{}, err
		}
	}
	// order by: stable sort of tuples within each root iteration.
	if len(v.OrderBy) > 0 {
		keys := make([][]Item, len(v.OrderBy))
		for k, spec := range v.OrderBy {
			keySeq, err := ev.eval(spec.Key, cur)
			if err != nil {
				return LLSeq{}, err
			}
			ks := make([]Item, cur.n)
			for i := 0; i < cur.n; i++ {
				g := keySeq.Group(i)
				if len(g) > 1 {
					return LLSeq{}, errf(codeType, "order by key is a sequence of %d items", len(g))
				}
				if len(g) == 0 {
					ks[i] = Item{Kind: ItemKind(255)} // marker for empty
				} else {
					ks[i] = g[0].Atomize()
				}
			}
			keys[k] = ks
		}
		perm := make([]int32, cur.n)
		for i := range perm {
			perm[i] = int32(i)
		}
		var sortErr error
		sort.SliceStable(perm, func(a, b int) bool {
			ia, ib := perm[a], perm[b]
			if ra, rb := rootAt(rootOf, int(ia)), rootAt(rootOf, int(ib)); ra != rb {
				return ra < rb
			}
			for k, spec := range v.OrderBy {
				ka, kb := keys[k][ia], keys[k][ib]
				c, err := orderCompare(ka, kb, spec.EmptyLeast)
				if err != nil && sortErr == nil {
					sortErr = err
				}
				if c == 0 {
					continue
				}
				if spec.Descending {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return LLSeq{}, sortErr
		}
		cur = cur.restrict(perm)
		rootOf = composeMap(rootOf, perm)
	}
	ret, err := ev.eval(v.Return, cur)
	if err != nil {
		return LLSeq{}, err
	}
	// Regroup tuple results back to the outer iterations. Tuples are in
	// iteration order (stable through restrict), so a single pass works, and
	// one outer iteration's tuple results are a contiguous range of ret.Items
	// — the regroup slices it out instead of accumulating a temporary.
	b := newLLBuilderCap(f.n, ret.Total())
	t := 0
	for i := 0; i < f.n; i++ {
		t0 := t
		for t < cur.n && rootAt(rootOf, t) == int32(i) {
			t++
		}
		b.add(ret.Items[ret.Off[t0]:ret.Off[t]]...)
	}
	out := b.done()
	ev.Stats.RecordOp(v, tuples, int64(out.Total()))
	return out, nil
}

// composeMap composes two iteration mappings: result[j] = outer[inner[j]].
// A nil outer is the identity, so the composition is inner itself (aliased —
// mappings are read-only once built).
func composeMap(outer []int32, inner []int32) []int32 {
	if outer == nil {
		return inner
	}
	out := make([]int32, len(inner))
	for j, o := range inner {
		out[j] = outer[o]
	}
	return out
}

// rootAt reads an iteration mapping with nil-as-identity semantics.
func rootAt(rootOf []int32, t int) int32 {
	if rootOf == nil {
		return int32(t)
	}
	return rootOf[t]
}

// orderCompare compares two atomized order-by keys. The 255 kind marks an
// empty key.
func orderCompare(a, b Item, emptyLeast bool) (int, error) {
	ae, be := a.Kind == ItemKind(255), b.Kind == ItemKind(255)
	switch {
	case ae && be:
		return 0, nil
	case ae:
		if emptyLeast {
			return -1, nil
		}
		return 1, nil
	case be:
		if emptyLeast {
			return 1, nil
		}
		return -1, nil
	}
	// Numeric if both coerce; otherwise string comparison.
	if isNumeric(a) || isNumeric(b) {
		x, okx := a.NumericValue()
		y, oky := b.NumericValue()
		if okx && oky {
			switch {
			case x < y:
				return -1, nil
			case x > y:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	return strings.Compare(a.StringValue(), b.StringValue()), nil
}

func isNumeric(a Item) bool { return a.Kind == KInt || a.Kind == KFloat }

// ebv computes the effective boolean value of one iteration's items.
func ebv(items []Item) (bool, error) {
	if len(items) == 0 {
		return false, nil
	}
	if items[0].IsNode() {
		return true, nil
	}
	if len(items) > 1 {
		return false, errf(codeEBV, "effective boolean value of a sequence of %d atomic items", len(items))
	}
	switch it := items[0]; it.Kind {
	case KBool:
		return it.B, nil
	case KInt:
		return it.I != 0, nil
	case KFloat:
		return it.F != 0 && !math.IsNaN(it.F), nil
	case KString, KUntyped:
		return len(it.S) > 0, nil
	default:
		return false, errf(codeEBV, "no effective boolean value for item kind %d", it.Kind)
	}
}
