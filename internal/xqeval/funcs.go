package xqeval

import (
	"math"
	"strings"

	"soxq/internal/blob"
	"soxq/internal/core"
	"soxq/internal/interval"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
	"soxq/internal/xqplan"
)

// evalCall dispatches function calls: the stand-off built-ins (Alternative 3
// of section 3.2), user-declared functions, and the fn: library.
func (ev *Evaluator) evalCall(v *xqast.FuncCall, f *frame) (LLSeq, error) {
	local := v.Name
	if i := strings.IndexByte(local, ':'); i >= 0 {
		local = local[i+1:]
	}
	// User-defined functions win on exact QName+arity.
	if fd, ok := ev.Plan.Function(v.Name, len(v.Args)); ok {
		return ev.callUDF(fd, v.Args, f)
	}
	if (local == "count" || local == "exists" || local == "empty") && len(v.Args) == 1 {
		if counts, ok, err := ev.pathCounts(v.Args[0], f); err != nil {
			return LLSeq{}, err
		} else if ok {
			b := ev.scrBuilderCap(f.n, f.n)
			for _, n := range counts {
				switch local {
				case "count":
					b.add(Int(int64(n)))
				case "exists":
					b.add(Bool(n > 0))
				default:
					b.add(Bool(n == 0))
				}
			}
			return b.done(), nil
		}
	}
	// StandOff built-ins (so:select-narrow etc., with or without candidate
	// sequence).
	if op, isSO := standOffFuncs[local]; isSO && (len(v.Args) == 1 || len(v.Args) == 2) {
		return ev.callStandOffFunc(op, v.Args, f)
	}
	args := make([]LLSeq, len(v.Args))
	for i, a := range v.Args {
		seq, err := ev.eval(a, f)
		if err != nil {
			return LLSeq{}, err
		}
		args[i] = seq
	}
	return ev.callBuiltin(v.Name, local, args, f)
}

var standOffFuncs = map[string]core.Op{
	"select-narrow": core.SelectNarrow,
	"select-wide":   core.SelectWide,
	"reject-narrow": core.RejectNarrow,
	"reject-wide":   core.RejectWide,
}

// callStandOffFunc implements the built-in function form of the StandOff
// joins. With one argument the candidates are all area-annotations of the
// context nodes' documents; with two, the second argument restricts them.
func (ev *Evaluator) callStandOffFunc(op core.Op, argExprs []xqast.Expr, f *frame) (LLSeq, error) {
	input, err := ev.eval(argExprs[0], f)
	if err != nil {
		return LLSeq{}, err
	}
	var candidates *LLSeq
	if len(argExprs) == 2 {
		c, err := ev.eval(argExprs[1], f)
		if err != nil {
			return LLSeq{}, err
		}
		candidates = &c
	}
	axis := map[core.Op]xpath.Axis{
		core.SelectNarrow: xpath.AxisSelectNarrow, core.SelectWide: xpath.AxisSelectWide,
		core.RejectNarrow: xpath.AxisRejectNarrow, core.RejectWide: xpath.AxisRejectWide,
	}[op]
	// The function form is an unrestricted axis step synthesised at run
	// time; CompileStep gives it the same compiled form module steps get.
	sp := xqplan.CompileStep(&xqast.Step{Axis: axis, Test: xpath.Test{Kind: xpath.TestAnyNode}})
	if candidates == nil {
		return ev.evalStep(sp, input, f)
	}
	// Candidate-sequence form: run the step unrestricted, then intersect
	// with the candidate node set per iteration (the node sets are small
	// compared to the index side, and semantics stay exact).
	full, err := ev.evalStep(sp, input, f)
	if err != nil {
		return LLSeq{}, err
	}
	b := newLLBuilder(f.n)
	for i := 0; i < f.n; i++ {
		cg := append([]Item{}, candidates.Group(i)...)
		for _, it := range cg {
			if !it.IsNode() {
				return LLSeq{}, errf(codeType, "candidate sequence contains an atomic value")
			}
		}
		cs := sortDedupNodes(cg)
		var out []Item
		for _, it := range full.Group(i) {
			if containsNode(cs, it) {
				out = append(out, it)
			}
		}
		b.add(out...)
	}
	return b.done(), nil
}

// callUDF evaluates a user-defined function loop-lifted: arguments become
// parameter bindings and the body is evaluated once for all iterations.
// Recursion terminates because if-partitioning skips empty branches.
func (ev *Evaluator) callUDF(fd *xqast.FunctionDecl, argExprs []xqast.Expr, f *frame) (LLSeq, error) {
	if ev.depth >= ev.MaxRecursion {
		return LLSeq{}, errf(codeRecursion, "recursion depth %d exceeded in %s", ev.MaxRecursion, fd.Name)
	}
	nf := newFrame(f.n)
	nf.vars = make([]varBind, 0, len(fd.Params))
	for i, p := range fd.Params {
		seq, err := ev.eval(argExprs[i], f)
		if err != nil {
			return LLSeq{}, err
		}
		nf.vars = append(nf.vars, varBind{p, newBinding(seq)})
	}
	ev.depth++
	out, err := ev.eval(fd.Body, nf)
	ev.depth--
	return out, err
}

// callBuiltin evaluates a built-in function on pre-evaluated arguments.
func (ev *Evaluator) callBuiltin(name, local string, args []LLSeq, f *frame) (LLSeq, error) {
	arity := len(args)
	bad := func() (LLSeq, error) {
		return LLSeq{}, errf(codeUndefFunc, "unknown function %s#%d", name, arity)
	}
	b := newLLBuilder(f.n)
	switch local {
	case "true":
		if arity != 0 {
			return bad()
		}
		return constLL(f.n, Bool(true)), nil
	case "false":
		if arity != 0 {
			return bad()
		}
		return constLL(f.n, Bool(false)), nil
	case "position":
		if arity != 0 {
			return bad()
		}
		if f.pos == nil {
			return LLSeq{}, errf(codeNoContext, "position() outside a predicate or path step")
		}
		for i := 0; i < f.n; i++ {
			b.add(Int(f.pos[i]))
		}
		return b.done(), nil
	case "last":
		if arity != 0 {
			return bad()
		}
		if f.last == nil {
			return LLSeq{}, errf(codeNoContext, "last() outside a predicate or path step")
		}
		for i := 0; i < f.n; i++ {
			b.add(Int(f.last[i]))
		}
		return b.done(), nil
	case "doc":
		if arity != 1 {
			return bad()
		}
		if ev.Resolver == nil {
			return LLSeq{}, errf(codeDocNotFound, "no document resolver configured")
		}
		for i := 0; i < f.n; i++ {
			g := args[0].Group(i)
			if len(g) == 0 {
				b.add()
				continue
			}
			uri := g[0].StringValue()
			d, err := ev.Resolver(uri)
			if err != nil {
				return LLSeq{}, errf(codeDocNotFound, "doc(%q): %v", uri, err)
			}
			b.add(NodeItem(d, 0))
		}
		return b.done(), nil
	case "root":
		if arity > 1 {
			return bad()
		}
		src := ev.contextOrArg(args, f)
		if src == nil {
			return LLSeq{}, errf(codeNoContext, "root() needs a context item")
		}
		for i := 0; i < f.n; i++ {
			var out []Item
			for _, it := range src.Group(i) {
				if !it.IsNode() {
					return LLSeq{}, errf(codeType, "root() of an atomic value")
				}
				out = append(out, NodeItem(it.D, it.D.FragmentRoot(it.Pre)))
			}
			b.add(sortDedupNodes(out)...)
		}
		return b.done(), nil
	case "count":
		if arity != 1 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			b.add(Int(int64(len(args[0].Group(i)))))
		}
		return b.done(), nil
	case "empty", "exists":
		if arity != 1 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			e := len(args[0].Group(i)) == 0
			if local == "exists" {
				e = !e
			}
			b.add(Bool(e))
		}
		return b.done(), nil
	case "not", "boolean":
		if arity != 1 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			bv, err := ebv(args[0].Group(i))
			if err != nil {
				return LLSeq{}, err
			}
			if local == "not" {
				bv = !bv
			}
			b.add(Bool(bv))
		}
		return b.done(), nil
	case "string":
		if arity > 1 {
			return bad()
		}
		src := ev.contextOrArg(args, f)
		if src == nil {
			return LLSeq{}, errf(codeNoContext, "string() needs a context item")
		}
		return mapSingleton(*src, f.n, true, func(it Item) (Item, error) {
			return Str(it.StringValue()), nil
		})
	case "data":
		if arity != 1 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			g := args[0].Group(i)
			out := make([]Item, len(g))
			for k, it := range g {
				out[k] = it.Atomize()
			}
			b.add(out...)
		}
		return b.done(), nil
	case "number":
		if arity > 1 {
			return bad()
		}
		src := ev.contextOrArg(args, f)
		if src == nil {
			return LLSeq{}, errf(codeNoContext, "number() needs a context item")
		}
		return mapSingleton(*src, f.n, false, func(it Item) (Item, error) {
			v, _ := it.NumericValue()
			return Float(v), nil
		})
	case "name", "local-name":
		if arity > 1 {
			return bad()
		}
		src := ev.contextOrArg(args, f)
		if src == nil {
			return LLSeq{}, errf(codeNoContext, "%s() needs a context item", local)
		}
		for i := 0; i < f.n; i++ {
			g := src.Group(i)
			if len(g) == 0 {
				b.add(Str("")) // fn:name(()) is ""
				continue
			}
			if len(g) > 1 {
				return LLSeq{}, errf(codeType, "%s() on a sequence of %d items", local, len(g))
			}
			var n string
			switch it := g[0]; it.Kind {
			case KNode:
				n = it.D.NodeName(it.Pre)
			case KAttr:
				n = it.D.AttrName(it.Att)
			default:
				return LLSeq{}, errf(codeType, "%s() on an atomic value", local)
			}
			if local == "local-name" {
				if i := strings.IndexByte(n, ':'); i >= 0 {
					n = n[i+1:]
				}
			}
			b.add(Str(n))
		}
		return b.done(), nil
	case "concat":
		if arity < 2 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			var sb strings.Builder
			for _, a := range args {
				g := a.Group(i)
				if len(g) > 1 {
					return LLSeq{}, errf(codeType, "concat() argument is a sequence")
				}
				if len(g) == 1 {
					sb.WriteString(g[0].StringValue())
				}
			}
			b.add(Str(sb.String()))
		}
		return b.done(), nil
	case "string-join":
		if arity != 2 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			sep := ""
			if g := args[1].Group(i); len(g) == 1 {
				sep = g[0].StringValue()
			}
			parts := make([]string, 0, len(args[0].Group(i)))
			for _, it := range args[0].Group(i) {
				parts = append(parts, it.StringValue())
			}
			b.add(Str(strings.Join(parts, sep)))
		}
		return b.done(), nil
	case "contains", "starts-with", "ends-with":
		if arity != 2 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			s := optString(args[0].Group(i))
			t := optString(args[1].Group(i))
			var r bool
			switch local {
			case "contains":
				r = strings.Contains(s, t)
			case "starts-with":
				r = strings.HasPrefix(s, t)
			default:
				r = strings.HasSuffix(s, t)
			}
			b.add(Bool(r))
		}
		return b.done(), nil
	case "substring":
		if arity != 2 && arity != 3 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			s := []rune(optString(args[0].Group(i)))
			startF, _ := singletonFloat(args[1].Group(i))
			// The characters at positions p with round(start) <= p <
			// round(start) + round(length), clamped to the string in float:
			// a bound past the int range must not wrap. A NaN start admits
			// no position, and so does -INF + INF; a NaN bound clamps to 0.
			first := math.Round(startF)
			lo := clampRunes(first-1, len(s))
			hi := len(s)
			if arity == 3 {
				length, _ := singletonFloat(args[2].Group(i))
				hi = clampRunes(first-1+math.Round(length), len(s))
			}
			if math.IsNaN(first) || lo >= hi {
				b.add(Str(""))
				continue
			}
			b.add(Str(string(s[lo:hi])))
		}
		return b.done(), nil
	case "string-length":
		if arity > 1 {
			return bad()
		}
		src := ev.contextOrArg(args, f)
		if src == nil {
			return LLSeq{}, errf(codeNoContext, "string-length() needs a context item")
		}
		for i := 0; i < f.n; i++ {
			b.add(Int(int64(len([]rune(optString(src.Group(i)))))))
		}
		return b.done(), nil
	case "normalize-space":
		if arity > 1 {
			return bad()
		}
		src := ev.contextOrArg(args, f)
		if src == nil {
			return LLSeq{}, errf(codeNoContext, "normalize-space() needs a context item")
		}
		for i := 0; i < f.n; i++ {
			b.add(Str(strings.Join(strings.Fields(optString(src.Group(i))), " ")))
		}
		return b.done(), nil
	case "upper-case", "lower-case":
		if arity != 1 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			s := optString(args[0].Group(i))
			if local == "upper-case" {
				s = strings.ToUpper(s)
			} else {
				s = strings.ToLower(s)
			}
			b.add(Str(s))
		}
		return b.done(), nil
	case "translate":
		if arity != 3 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			s := optString(args[0].Group(i))
			from := []rune(optString(args[1].Group(i)))
			to := []rune(optString(args[2].Group(i)))
			var sb strings.Builder
			for _, r := range s {
				idx := -1
				for k, fr := range from {
					if fr == r {
						idx = k
						break
					}
				}
				switch {
				case idx < 0:
					sb.WriteRune(r)
				case idx < len(to):
					sb.WriteRune(to[idx])
				}
			}
			b.add(Str(sb.String()))
		}
		return b.done(), nil
	case "sum", "avg", "min", "max":
		if arity != 1 {
			return bad()
		}
		return aggregate(local, args[0], f.n)
	case "abs", "floor", "ceiling", "round":
		if arity != 1 {
			return bad()
		}
		return mapSingleton(args[0], f.n, false, func(it Item) (Item, error) {
			a := it.Atomize()
			if a.Kind == KInt && local != "abs" {
				return a, nil
			}
			v, ok := a.NumericValue()
			if !ok {
				return Item{}, errf(codeType, "%s() on non-numeric %q", local, a.StringValue())
			}
			switch local {
			case "abs":
				if a.Kind == KInt {
					if a.I == math.MinInt64 {
						return Item{}, errf(codeOverflow, "abs(%d) overflows", a.I)
					}
					if a.I < 0 {
						return Int(-a.I), nil
					}
					return a, nil
				}
				return Float(math.Abs(v)), nil
			case "floor":
				return Float(math.Floor(v)), nil
			case "ceiling":
				return Float(math.Ceil(v)), nil
			default:
				return Float(math.Floor(v + 0.5)), nil
			}
		})
	case "distinct-values":
		if arity != 1 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			seen := map[string]bool{}
			var out []Item
			for _, it := range args[0].Group(i) {
				a := it.Atomize()
				key := a.StringValue()
				if n, ok := a.NumericValue(); ok && (a.Kind == KInt || a.Kind == KFloat) {
					key = "#" + formatFloat(n)
				}
				if !seen[key] {
					seen[key] = true
					out = append(out, a)
				}
			}
			b.add(out...)
		}
		return b.done(), nil
	case "reverse":
		if arity != 1 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			g := args[0].Group(i)
			out := make([]Item, len(g))
			for k, it := range g {
				out[len(g)-1-k] = it
			}
			b.add(out...)
		}
		return b.done(), nil
	case "subsequence":
		if arity != 2 && arity != 3 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			g := args[0].Group(i)
			startF, _ := singletonFloat(args[1].Group(i))
			length := math.Inf(1)
			if arity == 3 {
				length, _ = singletonFloat(args[2].Group(i))
			}
			var out []Item
			for k, it := range g {
				p := float64(k + 1)
				if p >= math.Round(startF) && p < math.Round(startF)+math.Round(length) {
					out = append(out, it)
				}
			}
			b.add(out...)
		}
		return b.done(), nil
	case "insert-before":
		if arity != 3 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			g := args[0].Group(i)
			posF, _ := singletonFloat(args[1].Group(i))
			pos := int(posF) - 1
			if pos < 0 {
				pos = 0
			}
			if pos > len(g) {
				pos = len(g)
			}
			out := make([]Item, 0, len(g)+args[2].Total())
			out = append(out, g[:pos]...)
			out = append(out, args[2].Group(i)...)
			out = append(out, g[pos:]...)
			b.add(out...)
		}
		return b.done(), nil
	case "remove":
		if arity != 2 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			g := args[0].Group(i)
			posF, _ := singletonFloat(args[1].Group(i))
			pos := int(posF)
			var out []Item
			for k, it := range g {
				if k+1 != pos {
					out = append(out, it)
				}
			}
			b.add(out...)
		}
		return b.done(), nil
	case "zero-or-one":
		if arity != 1 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			g := args[0].Group(i)
			if len(g) > 1 {
				return LLSeq{}, errf(codeCardinality, "zero-or-one() got %d items", len(g))
			}
			b.add(g...)
		}
		return b.done(), nil
	case "one-or-more":
		if arity != 1 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			g := args[0].Group(i)
			if len(g) == 0 {
				return LLSeq{}, errf(codeCardinality, "one-or-more() got an empty sequence")
			}
			b.add(g...)
		}
		return b.done(), nil
	case "exactly-one":
		if arity != 1 {
			return bad()
		}
		for i := 0; i < f.n; i++ {
			g := args[0].Group(i)
			if len(g) != 1 {
				return LLSeq{}, errf(codeCardinality, "exactly-one() got %d items", len(g))
			}
			b.add(g...)
		}
		return b.done(), nil
	case "error":
		msg := "error() called"
		if arity >= 1 && args[0].Total() > 0 {
			msg = args[0].Items[0].StringValue()
		}
		return LLSeq{}, errf("FOER0000", "%s", msg)
	case "string-value":
		// Engine extension: like string() but explicit for node arguments.
		if arity != 1 {
			return bad()
		}
		return mapSingleton(args[0], f.n, true, func(it Item) (Item, error) {
			return Str(it.StringValue()), nil
		})
	case "regions":
		// so:regions($node): one <region start end/> element per region.
		if arity != 1 {
			return bad()
		}
		return ev.soRegions(args[0], f)
	case "start", "end":
		if arity != 1 {
			return bad()
		}
		return ev.soBound(local, args[0], f)
	case "blob-text":
		if arity != 1 {
			return bad()
		}
		return ev.soBlobText(args[0], f)
	}
	return bad()
}

// contextOrArg returns the single argument or the context item sequence for
// zero-argument string()/number()/name() style calls.
func (ev *Evaluator) contextOrArg(args []LLSeq, f *frame) *LLSeq {
	if len(args) == 1 {
		return &args[0]
	}
	if f.ctx == nil {
		return nil
	}
	s := f.ctx.materialize()
	return &s
}

// mapSingleton applies fn to the 0-or-1 item of each iteration.
// emptyToEmptyString substitutes fn("") for an empty input (fn:string
// semantics); otherwise empty input maps to NaN for number() style calls.
func mapSingleton(src LLSeq, n int, emptyIsEmptyString bool, fn func(Item) (Item, error)) (LLSeq, error) {
	b := newLLBuilder(n)
	for i := 0; i < n; i++ {
		g := src.Group(i)
		switch {
		case len(g) == 0 && emptyIsEmptyString:
			out, err := fn(Str(""))
			if err != nil {
				return LLSeq{}, err
			}
			b.add(out)
		case len(g) == 0:
			b.add(Float(math.NaN()))
		case len(g) == 1:
			out, err := fn(g[0])
			if err != nil {
				return LLSeq{}, err
			}
			b.add(out)
		default:
			return LLSeq{}, errf(codeType, "expected at most one item, got %d", len(g))
		}
	}
	return b.done(), nil
}

func optString(g []Item) string {
	if len(g) == 0 {
		return ""
	}
	return g[0].StringValue()
}

func singletonFloat(g []Item) (float64, bool) {
	if len(g) == 0 {
		return math.NaN(), false
	}
	v, ok := g[0].NumericValue()
	return v, ok
}

func aggregate(kind string, seq LLSeq, n int) (LLSeq, error) {
	b := newLLBuilder(n)
	for i := 0; i < n; i++ {
		g := seq.Group(i)
		if len(g) == 0 {
			if kind == "sum" {
				b.add(Int(0))
			} else {
				b.add()
			}
			continue
		}
		allInt, intOK := true, true
		var sumF float64
		var sumI int64
		minV, maxV := math.Inf(1), math.Inf(-1)
		minI, maxI := int64(math.MaxInt64), int64(math.MinInt64) // exact where float64 rounds
		for _, it := range g {
			a := it.Atomize()
			v, ok := a.NumericValue()
			if !ok {
				return LLSeq{}, errf(codeType, "%s() on non-numeric %q", kind, a.StringValue())
			}
			if a.Kind != KInt {
				allInt = false
			} else {
				minI, maxI = min(minI, a.I), max(maxI, a.I)
			}
			sumF += v
			if intOK {
				sumI, intOK = addInt(sumI, a.I)
			}
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
		switch kind {
		case "sum":
			if allInt && !intOK {
				return LLSeq{}, errf(codeOverflow, "integer overflow in sum()")
			}
			if allInt {
				b.add(Int(sumI))
			} else {
				b.add(Float(sumF))
			}
		case "avg":
			b.add(Float(sumF / float64(len(g))))
		case "min":
			if allInt {
				b.add(Int(minI))
			} else {
				b.add(Float(minV))
			}
		case "max":
			if allInt {
				b.add(Int(maxI))
			} else {
				b.add(Float(maxV))
			}
		}
	}
	return b.done(), nil
}

// soRegions returns the region geometry of area-annotations as constructed
// <region> elements (engine extension).
func (ev *Evaluator) soRegions(src LLSeq, f *frame) (LLSeq, error) {
	opts := ev.Plan.Options()
	b := newLLBuilder(f.n)
	for i := 0; i < f.n; i++ {
		var out []Item
		for _, it := range src.Group(i) {
			regs, err := ev.regionsOfItem(it)
			if err != nil {
				return LLSeq{}, err
			}
			for _, r := range regs {
				fb := newRegionFragment(opts, r)
				out = append(out, fb)
			}
		}
		b.add(out...)
	}
	return b.done(), nil
}

func newRegionFragment(opts core.Options, r interval.Region) Item {
	fb := treeFragment("region", map[string]string{
		"start": opts.FormatPosition(r.Start),
		"end":   opts.FormatPosition(r.End),
	})
	return fb
}

// soBound returns the first region start / last region end of annotations.
func (ev *Evaluator) soBound(kind string, src LLSeq, f *frame) (LLSeq, error) {
	b := newLLBuilder(f.n)
	for i := 0; i < f.n; i++ {
		var out []Item
		for _, it := range src.Group(i) {
			regs, err := ev.regionsOfItem(it)
			if err != nil {
				return LLSeq{}, err
			}
			if len(regs) == 0 {
				continue
			}
			if kind == "start" {
				out = append(out, Int(regs[0].Start))
			} else {
				out = append(out, Int(regs[len(regs)-1].End))
			}
		}
		b.add(out...)
	}
	return b.done(), nil
}

// soBlobText resolves an annotation's regions against the document's BLOB
// and returns the covered content as a string (engine extension replacing
// the text nodes that stand-off conversion moved out of the document).
func (ev *Evaluator) soBlobText(src LLSeq, f *frame) (LLSeq, error) {
	b := newLLBuilder(f.n)
	for i := 0; i < f.n; i++ {
		var out []Item
		for _, it := range src.Group(i) {
			if it.Kind != KNode {
				return LLSeq{}, errf(codeType, "blob-text() needs element nodes")
			}
			if ev.BlobFor == nil {
				return LLSeq{}, errf(codeDocNotFound, "no BLOB configured for blob-text()")
			}
			store := ev.BlobFor(it.D)
			if store == nil {
				return LLSeq{}, errf(codeDocNotFound, "document %q has no BLOB", it.D.Name)
			}
			regs, err := ev.regionsOfItem(it)
			if err != nil {
				return LLSeq{}, err
			}
			if len(regs) == 0 {
				continue
			}
			area, err := interval.NewArea(regs...)
			if err != nil {
				return LLSeq{}, errf(codeType, "blob-text(): %v", err)
			}
			data, err := blob.ReadArea(store, area)
			if err != nil {
				return LLSeq{}, errf(codeDocNotFound, "blob-text(): %v", err)
			}
			out = append(out, Str(string(data)))
		}
		b.add(out...)
	}
	return b.done(), nil
}

func (ev *Evaluator) regionsOfItem(it Item) ([]interval.Region, error) {
	if it.Kind != KNode {
		return nil, errf(codeType, "expected an element node")
	}
	if ev.IndexFor == nil {
		return nil, errf(codeStandOffIndex, "no region index provider configured")
	}
	ix, err := ev.IndexFor(it.D)
	if err != nil {
		return nil, errf(codeStandOffIndex, "%v", err)
	}
	return ix.RegionsOf(it.Pre), nil
}

// treeFragment builds a one-element fragment with attributes.
func treeFragment(name string, attrs map[string]string) Item {
	fb := newFragmentElem(name, attrs)
	return fb
}

// clampRunes clamps a 0-based rune offset to [0, n]; NaN clamps to 0.
func clampRunes(x float64, n int) int {
	switch {
	case !(x > 0):
		return 0
	case x >= float64(n):
		return n
	}
	return int(x)
}
