package xqeval

import (
	"strings"

	"soxq/internal/xqast"
)

// evalGeneralComp implements the existentially quantified general
// comparisons (= != < <= > >=): true when any pair of atomized items from
// the two operand sequences satisfies the comparison.
func (ev *Evaluator) evalGeneralComp(v *xqast.Binary, f *frame) (LLSeq, error) {
	l, err := ev.eval(v.L, f)
	if err != nil {
		return LLSeq{}, err
	}
	r, err := ev.eval(v.R, f)
	if err != nil {
		return LLSeq{}, err
	}
	b := newLLBuilder(f.n)
	for i := 0; i < f.n; i++ {
		found := false
		for _, li := range l.Group(i) {
			la := li.Atomize()
			for _, ri := range r.Group(i) {
				ok, err := comparePair(v.Op, la, ri.Atomize(), true)
				if err != nil {
					return LLSeq{}, err
				}
				if ok {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		b.add(Bool(found))
	}
	return b.done(), nil
}

// evalValueComp implements eq/ne/lt/le/gt/ge on singleton (or empty)
// operands; an empty operand yields the empty sequence.
func (ev *Evaluator) evalValueComp(v *xqast.Binary, f *frame) (LLSeq, error) {
	l, err := ev.eval(v.L, f)
	if err != nil {
		return LLSeq{}, err
	}
	r, err := ev.eval(v.R, f)
	if err != nil {
		return LLSeq{}, err
	}
	op := generalOp(v.Op)
	b := newLLBuilder(f.n)
	for i := 0; i < f.n; i++ {
		lg, rg := l.Group(i), r.Group(i)
		if len(lg) == 0 || len(rg) == 0 {
			b.add()
			continue
		}
		if len(lg) > 1 || len(rg) > 1 {
			return LLSeq{}, errf(codeType, "value comparison %s on a sequence", v.Op)
		}
		ok, err := comparePair(op, lg[0].Atomize(), rg[0].Atomize(), false)
		if err != nil {
			return LLSeq{}, err
		}
		b.add(Bool(ok))
	}
	return b.done(), nil
}

// generalOp returns the general-comparison spelling of a value-comparison
// operator, which is what comparePair switches on.
func generalOp(valueOp string) string {
	switch valueOp {
	case "eq":
		return "="
	case "ne":
		return "!="
	case "lt":
		return "<"
	case "le":
		return "<="
	case "gt":
		return ">"
	default: // "ge": evalBinary dispatches the six value comparisons only
		return ">="
	}
}

// comparePair compares two atomized items. In general comparisons (general
// = true) untypedAtomic adapts to the other operand's type; in value
// comparisons untypedAtomic is treated as string.
func comparePair(op string, a, b Item, general bool) (bool, error) {
	numeric := false
	switch {
	case isNumeric(a) && isNumeric(b):
		numeric = true
	case general && a.Kind == KUntyped && isNumeric(b):
		numeric = true
	case general && b.Kind == KUntyped && isNumeric(a):
		numeric = true
	case general && a.Kind == KUntyped && b.Kind == KUntyped:
		// Strict XPath 2.0 compares two untypedAtomic values as strings;
		// the paper's Figure 2/3 functions compare @start/@end regions
		// numerically, as XPath 1.0 did. We compare numerically when both
		// sides parse as numbers (region positions always do) and fall
		// back to string comparison otherwise.
		if x, ok := a.NumericValue(); ok {
			if y, ok := b.NumericValue(); ok {
				return numCompare(op, x, y), nil
			}
		}
	case a.Kind == KBool || b.Kind == KBool:
		if a.Kind != KBool || b.Kind != KBool {
			if a.Kind == KUntyped || b.Kind == KUntyped {
				// untyped vs boolean: cast untyped to boolean.
				ab, err := castBool(a)
				if err != nil {
					return false, err
				}
				bb, err := castBool(b)
				if err != nil {
					return false, err
				}
				return boolCompare(op, ab, bb)
			}
			return false, errf(codeType, "cannot compare boolean with non-boolean")
		}
		return boolCompare(op, a.B, b.B)
	}
	if numeric {
		x, okx := a.NumericValue()
		y, oky := b.NumericValue()
		if !okx || !oky {
			// An unparsable untyped operand never compares equal; mimic
			// NaN semantics rather than erroring, matching general
			// comparison practice on untyped data.
			return false, nil
		}
		return numCompare(op, x, y), nil
	}
	c := strings.Compare(a.StringValue(), b.StringValue())
	return cmpResult(op, c), nil
}

func castBool(it Item) (bool, error) {
	if it.Kind == KBool {
		return it.B, nil
	}
	switch strings.TrimSpace(it.StringValue()) {
	case "true", "1":
		return true, nil
	case "false", "0":
		return false, nil
	}
	return false, errf(codeType, "cannot cast %q to xs:boolean", it.StringValue())
}

func boolCompare(op string, a, b bool) (bool, error) {
	toI := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return cmpResult(op, toI(a)-toI(b)), nil
}

func numCompare(op string, x, y float64) bool {
	switch op {
	case "=":
		return x == y
	case "!=":
		return x != y
	case "<":
		return x < y
	case "<=":
		return x <= y
	case ">":
		return x > y
	case ">=":
		return x >= y
	}
	return false
}

func cmpResult(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// evalNodeComp implements is, << and >> on singleton node operands.
func (ev *Evaluator) evalNodeComp(v *xqast.Binary, f *frame) (LLSeq, error) {
	l, err := ev.eval(v.L, f)
	if err != nil {
		return LLSeq{}, err
	}
	r, err := ev.eval(v.R, f)
	if err != nil {
		return LLSeq{}, err
	}
	b := newLLBuilder(f.n)
	for i := 0; i < f.n; i++ {
		lg, rg := l.Group(i), r.Group(i)
		if len(lg) == 0 || len(rg) == 0 {
			b.add()
			continue
		}
		if len(lg) > 1 || len(rg) > 1 || !lg[0].IsNode() || !rg[0].IsNode() {
			return LLSeq{}, errf(codeType, "node comparison %s needs single nodes", v.Op)
		}
		switch v.Op {
		case "is":
			b.add(Bool(lg[0].SameNode(rg[0])))
		case "<<":
			b.add(Bool(CompareDocOrder(lg[0], rg[0]) < 0))
		default:
			b.add(Bool(CompareDocOrder(lg[0], rg[0]) > 0))
		}
	}
	return b.done(), nil
}

// evalSetOp implements union/intersect/except with document-order,
// duplicate-free results.
func (ev *Evaluator) evalSetOp(v *xqast.Binary, f *frame) (LLSeq, error) {
	l, err := ev.eval(v.L, f)
	if err != nil {
		return LLSeq{}, err
	}
	r, err := ev.eval(v.R, f)
	if err != nil {
		return LLSeq{}, err
	}
	b := newLLBuilder(f.n)
	for i := 0; i < f.n; i++ {
		lg, rg := l.Group(i), r.Group(i)
		for _, it := range lg {
			if !it.IsNode() {
				return LLSeq{}, errf(codeType, "%s operand contains a non-node", v.Op)
			}
		}
		for _, it := range rg {
			if !it.IsNode() {
				return LLSeq{}, errf(codeType, "%s operand contains a non-node", v.Op)
			}
		}
		ls := sortDedupNodes(append([]Item{}, lg...))
		rs := sortDedupNodes(append([]Item{}, rg...))
		var out []Item
		switch v.Op {
		case "union":
			out = sortDedupNodes(append(ls, rs...))
		case "intersect":
			for _, it := range ls {
				if containsNode(rs, it) {
					out = append(out, it)
				}
			}
		case "except":
			for _, it := range ls {
				if !containsNode(rs, it) {
					out = append(out, it)
				}
			}
		}
		b.add(out...)
	}
	return b.done(), nil
}

func containsNode(sorted []Item, it Item) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if CompareDocOrder(sorted[mid], it) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo].SameNode(it)
}
