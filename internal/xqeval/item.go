// Package xqeval is the loop-lifted evaluator. Every expression is evaluated
// for all iterations of the enclosing for-loops at once; intermediate
// results are iter|pos|item tables (LLSeq), exactly the representation that
// MonetDB/XQuery's Pathfinder compiler produces (section 4.1 of the paper).
// This is what lets a StandOff axis step inside a for-loop run as a single
// Loop-Lifted StandOff MergeJoin instead of one merge join per iteration.
package xqeval

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"soxq/internal/tree"
)

// ItemKind tags the dynamic type of an Item.
type ItemKind uint8

const (
	// KNode is a tree node (document, element, text, comment, PI).
	KNode ItemKind = iota
	// KAttr is an attribute node (owner element pre + attribute row).
	KAttr
	// KString is xs:string.
	KString
	// KUntyped is xs:untypedAtomic (the result of atomizing nodes).
	KUntyped
	// KInt is xs:integer.
	KInt
	// KFloat is xs:double.
	KFloat
	// KBool is xs:boolean.
	KBool
)

// Item is one XDM item.
type Item struct {
	Kind ItemKind
	D    *tree.Doc
	Pre  int32
	Att  int32
	S    string
	I    int64
	F    float64
	B    bool
}

// NodeItem wraps a tree node.
func NodeItem(d *tree.Doc, pre int32) Item { return Item{Kind: KNode, D: d, Pre: pre} }

// AttrItem wraps an attribute node.
func AttrItem(d *tree.Doc, pre, att int32) Item {
	return Item{Kind: KAttr, D: d, Pre: pre, Att: att}
}

// Str wraps an xs:string.
func Str(s string) Item { return Item{Kind: KString, S: s} }

// Untyped wraps an xs:untypedAtomic.
func Untyped(s string) Item { return Item{Kind: KUntyped, S: s} }

// Int wraps an xs:integer.
func Int(i int64) Item { return Item{Kind: KInt, I: i} }

// Float wraps an xs:double.
func Float(f float64) Item { return Item{Kind: KFloat, F: f} }

// Bool wraps an xs:boolean.
func Bool(b bool) Item { return Item{Kind: KBool, B: b} }

// IsNode reports whether the item is a node (element/attr/text/...).
func (it Item) IsNode() bool { return it.Kind == KNode || it.Kind == KAttr }

// SameNode reports node identity.
func (it Item) SameNode(o Item) bool {
	return it.IsNode() && it.Kind == o.Kind && it.D == o.D && it.Pre == o.Pre && it.Att == o.Att
}

// orderKey returns the document-order sort key of a node item.
func (it Item) orderKey() (doc int64, pre int32, att int32) {
	a := int32(0)
	if it.Kind == KAttr {
		a = it.Att + 1 // attributes sort after their element, before children
	}
	return it.D.OrderKey(), it.Pre, a
}

// CompareDocOrder orders node items by document order (cross-document order
// is by document creation rank). Both items must be nodes.
func CompareDocOrder(a, b Item) int {
	ad, ap, aa := a.orderKey()
	bd, bp, ba := b.orderKey()
	switch {
	case ad != bd:
		return cmp64(ad, bd)
	case ap != bp:
		return cmp32(ap, bp)
	default:
		return cmp32(aa, ba)
	}
}

func cmp64(a, b int64) int {
	if a < b {
		return -1
	} else if a > b {
		return 1
	}
	return 0
}

func cmp32(a, b int32) int {
	if a < b {
		return -1
	} else if a > b {
		return 1
	}
	return 0
}

// StringValue returns the string value of the item (fn:string semantics).
func (it Item) StringValue() string {
	switch it.Kind {
	case KNode:
		return it.D.StringValue(it.Pre)
	case KAttr:
		return it.D.AttrValue(it.Att)
	case KString, KUntyped:
		return it.S
	case KInt:
		return strconv.FormatInt(it.I, 10)
	case KFloat:
		return formatFloat(it.F)
	case KBool:
		if it.B {
			return "true"
		}
		return "false"
	}
	return ""
}

// formatFloat renders a double the XPath way for the common cases: integral
// values print without an exponent or trailing ".0".
func formatFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "INF"
	case math.IsInf(f, -1):
		return "-INF"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'G', -1, 64)
	}
}

// Atomize converts the item to its typed value: nodes become untypedAtomic.
func (it Item) Atomize() Item {
	switch it.Kind {
	case KNode, KAttr:
		return Untyped(it.StringValue())
	default:
		return it
	}
}

// NumericValue coerces the item to a double; ok is false when it does not
// parse. Attribute nodes parse straight from the document's value bytes, so
// arithmetic over @start/@end-style stand-off attributes costs no string
// conversion per row.
func (it Item) NumericValue() (float64, bool) {
	switch it.Kind {
	case KInt:
		return float64(it.I), true
	case KFloat:
		return it.F, true
	case KBool:
		if it.B {
			return 1, true
		}
		return 0, true
	case KAttr:
		return parseNumericBytes(it.D.AttrValueBytes(it.Att))
	default:
		s := strings.TrimSpace(it.StringValue())
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN(), false
		}
		return f, true
	}
}

// parseNumericBytes parses a numeric literal from raw bytes without
// allocating. The common stand-off case — an optionally signed decimal
// integer — is parsed by hand; anything else (decimal point, exponent,
// INF/NaN spellings) falls back to strconv.ParseFloat on a transient string.
func parseNumericBytes(b []byte) (float64, bool) {
	// xs:double whitespace trim.
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r') {
		b = b[1:]
	}
	for n := len(b); n > 0 && (b[n-1] == ' ' || b[n-1] == '\t' || b[n-1] == '\n' || b[n-1] == '\r'); n = len(b) {
		b = b[:n-1]
	}
	if len(b) == 0 {
		return math.NaN(), false
	}
	i, neg := 0, false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i = 1
	}
	var v uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			// Not a plain integer: full ParseFloat semantics.
			f, err := strconv.ParseFloat(string(b), 64)
			if err != nil {
				return math.NaN(), false
			}
			return f, true
		}
		v = v*10 + uint64(c-'0')
		if v > 1<<53 {
			f, err := strconv.ParseFloat(string(b), 64)
			if err != nil {
				return math.NaN(), false
			}
			return f, true
		}
	}
	if i == 1 && (b[0] == '+' || b[0] == '-') {
		return math.NaN(), false // sign with no digits
	}
	if neg {
		return -float64(v), true
	}
	return float64(v), true
}

// String renders the item for tests and diagnostics: a node by its document
// name and its pre within its tree.
func (it Item) String() string {
	switch it.Kind {
	case KNode:
		return fmt.Sprintf("node(%s:%d)", it.D.Name, it.Pre-it.D.FragmentRoot(it.Pre))
	case KAttr:
		return fmt.Sprintf("attr(%s:%d/@%s)", it.D.Name, it.Pre-it.D.FragmentRoot(it.Pre), it.D.AttrName(it.Att))
	default:
		return it.StringValue()
	}
}

// LLSeq is a loop-lifted sequence: iteration i owns Items[Off[i]:Off[i+1]].
// It is the iter|pos|item table of section 4.1 with pos kept implicit.
type LLSeq struct {
	Off   []int32
	Items []Item
}

// NewLL returns an LLSeq with n empty iterations.
func NewLL(n int) LLSeq { return LLSeq{Off: make([]int32, n+1)} }

// N returns the number of iterations.
func (s LLSeq) N() int { return len(s.Off) - 1 }

// Group returns the item sequence of iteration i (aliased, do not modify).
func (s LLSeq) Group(i int) []Item { return s.Items[s.Off[i]:s.Off[i+1]] }

// Total returns the total item count across iterations.
func (s LLSeq) Total() int { return len(s.Items) }

// llBuilder assembles an LLSeq iteration by iteration.
type llBuilder struct {
	seq LLSeq
}

func newLLBuilder(nHint int) *llBuilder {
	return &llBuilder{seq: LLSeq{Off: make([]int32, 1, nHint+1)}}
}

// newLLBuilderCap additionally pre-sizes the item buffer, so hot loops with
// a known (or tightly bounded) total item count build without regrowth.
func newLLBuilderCap(nHint, itemsHint int) *llBuilder {
	return &llBuilder{seq: LLSeq{
		Off:   make([]int32, 1, nHint+1),
		Items: make([]Item, 0, itemsHint),
	}}
}

func (b *llBuilder) add(items ...Item) {
	b.seq.Items = append(b.seq.Items, items...)
	b.seq.Off = append(b.seq.Off, int32(len(b.seq.Items)))
}

// add2 appends one iteration holding the concatenation of two groups,
// without the caller materialising a temporary.
func (b *llBuilder) add2(l, r []Item) {
	b.seq.Items = append(append(b.seq.Items, l...), r...)
	b.seq.Off = append(b.seq.Off, int32(len(b.seq.Items)))
}

// appendItem / endGroup build one iteration incrementally: append any number
// of items, then seal the group.
func (b *llBuilder) appendItem(it Item) {
	b.seq.Items = append(b.seq.Items, it)
}

func (b *llBuilder) endGroup() {
	b.seq.Off = append(b.seq.Off, int32(len(b.seq.Items)))
}

func (b *llBuilder) done() LLSeq { return b.seq }

// constLL broadcasts the same items to n iterations.
func constLL(n int, items ...Item) LLSeq {
	s := LLSeq{Off: make([]int32, n+1)}
	if len(items) == 0 {
		return s
	}
	s.Items = make([]Item, 0, n*len(items))
	for i := 0; i < n; i++ {
		s.Items = append(s.Items, items...)
		s.Off[i+1] = int32(len(s.Items))
	}
	return s
}

// ascOff returns the offsets of a sequence with exactly one item per
// iteration: 0,1,...,n. All such sequences share one immutable table behind
// an atomic pointer (grown on demand), and the returned slice has zero spare
// capacity so an append by a confused caller copies instead of clobbering
// the shared array.
func ascOff(n int) []int32 {
	p := ascOffTab.Load()
	if p == nil || len(*p) < n+1 {
		ascOffMu.Lock()
		p = ascOffTab.Load()
		if p == nil || len(*p) < n+1 {
			size := n + 1
			if size < 4096 {
				size = 4096
			}
			t := make([]int32, size)
			for i := range t {
				t[i] = int32(i)
			}
			ascOffTab.Store(&t)
			p = &t
		}
		ascOffMu.Unlock()
	}
	t := *p
	return t[: n+1 : n+1]
}

var (
	ascOffTab atomic.Pointer[[]int32]
	ascOffMu  sync.Mutex
)

// sortDedupNodes sorts items (which must all be nodes) in document order and
// removes identity duplicates, in place.
func sortDedupNodes(items []Item) []Item {
	if slices.IsSortedFunc(items, func(a, b Item) int {
		if c := CompareDocOrder(a, b); c != 0 {
			return c
		}
		return -1 // a duplicate is out of order
	}) {
		return items
	}
	slices.SortStableFunc(items, CompareDocOrder)
	out := items[:0]
	for i, it := range items {
		if i == 0 || !it.SameNode(items[i-1]) {
			out = append(out, it)
		}
	}
	return out
}
