// Package xpath evaluates XPath axis steps over the shredded document store:
// the twelve standard tree axes plus the identification of the four StandOff
// axes this paper adds (their evaluation lives in internal/core; this
// package owns the Axis vocabulary). Descendant steps can run either
// per-context-node through the element-name index or as a loop-lifted
// staircase join, the algorithm family the paper benchmarks StandOff
// MergeJoin against.
package xpath

import (
	"fmt"

	"soxq/internal/tree"
)

// Axis enumerates the XPath axes, including the four new StandOff axis
// steps proposed in section 3.3 of the paper.
type Axis int

const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisSelf
	AxisAttribute
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowingSibling
	AxisFollowing
	AxisPrecedingSibling
	AxisPreceding
	// The StandOff axes (section 3.3).
	AxisSelectNarrow
	AxisSelectWide
	AxisRejectNarrow
	AxisRejectWide
)

var axisNames = map[Axis]string{
	AxisChild: "child", AxisDescendant: "descendant",
	AxisDescendantOrSelf: "descendant-or-self", AxisSelf: "self",
	AxisAttribute: "attribute", AxisParent: "parent",
	AxisAncestor: "ancestor", AxisAncestorOrSelf: "ancestor-or-self",
	AxisFollowingSibling: "following-sibling", AxisFollowing: "following",
	AxisPrecedingSibling: "preceding-sibling", AxisPreceding: "preceding",
	AxisSelectNarrow: "select-narrow", AxisSelectWide: "select-wide",
	AxisRejectNarrow: "reject-narrow", AxisRejectWide: "reject-wide",
}

func (a Axis) String() string {
	if s, ok := axisNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// ParseAxis resolves an axis name as written in a query ("child",
// "select-narrow", ...).
func ParseAxis(name string) (Axis, bool) {
	for a, s := range axisNames {
		if s == name {
			return a, true
		}
	}
	return 0, false
}

// StandOff reports whether the axis is one of the four StandOff steps.
func (a Axis) StandOff() bool {
	return a >= AxisSelectNarrow && a <= AxisRejectWide
}

// Reverse reports whether the axis is a reverse axis (positional predicates
// count backwards from the context node).
func (a Axis) Reverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisAncestorOrSelf, AxisPrecedingSibling, AxisPreceding:
		return true
	}
	return false
}

// TestKind classifies a node test.
type TestKind int

const (
	// TestAnyNode is node(): any node kind.
	TestAnyNode TestKind = iota
	// TestElement is a name test or element()/ *.
	TestElement
	// TestText is text().
	TestText
	// TestComment is comment().
	TestComment
	// TestPI is processing-instruction() with optional target.
	TestPI
	// TestDocument is document-node().
	TestDocument
	// TestAttribute is used on the attribute axis: name test or *.
	TestAttribute
)

// Test is a node test: a kind plus an optional name ("" is a wildcard).
type Test struct {
	Kind TestKind
	Name string
}

// NameTest builds the common element name test.
func NameTest(name string) Test { return Test{Kind: TestElement, Name: name} }

// AnyElement matches element(*).
var AnyElement = Test{Kind: TestElement}

func (t Test) String() string {
	switch t.Kind {
	case TestAnyNode:
		return "node()"
	case TestText:
		return "text()"
	case TestComment:
		return "comment()"
	case TestPI:
		if t.Name != "" {
			return "processing-instruction(" + t.Name + ")"
		}
		return "processing-instruction()"
	case TestDocument:
		return "document-node()"
	default:
		if t.Name == "" {
			return "*"
		}
		return t.Name
	}
}

// Compiled is a Test resolved against one document's dictionary so the hot
// loops compare int32 name ids instead of strings.
type Compiled struct {
	kind   TestKind
	nameID int32 // -1 = wildcard, -2 = name absent from the document
}

// Compile resolves t against d.
func Compile(d *tree.Doc, t Test) Compiled {
	c := Compiled{kind: t.Kind, nameID: -1}
	if t.Name != "" {
		if id, ok := d.Dict().Lookup(t.Name); ok {
			c.nameID = id
		} else {
			c.nameID = -2
		}
	}
	return c
}

// Matches reports whether node pre passes the test.
func (c Compiled) Matches(d *tree.Doc, pre int32) bool {
	// Tombstoned nodes (annotation deletes) never match any test. Scanning
	// axes route every candidate through here, so this single check hides
	// deleted subtrees from evaluation; parent/ancestor moves from a live node
	// need no check because tombstones always cover whole subtrees.
	if !d.Alive(pre) {
		return false
	}
	switch c.kind {
	case TestAnyNode:
		return true
	case TestElement:
		return d.Kind(pre) == tree.ElementNode && (c.nameID == -1 || d.NameID(pre) == c.nameID)
	case TestText:
		return d.Kind(pre) == tree.TextNode
	case TestComment:
		return d.Kind(pre) == tree.CommentNode
	case TestPI:
		return d.Kind(pre) == tree.PINode && (c.nameID == -1 || d.NameID(pre) == c.nameID)
	case TestDocument:
		return d.Kind(pre) == tree.DocumentNode
	default:
		return false
	}
}

// isElementNameTest reports whether the compiled test is an element name
// test that can use the element-name index.
func (c Compiled) isElementNameTest() bool {
	return c.kind == TestElement && c.nameID >= 0
}

// Step returns the result of one axis step from a single context node, in
// document order. The attribute axis and the StandOff axes are evaluated
// elsewhere (they do not return tree nodes resp. need the region index);
// calling Step with them panics, which would be an evaluator bug.
func Step(d *tree.Doc, axis Axis, test Test, pre int32) []int32 {
	return CompiledStep(d, axis, Compile(d, test), pre)
}

// CompiledStep is Step with a pre-compiled test. A descendant name test
// returns a slice of the element-name index directly — zero-copy, so callers
// must treat the result as read-only.
func CompiledStep(d *tree.Doc, axis Axis, c Compiled, pre int32) []int32 {
	if axis == AxisDescendant && c.isElementNameTest() {
		return indexRange(d, c.nameID, pre+1, pre+d.Size(pre))
	}
	return AppendCompiledStep(nil, d, axis, c, pre)
}

// AppendCompiledStep appends the step result to dst and returns the extended
// slice — the allocation-free form of CompiledStep for hot loops that
// evaluate one step over many context nodes into a recycled buffer.
func AppendCompiledStep(dst []int32, d *tree.Doc, axis Axis, c Compiled, pre int32) []int32 {
	switch axis {
	case AxisChild:
		for ch := d.FirstChild(pre); ch >= 0; ch = d.NextSibling(ch) {
			if c.Matches(d, ch) {
				dst = append(dst, ch)
			}
		}
	case AxisDescendant:
		dst = appendDescendants(dst, d, c, pre, false)
	case AxisDescendantOrSelf:
		dst = appendDescendants(dst, d, c, pre, true)
	case AxisSelf:
		if c.Matches(d, pre) {
			dst = append(dst, pre)
		}
	case AxisParent:
		if p := d.Parent(pre); p >= 0 && c.Matches(d, p) {
			dst = append(dst, p)
		}
	case AxisAncestor, AxisAncestorOrSelf:
		start := d.Parent(pre)
		if axis == AxisAncestorOrSelf {
			start = pre
		}
		mark := len(dst)
		for p := start; p >= 0; p = d.Parent(p) {
			if c.Matches(d, p) {
				dst = append(dst, p)
			}
		}
		reverse(dst[mark:]) // collected innermost-first; report document order
	case AxisFollowingSibling:
		for s := d.NextSibling(pre); s >= 0; s = d.NextSibling(s) {
			if c.Matches(d, s) {
				dst = append(dst, s)
			}
		}
	case AxisPrecedingSibling:
		parent := d.Parent(pre)
		if parent < 0 {
			break
		}
		for s := d.FirstChild(parent); s >= 0 && s < pre; s = d.NextSibling(s) {
			if c.Matches(d, s) {
				dst = append(dst, s)
			}
		}
	case AxisFollowing: // bounded by the fragment, the tree that holds pre
		r := d.FragmentRoot(pre)
		dst = appendScanRange(dst, d, c, pre+d.Size(pre)+1, r+d.Size(r))
	case AxisPreceding:
		r := d.FragmentRoot(pre)
		if c.isElementNameTest() {
			for _, p := range indexRange(d, c.nameID, r, pre-1) {
				if !d.IsAncestorOf(p, pre) {
					dst = append(dst, p)
				}
			}
			break
		}
		for p := r; p <= pre-1; p++ {
			if c.Matches(d, p) && !d.IsAncestorOf(p, pre) {
				dst = append(dst, p)
			}
		}
	default:
		panic(fmt.Sprintf("xpath: Step cannot evaluate axis %v", axis))
	}
	return dst
}

// appendDescendants appends matching nodes in (pre, pre+size] (plus pre
// itself with orSelf), using the element-name index when the test allows.
func appendDescendants(dst []int32, d *tree.Doc, c Compiled, pre int32, orSelf bool) []int32 {
	if orSelf && c.Matches(d, pre) {
		dst = append(dst, pre)
	}
	lo, hi := pre+1, pre+d.Size(pre)
	if c.isElementNameTest() {
		return append(dst, indexRange(d, c.nameID, lo, hi)...)
	}
	for p := lo; p <= hi; p++ {
		if c.Matches(d, p) {
			dst = append(dst, p)
		}
	}
	return dst
}

// appendScanRange appends matching nodes in [lo, hi].
func appendScanRange(dst []int32, d *tree.Doc, c Compiled, lo, hi int32) []int32 {
	if lo < 0 {
		lo = 0
	}
	if c.isElementNameTest() {
		return append(dst, indexRange(d, c.nameID, lo, hi)...)
	}
	for p := lo; p <= hi; p++ {
		if c.Matches(d, p) {
			dst = append(dst, p)
		}
	}
	return dst
}

// indexRange slices the element-name index to pres within [lo, hi].
func indexRange(d *tree.Doc, nameID, lo, hi int32) []int32 {
	pres := d.ElementsByName(nameID)
	a := lowerBound(pres, lo)
	b := lowerBound(pres, hi+1)
	if a >= b {
		return nil
	}
	return pres[a:b]
}

// lowerBound returns the first index i with pres[i] >= v.
func lowerBound(pres []int32, v int32) int {
	lo, hi := 0, len(pres)
	for lo < hi {
		mid := (lo + hi) / 2
		if pres[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func reverse(s []int32) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
