// Package xqplan is the compile stage between internal/xqparse and
// internal/xqeval. Compile turns a parsed xqast.Module plus the engine's
// stand-off options into an immutable Plan: preamble options resolved, the
// function table built and arity-checked once, global variables ordered,
// and every path expression compiled into a step program — per step, the
// axis with the // fusion applied, the node test, and the stand-off
// classification with the section 3.3 candidate-pushdown decision. Every
// StandOff step runs the Loop-Lifted join unless the execution forces a
// baseline (Basic or the naive UDF join). Last, the body's pipeline shape is
// decided (stream.go): which operator streams, and how.
//
// A Plan carries no mutable state besides per-step memo tables of compiled
// node tests and no references to documents or indexes, so one Plan can back
// any number of concurrent executions and can be cached across queries (the
// engine keys its plan cache on query text + effective options).
//
// ExecStats (stats.go) collects one execution's per-operator counters — rows
// in/out, candidates scanned, join algorithm run, delta layers merged, FLWOR
// tuples and chunks — and Plan.Explain / Plan.ExplainWith (explain.go)
// render the operator tree with, given an ExecStats, the observed counts:
// the EXPLAIN and EXPLAIN ANALYZE surfaces (docs/EXPLAIN.md).
package xqplan

import (
	"fmt"
	"strconv"
	"strings"

	"soxq/internal/core"
	"soxq/internal/xpath"
	"soxq/internal/xqast"
)

// Error is a static (compile-time) error with its W3C error code.
type Error struct {
	Code string // e.g. "XQST0034", "XQST0039"
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("xquery error %s: %s", e.Code, e.Msg) }

func errf(code, format string, args ...any) error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

const (
	codeDupFunc   = "XQST0034" // duplicate function declaration
	codeDupParam  = "XQST0039" // duplicate parameter name
	codeBadOption = "XQST0013" // invalid option value
)

// CandPolicy is the statically decided candidate-sequence policy of one
// StandOff step (the section 3.3 optimizer decision).
type CandPolicy int

const (
	// CandImpossible: the node test can never match an area-annotation
	// (text(), comment(), attribute tests); the step is statically empty.
	CandImpossible CandPolicy = iota
	// CandAll: every area-annotation is a candidate, no residual filter.
	CandAll
	// CandAllFiltered: every area-annotation is a candidate and the node
	// test is applied to the join output (pushdown disabled).
	CandAllFiltered
	// CandByName: the element-name index is intersected with the region
	// index before the join (section 4.3 pushdown).
	CandByName
)

func (c CandPolicy) String() string {
	switch c {
	case CandImpossible:
		return "impossible"
	case CandAll:
		return "all"
	case CandAllFiltered:
		return "all+filter"
	case CandByName:
		return "by-name"
	default:
		return fmt.Sprintf("CandPolicy(%d)", int(c))
	}
}

// SOStep is the compiled form of one StandOff axis step: the join operator
// plus the candidate policy under both optimizer settings. The element-name
// to name-id resolution stays at run time because it is per-document.
type SOStep struct {
	Op     core.Op
	Push   CandPolicy // policy with candidate pushdown enabled
	NoPush CandPolicy // policy with candidate pushdown disabled
	Name   string     // element name for CandByName
}

// Policy returns the candidate policy for the given pushdown setting.
func (s SOStep) Policy(pushdown bool) CandPolicy {
	if pushdown {
		return s.Push
	}
	return s.NoPush
}

// soOps maps the four StandOff axes to their join operators.
var soOps = map[xpath.Axis]core.Op{
	xpath.AxisSelectNarrow: core.SelectNarrow,
	xpath.AxisSelectWide:   core.SelectWide,
	xpath.AxisRejectNarrow: core.RejectNarrow,
	xpath.AxisRejectWide:   core.RejectWide,
}

// Decide computes the compiled form of a StandOff step; CompileStep calls it
// for every StandOff step, whether found in the module or synthesised at run
// time for the function form of the joins.
func Decide(step *xqast.Step) SOStep {
	so := SOStep{Op: soOps[step.Axis]}
	switch step.Test.Kind {
	case xpath.TestElement, xpath.TestAnyNode:
	default:
		// Area-annotations are always elements.
		so.Push, so.NoPush = CandImpossible, CandImpossible
		return so
	}
	if step.Test.Name == "" {
		so.Push, so.NoPush = CandAll, CandAll
		return so
	}
	so.Push, so.NoPush = CandByName, CandAllFiltered
	so.Name = step.Test.Name
	return so
}

// FuncKey is the function-table key: the (possibly prefixed) name and the
// arity, encoded unambiguously as "name/arity".
func FuncKey(name string, arity int) string {
	return name + "/" + strconv.Itoa(arity)
}

// Plan is an immutable compiled query.
type Plan struct {
	body      xqast.Expr
	globals   []*xqast.VarDecl
	opts      core.Options
	funcs     map[string]*xqast.FunctionDecl
	declOrder []*xqast.FunctionDecl // declaration order, for deterministic EXPLAIN
	programs  map[*xqast.Path]Program
	paths     []*xqast.Path // discovery order, for deterministic EXPLAIN
	stream    *StreamOp     // the body's pipeline shape (stream.go)
}

// Compile builds a Plan from a parsed module. base is the engine-wide option
// set; the module's preamble overrides it (option names are matched on their
// local name, as in section 2). Compile only reads the module: the Plan keys
// its step programs on the module's path expressions, so the module must not
// change afterwards.
func Compile(m *xqast.Module, base core.Options) (*Plan, error) {
	p := &Plan{
		opts:     base,
		funcs:    make(map[string]*xqast.FunctionDecl, len(m.Functions)),
		programs: map[*xqast.Path]Program{},
	}
	// (1) Resolve preamble options against the engine defaults.
	for _, o := range m.Options {
		name := o.Name
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[i+1:]
		}
		if _, err := p.opts.Set(name, o.Value); err != nil {
			return nil, errf(codeBadOption, "%v", err)
		}
	}
	// (2) Build the function table once, checking name/arity collisions and
	// duplicate parameters. This happens before the expression pass so that
	// markCountOnly can tell built-ins from user declarations that shadow them.
	for _, fd := range m.Functions {
		key := FuncKey(fd.Name, len(fd.Params))
		if _, dup := p.funcs[key]; dup {
			return nil, errf(codeDupFunc, "duplicate function %s#%d", fd.Name, len(fd.Params))
		}
		seen := make(map[string]bool, len(fd.Params))
		for _, param := range fd.Params {
			if seen[param] {
				return nil, errf(codeDupParam, "duplicate parameter $%s in function %s#%d", param, fd.Name, len(fd.Params))
			}
			seen[param] = true
		}
		p.funcs[key] = fd
		p.declOrder = append(p.declOrder, fd)
	}
	// (3) The single expression pass: compile the step program of every
	// path, function bodies and globals included.
	for _, fd := range m.Functions {
		p.pass(fd.Body)
	}
	for _, vd := range m.Variables {
		p.pass(vd.Value)
	}
	p.pass(m.Body)
	p.body = m.Body
	p.globals = m.Variables
	// (4) Decide the body's pipeline shape over the compiled programs.
	p.stream = p.streamOp(m.Body)
	return p, nil
}

// pass is the one compile-time traversal: post-order over each expression
// (children first, through visitChildren), compiling path step programs on
// the way back up, so a count-only mark sees its argument's program. Each
// expression is walked exactly once per Compile.
func (p *Plan) pass(e xqast.Expr) {
	if e == nil {
		return
	}
	visitChildren(e, p.pass)
	switch v := e.(type) {
	case *xqast.FuncCall:
		p.markCountOnly(v)
	case *xqast.Path:
		p.paths = append(p.paths, v)
		p.programs[v] = p.compileProgram(v)
	}
}

// markCountOnly marks the final step of the path argument of the built-in
// count, exists or empty (not a user function of the same name) as
// StepPlan.CountOnly when the join can count its result: a StandOff select
// step whose predicates are all applied by its candidates.
func (p *Plan) markCountOnly(v *xqast.FuncCall) {
	switch localName(v.Name) {
	case "count", "exists", "empty":
		if len(v.Args) != 1 || p.shadowed(v.Name, 1) {
			return
		}
		path, _ := v.Args[0].(*xqast.Path)
		if prog := p.programs[path]; len(prog) > 0 {
			if last := prog[len(prog)-1]; last.selects() && last.Pushed == len(last.Preds) {
				last.CountOnly = true
			}
		}
	}
}

// localName strips an optional namespace prefix.
func localName(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// shadowed reports whether a user-declared function hides the built-in of
// the same name and arity (the evaluator resolves UDFs first on the exact
// QName).
func (p *Plan) shadowed(name string, arity int) bool {
	_, ok := p.funcs[FuncKey(name, arity)]
	return ok
}

// Body returns the compiled query body.
func (p *Plan) Body() xqast.Expr { return p.body }

// Globals returns the global variable declarations in declaration order.
func (p *Plan) Globals() []*xqast.VarDecl { return p.globals }

// Options returns the effective stand-off options (engine defaults with the
// query preamble applied).
func (p *Plan) Options() core.Options { return p.opts }

// Function resolves a user-declared function by name and arity.
func (p *Plan) Function(name string, arity int) (*xqast.FunctionDecl, bool) {
	fd, ok := p.funcs[FuncKey(name, arity)]
	return fd, ok
}

// Program returns the compiled step program of a path expression. Paths that
// were not part of the compiled module are compiled on the fly (uncached);
// today no caller synthesises whole paths at run time, only single steps via
// CompileStep.
func (p *Plan) Program(path *xqast.Path) Program {
	if prog, ok := p.programs[path]; ok {
		return prog
	}
	return p.compileProgram(path)
}
