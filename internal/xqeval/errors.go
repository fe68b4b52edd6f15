package xqeval

import "fmt"

// Error is a dynamic or type error with its W3C error code.
type Error struct {
	Code string // e.g. "XPDY0002", "XPTY0004", "FORG0006"
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("xquery error %s: %s", e.Code, e.Msg) }

func errf(code, format string, args ...any) error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Well-known codes used across the evaluator.
const (
	codeNoContext     = "XPDY0002" // context item absent
	codeType          = "XPTY0004" // type error
	codeEBV           = "FORG0006" // invalid argument to effective boolean value
	codeUndefVar      = "XPST0008" // undeclared variable
	codeUndefFunc     = "XPST0017" // undeclared function / wrong arity
	codeDocNotFound   = "FODC0002" // document not available
	codeDivZero       = "FOAR0001" // division by zero
	codeOverflow      = "FOAR0002" // numeric overflow
	codeAttrLate      = "XQTY0024" // attribute after non-attribute content
	codeRecursion     = "SOXQ0001" // recursion depth exceeded (engine limit)
	codeCardinality   = "FORG0005" // fn:exactly-one etc. cardinality violation
	codeStandOffIndex = "SOXQ0002" // region index construction failed
)
