// Package interval provides the region primitives underlying stand-off
// annotation: closed integer intervals ("regions"), possibly non-contiguous
// ordered sets of regions ("areas"), and the containment and overlap
// predicates of Alink et al. (XIME-P 2006, section 3.1).
//
// Positions are int64, which covers byte offsets in multi-terabyte BLOBs as
// well as millisecond or nanosecond time-stamps (section 2 of the paper:
// "Our current implementation assumes the positions to be
// machine-representable as 64-bits integers").
package interval

import (
	"errors"
	"fmt"
)

// Region is a closed interval [Start,End] over a totally ordered position
// domain. Both endpoints are included and Start <= End must hold.
type Region struct {
	Start int64
	End   int64
}

// ErrInvalidRegion is returned when Start > End.
var ErrInvalidRegion = errors.New("interval: region start exceeds end")

// NewRegion returns the region [start,end] or ErrInvalidRegion if start > end.
func NewRegion(start, end int64) (Region, error) {
	if start > end {
		return Region{}, fmt.Errorf("%w: [%d,%d]", ErrInvalidRegion, start, end)
	}
	return Region{Start: start, End: end}, nil
}

// Valid reports whether the region is well formed (Start <= End).
func (r Region) Valid() bool { return r.Start <= r.End }

// Length returns the number of positions covered by the region. A region
// [p,p] has length 1 because both endpoints are included.
func (r Region) Length() int64 { return r.End - r.Start + 1 }

// Contains reports whether r fully contains s:
//
//	r.Start <= s.Start <= s.End <= r.End
//
// This is the single-region form of the paper's contains predicate.
func (r Region) Contains(s Region) bool {
	return r.Start <= s.Start && s.End <= r.End
}

// Overlaps reports whether r and s share at least one position:
//
//	r.Start <= s.End && r.End >= s.Start
//
// This is the single-region form of the paper's overlaps predicate. Touching
// regions ([1,5] and [5,9]) overlap because intervals are closed.
func (r Region) Overlaps(s Region) bool {
	return r.Start <= s.End && r.End >= s.Start
}

func (r Region) String() string { return fmt.Sprintf("[%d,%d]", r.Start, r.End) }

// Compare orders regions by Start, breaking ties on End. It returns -1, 0 or
// +1. This is the clustering order of the region index (section 4.3).
func Compare(a, b Region) int {
	switch {
	case a.Start < b.Start:
		return -1
	case a.Start > b.Start:
		return 1
	case a.End < b.End:
		return -1
	case a.End > b.End:
		return 1
	default:
		return 0
	}
}
