package obs

// ExecMetrics is the pre-resolved set of counter handles the engine threads
// through every evaluator (and, via the evaluator, through the cursor
// pipeline). Resolving the handles once at engine construction keeps the hot
// paths free of name lookups: recording an event is a single atomic add.
//
// A nil *ExecMetrics disables all of them; every field is individually
// nil-safe too.
type ExecMetrics struct {
	// Joins per algorithm actually run (all three StandOff join call
	// sites: bulk select, bulk reject, chunked select).
	JoinBasic      *Counter
	JoinLoopLifted *Counter
	JoinNaive      *Counter
}
