package xqexec

// Cross-document merge: a corpus query fans out into one cursor pipeline per
// member document (a shard), and MergeShards drains them back into a single
// stream in shard order — the corpus's document order. Shards are
// independent by construction (each pipeline runs over its own evaluator and
// its own document snapshot), so the merge is a plain concatenation.

// ShardSource lazily constructs one shard's cursor. Sources are invoked at
// most once each, on the goroutine that drains the merged cursor.
type ShardSource func() (Cursor, error)

// MergeShards returns a cursor over the concatenation of the shard streams
// in slice order. The shards run lazily one after another on the consumer's
// goroutine: a source is built only once the shard before it is exhausted,
// so at most one shard pipeline is live and Close never builds the rest. A
// shard's error surfaces after every item of the shards before it.
func MergeShards(sources []ShardSource) Cursor {
	return &concatCursor{n: len(sources), part: func(i int) (Cursor, error) { return sources[i]() }}
}
