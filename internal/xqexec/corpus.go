package xqexec

import (
	"sync"
	"sync/atomic"

	"soxq/internal/obs"
	"soxq/internal/xqeval"
)

// Cross-document merge: a corpus query fans out into one cursor pipeline per
// member document (a shard), and MergeShards drains them back into a single
// stream in shard order — the corpus's document order. Shards are
// independent by construction (each pipeline runs over its own evaluator and
// its own document snapshot), so the parallel form needs no cross-shard
// coordination beyond the order-preserving merge; what it borrows from the
// FLWOR work-stealing pool is the bounding discipline — an in-flight token
// budget that keeps claimed-but-unconsumed shards, and therefore buffered
// results, proportional to the worker count rather than the corpus size —
// and the pool's InflightWaits saturation counter.

// ShardSource lazily constructs one shard's cursor. Sources are invoked at
// most once each, on the goroutine that will drain the cursor, so pipeline
// state with single-goroutine affinity (join arenas) stays correct.
type ShardSource func() (Cursor, error)

// MergeShards returns a cursor over the concatenation of the shard streams
// in slice order. With workers <= 1 (or a single shard) the shards run
// lazily one after another on the consumer's goroutine — bounded memory, no
// goroutines. With workers > 1 a bounded pool drains up to that many shards
// concurrently, buffering completed chunks of `chunk` items per shard while
// the merge catches up; the stream is item-for-item identical either way. A
// shard's error surfaces after every item of the shards before it, exactly
// where the sequential drain would have failed. Close mid-stream stops the
// pool and closes every open shard cursor; like every Cursor it is
// idempotent and leaks no goroutines.
func MergeShards(sources []ShardSource, workers, chunk int, met *obs.ExecMetrics) Cursor {
	if workers > len(sources) {
		workers = len(sources)
	}
	if workers <= 1 || len(sources) <= 1 {
		return &shardSeq{sources: sources}
	}
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return newShardPar(sources, workers, chunk, met)
}

// shardSeq drains shards one at a time, building each source only when the
// previous shard is exhausted (the seqCursor discipline, across documents).
type shardSeq struct {
	sources []ShardSource
	i       int
	cur     Cursor
	err     error
}

func (c *shardSeq) NextBatch() Batch {
	for c.err == nil {
		if c.cur == nil {
			if c.i >= len(c.sources) {
				break
			}
			c.cur, c.err = c.sources[c.i]()
			c.i++
			if c.err != nil {
				break
			}
		}
		if b := c.cur.NextBatch(); b.Len() > 0 {
			return b
		}
		c.err = c.cur.Err()
		c.cur.Close()
		c.cur = nil
	}
	return Batch{}
}

func (c *shardSeq) Err() error { return c.err }
func (c *shardSeq) Close() {
	if c.cur != nil {
		c.cur.Close()
		c.cur = nil
	}
	c.i = len(c.sources)
}

// shardChunk is one slice of a shard's output (or its terminal error) on the
// way to the merge.
type shardChunk struct {
	items []xqeval.Item
	err   error
}

// shardPar drains shards on a bounded worker pool. Workers claim shard
// indexes in order off a shared counter and stream each claimed shard's
// output as bounded chunks into that shard's channel; the consumer reads the
// channels strictly in shard order, so the merged stream is deterministic
// regardless of which worker ran what. The token budget (2x workers) caps
// how many shards may be claimed ahead of the consumer: without it, a corpus
// of many small shards would buffer every completed shard at once.
type shardPar struct {
	chans  []chan shardChunk
	tokens chan struct{} // acquired per shard claim, released per shard consumed
	donech chan struct{}
	wg     sync.WaitGroup
	claim  atomic.Int64
	met    *obs.ExecMetrics

	// Consumer state (single goroutine, never shared).
	si     int
	err    error
	done   bool
	closed bool
}

func newShardPar(sources []ShardSource, workers, chunk int, met *obs.ExecMetrics) *shardPar {
	p := &shardPar{
		chans:  make([]chan shardChunk, len(sources)),
		tokens: make(chan struct{}, 2*workers),
		donech: make(chan struct{}),
		met:    met,
	}
	for i := range p.chans {
		// Capacity 1 lets a shard's worker run one chunk ahead of the merge;
		// the token budget bounds the shard count, so peak buffered memory is
		// O(workers x chunk), independent of corpus size.
		p.chans[i] = make(chan shardChunk, 1)
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(sources, chunk)
	}
	return p
}

func (p *shardPar) worker(sources []ShardSource, chunk int) {
	defer p.wg.Done()
	for {
		if !p.acquireToken() {
			return
		}
		i := int(p.claim.Add(1)) - 1
		if i >= len(sources) {
			// Nothing left to claim; the held token dies with the pool.
			return
		}
		if !p.runShard(i, sources[i], chunk) {
			return
		}
	}
}

// acquireToken takes one in-flight shard token, counting a stall when the
// worker genuinely has to wait for the consumer to retire a shard (the
// pool's saturation signal, same meaning as the FLWOR pool's). Returns false
// when the pool shut down instead.
func (p *shardPar) acquireToken() bool {
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
	}
	p.met.InflightWait()
	select {
	case p.tokens <- struct{}{}:
		return true
	case <-p.donech:
		return false
	}
}

// runShard builds shard i's cursor, streams its output in chunks, and closes
// the shard channel so the consumer sees end-of-shard. Returns false when
// the pool shut down mid-shard.
func (p *shardPar) runShard(i int, src ShardSource, chunk int) bool {
	defer close(p.chans[i])
	cur, err := src()
	if err != nil {
		return p.send(i, shardChunk{err: err})
	}
	defer cur.Close()
	rows := NewReader(cur)
	buf := make([]xqeval.Item, 0, min(chunk, 64))
	for {
		// Fill stops short of chunk only at the end of the shard's stream.
		if buf = rows.Fill(buf, chunk); len(buf) > 0 && !p.send(i, shardChunk{items: buf}) {
			return false
		}
		if len(buf) < chunk {
			break
		}
		buf = make([]xqeval.Item, 0, chunk) // the consumer owns the one sent
	}
	if err := cur.Err(); err != nil {
		return p.send(i, shardChunk{err: err})
	}
	return true
}

func (p *shardPar) send(i int, c shardChunk) bool {
	select {
	case p.chans[i] <- c:
		return true
	case <-p.donech:
		return false
	}
}

// NextBatch returns the next received chunk of the current shard as one
// batch.
func (p *shardPar) NextBatch() Batch {
	if p.err != nil || p.done {
		return Batch{}
	}
	for {
		if p.si >= len(p.chans) {
			p.done = true
			return Batch{}
		}
		c, ok := <-p.chans[p.si]
		if !ok {
			// Shard retired: release its token so a worker may claim the
			// next shard beyond the look-ahead window. The claiming worker
			// acquired before closing, so the token is always present.
			p.si++
			<-p.tokens
			continue
		}
		if c.err != nil {
			p.err = c.err
			return Batch{}
		}
		return Batch{Items: c.items}
	}
}

func (p *shardPar) Err() error { return p.err }

// Close shuts the pool down: workers blocked on a send or a token acquire
// exit via donech, a worker mid-chunk finishes that chunk and exits on its
// next send, and every open shard cursor is closed by its worker's deferred
// Close. Close returns only after every worker has exited, so no pool
// goroutine outlives the cursor.
func (p *shardPar) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.done = true
	close(p.donech)
	p.wg.Wait()
}
