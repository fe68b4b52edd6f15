package soxq

import (
	"context"
	"fmt"
	"sort"

	"soxq/internal/core"
	"soxq/internal/tree"
	"soxq/internal/xqexec"
	"soxq/internal/xqplan"
)

// Corpus layer: a corpus is a named, ordered set of loaded documents, and a
// corpus query is the same compiled plan fanned out across the per-document
// region indexes — one shard per member document, executed one after
// another and merged back in corpus (document) order. Inside a shard the
// corpus URI resolves to that shard's member, so a query written as
//
//	doc("news")//scene/select-narrow::hit
//
// over a corpus named "news" runs once per member with doc("news") bound to
// each member in turn, exactly as if the member's own name had been written.
// Plan caching and the bounded-memory cursor pipeline apply unchanged; what
// the corpus layer adds is the fan-out, the document-order merge
// (internal/xqexec.MergeShards) and a result cache keyed by the catalog
// generation.

// CreateCorpus defines (or redefines) a corpus: an ordered list of loaded
// documents queried as one collection. Members must be loaded, distinct, and
// the corpus name must not shadow a loaded document — inside a corpus run the
// corpus URI resolves to each member in turn, so a same-named document could
// never be addressed. Redefinition replaces the member list atomically.
func (e *Engine) CreateCorpus(name string, members ...string) error {
	if name == "" {
		return fmt.Errorf("soxq: empty corpus name")
	}
	if len(members) == 0 {
		return fmt.Errorf("soxq: corpus %q needs at least one member document", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.docs[name]; ok {
		return fmt.Errorf("soxq: corpus name %q collides with a loaded document", name)
	}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if _, ok := e.docs[m]; !ok {
			return fmt.Errorf("soxq: corpus %q: member document %q is not loaded", name, m)
		}
		if seen[m] {
			return fmt.Errorf("soxq: corpus %q: duplicate member %q", name, m)
		}
		seen[m] = true
	}
	e.corpora[name] = append([]string(nil), members...)
	e.gen.Add(1)
	return nil
}

// DropCorpus removes a corpus definition. The member documents stay loaded.
func (e *Engine) DropCorpus(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.corpora[name]; !ok {
		return fmt.Errorf("soxq: no corpus %q", name)
	}
	delete(e.corpora, name)
	e.gen.Add(1)
	return nil
}

// Corpora returns the names of all defined corpora, sorted.
func (e *Engine) Corpora() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.corpora))
	for n := range e.corpora {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CorpusMembers returns the member documents of a corpus in corpus order —
// the order shard results merge back in.
func (e *Engine) CorpusMembers(name string) ([]string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	members, ok := e.corpora[name]
	if !ok {
		return nil, fmt.Errorf("soxq: no corpus %q", name)
	}
	return append([]string(nil), members...), nil
}

// CatalogGeneration returns the engine's catalog generation: a counter bumped
// by every document load/unload, annotation mutation, corpus definition, blob
// attach and Declare. The corpus result cache keys on it, so any of those
// events implicitly invalidates every cached result; compaction does not bump
// it (results are byte-identical across a compaction).
func (e *Engine) CatalogGeneration() uint64 { return e.gen.Load() }

// shard is one member document pinned for a corpus run.
type shard struct {
	name string
	doc  *tree.Doc
}

// corpusShards snapshots a corpus under one read lock: the member list and
// each member's current document snapshot. Every shard of the run drains
// this one catalog generation even while writers land new ones.
func (e *Engine) corpusShards(corpus string) ([]shard, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	members, ok := e.corpora[corpus]
	if !ok {
		return nil, fmt.Errorf("soxq: no corpus %q", corpus)
	}
	shards := make([]shard, len(members))
	for i, m := range members {
		d, ok := e.docs[m]
		if !ok {
			return nil, fmt.Errorf("soxq: corpus %q: member document %q is not loaded", corpus, m)
		}
		shards[i] = shard{name: m, doc: d}
	}
	return shards, nil
}

// corpusMerge builds the fan-out/merge cursor of one corpus run: one lazily
// built shard pipeline per member, drained through the cross-document merge.
// A shard's run view is pre-seeded so both the corpus URI and the member's
// own name resolve to the pinned member snapshot; any other document
// reference falls through to the engine.
func (p *Prepared) corpusMerge(ctx context.Context, corpus string, cfg Config, st *xqplan.ExecStats) (xqexec.Cursor, error) {
	shards, err := p.eng.corpusShards(corpus)
	if err != nil {
		return nil, err
	}
	p.eng.tel.corpusRun(len(shards))
	sources := make([]xqexec.ShardSource, len(shards))
	for i, sh := range shards {
		sources[i] = func() (xqexec.Cursor, error) {
			rv := &runView{eng: p.eng, opts: p.plan.Options()}
			rv.docs.put(corpus, sh.doc)
			rv.docs.put(sh.name, sh.doc)
			return p.build(ctx, cfg, st, rv)
		}
	}
	return xqexec.MergeShards(sources), nil
}

// StreamCorpus is Run over the named corpus with no context to cancel it:
// the compiled query executes once per member document and one cursor
// returns the merged result, the shard streams concatenated in corpus order,
// item-for-item identical to running the query against each member in turn.
// The shards run lazily one after another on the caller's goroutine, so
// memory stays proportional to the chunk size, never to the corpus size,
// and Close mid-stream never builds the remaining shards.
func (p *Prepared) StreamCorpus(corpus string, cfg Config) (*Cursor, error) {
	return p.Run(context.Background(), corpus, cfg)
}

// ExecCorpus is the materialising form of StreamCorpus: the merged corpus
// stream, chunked by cfg.StreamChunk exactly as StreamCorpus runs it,
// drained into a Result.
func (p *Prepared) ExecCorpus(corpus string, cfg Config) (*Result, error) {
	return drain(p.run(context.Background(), corpus, cfg, "exec"))
}

// resultKey identifies one cached corpus result. The catalog generation is
// part of the key, so a load/unload/mutation — which bumps the generation —
// orphans every older entry instead of requiring an explicit purge; orphans
// age out of the bounded LRU. Options are included because they change what
// a query means; execution tunables (mode, chunking) are not,
// because every execution style returns the identical sequence (pinned by
// the differential fuzz harness).
type resultKey struct {
	query  string
	corpus string
	gen    uint64
	opts   core.Options
}

// QueryCorpus runs q over the named corpus through both caches: the plan
// cache (shared with every other query path) and the corpus result cache. A
// result-cache hit skips execution entirely; concurrent misses on the same
// (query, corpus, generation) collapse into one execution via the cache's
// singleflight. Results are materialised — this is the endpoint for hot,
// repeated catalog queries; unbounded result sets should use StreamCorpus.
func (e *Engine) QueryCorpus(q, corpus string, cfg Config) (*Result, error) {
	p, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	// Snapshot the generation before fanning out: a mutation landing during
	// the run bumps the generation, so the entry written here is already
	// orphaned — the cache can serve stale entries only for runs that began
	// before the mutation, which is exactly the snapshot the in-flight
	// cursors drain anyway.
	key := resultKey{query: q, corpus: corpus, gen: e.gen.Load(), opts: p.plan.Options()}
	return e.results.GetOrCompute(key, func() (*Result, error) {
		return p.ExecCorpus(corpus, cfg)
	})
}

// ResultCacheStats reports the corpus result cache's cumulative hit and miss
// counts and its current size.
func (e *Engine) ResultCacheStats() (hits, misses uint64, size int) {
	hits, misses = e.results.Stats()
	return hits, misses, e.results.Len()
}
