// Package plancache provides the bounded LRU cache the engine keeps its
// compiled query plans in. The cache is safe for concurrent use: lookups
// from many query goroutines interleave with invalidation from Declare and
// Unload. Values are expected to be immutable (compiled plans are), so a
// value handed out by GetOrCompute stays valid after eviction or Purge.
package plancache

import (
	"container/list"
	"errors"
	"sync"
)

// Cache is a bounded, concurrency-safe LRU map.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used
	items    map[K]*list.Element
	inflight map[K]*flight[V]
	hits     uint64
	misses   uint64

	// Eviction accounting keeps the two ways an entry can die apart: LRU
	// pressure (the cache is too small for the working set — a capacity
	// signal) versus Purge invalidation (Declare/Unload dropped every plan
	// on purpose — a correctness event). Lumping them together would make a
	// hot Declare path look like an undersized cache.
	evictionsLRU uint64
	invalidated  uint64
	coalesced    uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// flight is one in-progress computation that concurrent misses on the same
// key wait on instead of computing again.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most max entries; max <= 0 means a
// default capacity of 256.
func New[K comparable, V any](max int) *Cache[K, V] {
	if max <= 0 {
		max = 256
	}
	return &Cache[K, V]{max: max, ll: list.New(), items: map[K]*list.Element{}, inflight: map[K]*flight[V]{}}
}

// GetOrCompute returns the cached value for k, or computes and caches it.
// Concurrent misses on the same key are collapsed (singleflight): one caller
// runs compute, the others block until it finishes and share its result.
// Errors are returned to every waiter but never cached, so a later call
// retries. Each collapsed waiter still counts as one miss in Stats — it paid
// (part of) a compile wait.
//
// A Purge racing an in-flight compute does not cancel it; the computed value
// is inserted afterwards. That is sound for the engine's use because a key
// fully determines its value (query text + options), so a post-purge insert
// equals what an immediate recompute would produce.
func (c *Cache[K, V]) GetOrCompute(k K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		v := el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return v, nil
	}
	c.misses++
	if f, ok := c.inflight[k]; ok {
		c.coalesced++
		c.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.inflight[k] = f
	c.mu.Unlock()

	// Pre-set the error so waiters see a failure (not a zero value with a
	// nil error) if compute panics; the deferred cleanup runs either way,
	// so a panic cannot wedge the key for every later caller.
	f.err = errComputePanicked
	defer func() {
		c.mu.Lock()
		delete(c.inflight, k)
		if f.err == nil {
			// k is absent: only this flight inserts it. Insert it as most
			// recently used, evicting the least recently used when full.
			c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: f.val})
			if c.ll.Len() > c.max {
				oldest := c.ll.Back()
				c.ll.Remove(oldest)
				delete(c.items, oldest.Value.(*entry[K, V]).key)
				c.evictionsLRU++
			}
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	return f.val, f.err
}

// errComputePanicked is what singleflight waiters receive when the caller
// running compute panicked out of GetOrCompute. The panic itself propagates
// on the computing goroutine; a later call simply retries.
var errComputePanicked = errors.New("plancache: compute panicked")

// Purge drops every entry (cache invalidation on Declare/Unload). Hit and
// miss counters survive so long-running engines keep meaningful stats; the
// dropped entries count as invalidations, not LRU evictions.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidated += uint64(c.ll.Len())
	c.ll.Init()
	clear(c.items)
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache[K, V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns how many entries were dropped by LRU pressure and how
// many by Purge invalidation, separately — capacity problems and deliberate
// invalidation are different operational signals.
func (c *Cache[K, V]) Evictions() (lru, invalidated uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictionsLRU, c.invalidated
}

// Coalesced returns how many GetOrCompute callers joined another caller's
// in-flight compute instead of computing themselves (singleflight
// collapses). Each coalesced caller also counted one miss in Stats.
func (c *Cache[K, V]) Coalesced() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coalesced
}
