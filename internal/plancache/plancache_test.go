package plancache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

var errMiss = errors.New("miss")

// lookup returns k's cached value through GetOrCompute without inserting
// one: on a miss the compute fails, and a failed compute is never cached.
func lookup[K comparable, V any](c *Cache[K, V], k K) (V, bool) {
	v, err := c.GetOrCompute(k, func() (V, error) {
		var zero V
		return zero, errMiss
	})
	return v, err == nil
}

// put caches v under k through GetOrCompute when k is absent; a present k
// is a hit that only marks it most recently used.
func put[K comparable, V any](c *Cache[K, V], k K, v V) {
	c.GetOrCompute(k, func() (V, error) { return v, nil })
}

func TestGetPut(t *testing.T) {
	c := New[string, int](4)
	if _, ok := lookup(c, "a"); ok {
		t.Fatal("empty cache must miss")
	}
	put(c, "a", 1)
	if v, ok := lookup(c, "a"); !ok || v != 1 {
		t.Fatalf("lookup(a) = %v %v", v, ok)
	}
	put(c, "a", 2) // a hit: the cached value stays
	if v, _ := lookup(c, "a"); v != 1 {
		t.Fatalf("cached value replaced: %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 2 {
		t.Fatalf("stats = %d/%d, want 3/2", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int, int](3)
	for i := 0; i < 3; i++ {
		put(c, i, i)
	}
	lookup(c, 0) // 0 is now most recent; 1 is the LRU victim
	put(c, 3, 3)
	if _, ok := lookup(c, 1); ok {
		t.Fatal("1 should have been evicted")
	}
	for _, k := range []int{0, 2, 3} {
		if v, ok := lookup(c, k); !ok || v != k {
			t.Fatalf("%d should survive, got %v %v", k, v, ok)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestPurge(t *testing.T) {
	c := New[string, string](8)
	put(c, "x", "y")
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after purge = %d", c.Len())
	}
	if _, ok := lookup(c, "x"); ok {
		t.Fatal("purged entry returned")
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New[int, int](0)
	for i := 0; i < 300; i++ {
		put(c, i, i)
	}
	if c.Len() != 256 {
		t.Fatalf("default capacity = %d, want 256", c.Len())
	}
}

func TestGetOrComputeCachesValue(t *testing.T) {
	c := New[string, int](4)
	calls := 0
	compute := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.GetOrCompute("k", compute)
		if err != nil || v != 42 {
			t.Fatalf("GetOrCompute = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 2/1", hits, misses)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	if _, err := c.GetOrCompute("k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result must not be cached")
	}
	// A later call retries and can succeed.
	v, err := c.GetOrCompute("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %v, %v", v, err)
	}
}

// TestSingleflight pins that concurrent misses on the same key collapse into
// one compute: the first caller blocks inside compute while the rest arrive,
// and all of them observe the single result.
func TestSingleflight(t *testing.T) {
	c := New[string, int](4)
	const waiters = 8
	var calls atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	results := make(chan int, waiters)

	go func() {
		v, _ := c.GetOrCompute("k", func() (int, error) {
			calls.Add(1)
			close(entered)
			<-release
			return 99, nil
		})
		results <- v
	}()
	<-entered // the leader is inside compute; everyone else must wait on it
	var wg sync.WaitGroup
	for i := 0; i < waiters-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _ := c.GetOrCompute("k", func() (int, error) {
				calls.Add(1)
				return -1, nil
			})
			results <- v
		}()
	}
	close(release)
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if v := <-results; v != 99 {
			t.Fatalf("waiter got %d, want 99", v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
}

// TestGetOrComputePanicDoesNotWedge: a panicking compute must not leave the
// key permanently inflight — waiters get an error and a later call retries.
func TestGetOrComputePanicDoesNotWedge(t *testing.T) {
	c := New[string, int](4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.GetOrCompute("k", func() (int, error) { panic("boom") })
	}()
	if c.Len() != 0 {
		t.Fatal("panicked compute must not cache")
	}
	v, err := c.GetOrCompute("k", func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("retry after panic = %v, %v", v, err)
	}
}

func TestSingleflightDistinctKeys(t *testing.T) {
	// Distinct keys do not serialize behind each other.
	c := New[string, int](8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := fmt.Sprintf("k%d", i)
			v, err := c.GetOrCompute(k, func() (int, error) { return i, nil })
			if err != nil || v != i {
				t.Errorf("key %s = %v, %v", k, v, err)
			}
		}(i)
	}
	wg.Wait()
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%32)
				put(c, k, i)
				lookup(c, k)
				if i%100 == 0 {
					c.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEvictionAccounting pins the eviction split: capacity-pressure drops
// count as LRU evictions, Purge (the Declare/Unload invalidation path) counts
// every resident entry as invalidated, and the two never mix.
func TestEvictionAccounting(t *testing.T) {
	c := New[int, int](2)
	if lru, inv := c.Evictions(); lru != 0 || inv != 0 {
		t.Fatalf("fresh cache evictions = %d/%d", lru, inv)
	}
	put(c, 0, 0)
	put(c, 1, 1)
	put(c, 2, 2) // evicts 0 under capacity pressure
	if lru, inv := c.Evictions(); lru != 1 || inv != 0 {
		t.Fatalf("after overflow: lru=%d inv=%d, want 1/0", lru, inv)
	}
	put(c, 1, 10) // a hit, not an eviction
	if lru, _ := c.Evictions(); lru != 1 {
		t.Fatalf("hit counted as eviction: lru=%d", lru)
	}
	c.Purge() // both resident entries invalidated
	if lru, inv := c.Evictions(); lru != 1 || inv != 2 {
		t.Fatalf("after purge: lru=%d inv=%d, want 1/2", lru, inv)
	}
	c.Purge() // empty purge invalidates nothing
	if _, inv := c.Evictions(); inv != 2 {
		t.Fatalf("empty purge moved the count: inv=%d", inv)
	}
}

// TestCoalescedAccounting: every GetOrCompute waiter that joins an in-flight
// compute counts as one coalesced lookup.
func TestCoalescedAccounting(t *testing.T) {
	c := New[string, int](4)
	release := make(chan struct{})
	entered := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.GetOrCompute("k", func() (int, error) {
			close(entered)
			<-release
			return 7, nil
		})
	}()
	<-entered
	const waiters = 3
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, _ := c.GetOrCompute("k", func() (int, error) { return -1, nil }); v != 7 {
				t.Errorf("coalesced waiter got %d, want 7", v)
			}
		}()
	}
	// Wait until all waiters have joined the in-flight entry, then release.
	for c.Coalesced() < waiters {
	}
	close(release)
	wg.Wait()
	if got := c.Coalesced(); got != waiters {
		t.Fatalf("coalesced = %d, want %d", got, waiters)
	}
}
