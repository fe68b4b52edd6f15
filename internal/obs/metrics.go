// Package obs is the engine's telemetry layer: a dependency-free metrics
// registry (atomic counters, gauges and log₂-bucketed histograms), a bounded
// ring of query-lifecycle traces, a slow-query log, and the ops HTTP surface
// that serves all three (Prometheus text /metrics, expvar-style /debug/vars,
// /debug/queries). The package sits below every engine package — it imports
// only the standard library — so instrumentation points anywhere in the
// engine can hold its handles.
//
// Everything is nil-safe: a nil *Counter, *Histogram, *TraceRing or *SlowLog
// no-ops, so instrumented code never branches on "is telemetry configured"
// beyond a pointer check, and hot paths pay one atomic add per event, zero
// allocations.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter discards increments.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use; a
// nil Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log₂ buckets a histogram keeps: bucket i
// counts observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// 64 buckets cover the whole non-negative int64 range.
const histBuckets = 64

// Histogram is a log₂-bucketed distribution of non-negative int64
// observations (latencies in nanoseconds, sizes in rows). Observation is one
// atomic add on the bucket plus two on the sum/count — no locks, no
// allocation — so it is safe on query hot paths. The zero value is ready to
// use; a nil Histogram discards observations.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe folds one observation into the histogram. Negative values are
// ignored.
func (h *Histogram) Observe(v int64) {
	if h == nil || v < 0 {
		return
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot copies the bucket counts into dst (which must have histBuckets
// room) and returns count and sum. The copy is not atomic across buckets —
// scrapes tolerate observations landing mid-snapshot.
func (h *Histogram) snapshot(dst *[histBuckets]int64) (count, sum int64) {
	if h == nil {
		return 0, 0
	}
	for i := range h.buckets {
		dst[i] = h.buckets[i].Load()
	}
	return h.count.Load(), h.sum.Load()
}
