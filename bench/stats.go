package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the value is one outlier's latency, not a percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method. Above the median it refuses when fewer than
// minBeyond samples lie beyond the rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the mean of the two middle samples for even n, so it moves
// smoothly between runs; 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a count that did not happen).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// FNV-1a, 64 bit, fed incrementally: the output check of every workload
// hashes results with it.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func fnvAddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// metric is one reported number; Samples is how many measurements it
// summarises (0 for a count or a ratio of counts).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet keeps insertion order for the printed table, and the names of
// metrics that were set to NaN or an infinity: a probe that divides by a zero
// it should have measured must fail the run, not report a plausible number.
type metricSet struct {
	names []string
	m     map[string]metric
	bad   []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) MarshalJSON() ([]byte, error) { return json.Marshal(s.m) }

func (s *metricSet) set(name string, v float64, unit string, samples int) {
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.bad = append(s.bad, name)
	}
	s.m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// check fails when a metric is not a finite number.
func (s *metricSet) check() error {
	if len(s.bad) > 0 {
		return fmt.Errorf("metrics not finite: %v", s.bad)
	}
	return nil
}
