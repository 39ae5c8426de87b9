// Histogram is the bounded replacement for raw-sample duration slices.
// The serving daemon runs for days and observes a latency per job; a
// slice of every sample (what the queue-wait metric used to keep) grows
// the resident set linearly with traffic. A log-bucketed histogram keeps
// the same percentile answers inside a fixed array: counts are exact,
// percentiles are quantized to the bucket bounds (relative error bounded
// by the sub-bucket ratio, <= 25%), and the maximum is tracked exactly so
// the tail never reads as smaller than it was.
//
// The bucket schedule is microsecond-denominated: exact powers of two up
// to 8µs, then four linear sub-buckets per octave (1.25x, 1.5x, 1.75x,
// 2x) up to 2^32µs (~71 minutes), then one overflow bucket. The schedule
// is fixed at compile time, identical in every process, so bucket-level
// output (the Prometheus exposition) is comparable across daemons without
// negotiation.
//
// Observe is safe for concurrent use and allocation-free: one binary
// search over the bounds table plus four atomic updates. Readers
// (Quantile, Stats, Each) see a racy-but-consistent-enough view — counts
// observed mid-scan can be one sample stale, which is the usual metrics
// contract.

package obs

import (
	"sort"
	"sync/atomic"
)

// histBuckets is the fixed bucket count: len(histBounds) finite buckets
// plus one overflow bucket.
const histBuckets = 121

// histBounds holds the inclusive upper bound of each finite bucket, in
// microseconds. Built once at init; see the package comment for the
// schedule.
var histBounds = buildHistBounds()

func buildHistBounds() []int64 {
	var b []int64
	for v := int64(1); v <= 8; v *= 2 {
		b = append(b, v) // 1, 2, 4, 8
	}
	for base := int64(8); base < 1<<32; base *= 2 {
		step := base / 4
		for i := int64(1); i <= 4; i++ {
			b = append(b, base+step*i) // 1.25x .. 2x per octave
		}
	}
	if len(b) != histBuckets-1 {
		panic("obs: histogram bucket schedule does not match histBuckets")
	}
	return b
}

// Histogram is a bounded log-bucketed distribution of microsecond
// durations. The zero value is ready to use. Safe for concurrent use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketIndex maps a sample to its bucket: the first bound >= v, or the
// overflow bucket when v exceeds every bound.
func bucketIndex(v int64) int {
	return sort.Search(len(histBounds), func(i int) bool { return histBounds[i] >= v })
}

// Observe records one duration in microseconds. Negative samples clamp
// to zero (they can only come from clock anomalies; losing them to the
// first bucket beats corrupting the sum).
func (h *Histogram) Observe(us int64) {
	if us < 0 {
		us = 0
	}
	h.counts[bucketIndex(us)].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
	for {
		cur := h.max.Load()
		if us <= cur || h.max.CompareAndSwap(cur, us) {
			return
		}
	}
}

// merge adds every sample o holds to h, a private accumulator no other
// goroutine observes into.
func (h *Histogram) merge(o *Histogram) {
	for i := range h.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	if m := o.max.Load(); m > h.max.Load() {
		h.max.Store(m)
	}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SumUS returns the exact sum of all observed samples, µs.
func (h *Histogram) SumUS() int64 { return h.sum.Load() }

// MaxUS returns the exact largest observed sample, µs (0 when empty).
func (h *Histogram) MaxUS() int64 { return h.max.Load() }

// Quantile returns the nearest-rank q-quantile (q in [0,1]) as the upper
// bound of the bucket holding that rank, clamped to the exact observed
// maximum so quantization never reports a value beyond the real tail.
// An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Nearest rank: ceil(q*n), at least 1.
	target := int64(q*float64(n) + 0.999999)
	if target < 1 {
		target = 1
	}
	max := h.max.Load()
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += int64(h.counts[i].Load())
		if cum >= target {
			if i >= len(histBounds) || histBounds[i] > max {
				return max
			}
			return histBounds[i]
		}
	}
	// Concurrent observers can leave the per-bucket scan one sample short
	// of the count read above; the tail answer is the max either way.
	return max
}

// Stats reduces the histogram to the flat TaskStats record the metrics
// snapshot and the serving layer report.
func (h *Histogram) Stats() TaskStats {
	return TaskStats{
		Count:   int(h.count.Load()),
		TotalUS: h.sum.Load(),
		P50US:   h.Quantile(0.50),
		P95US:   h.Quantile(0.95),
		P99US:   h.Quantile(0.99),
		MaxUS:   h.max.Load(),
	}
}

// Each visits the finite buckets in ascending bound order with their
// cumulative counts, stopping after the bucket that contains the maximum
// observed sample (every later bucket would repeat the same cumulative
// count). Samples in the overflow bucket appear only in the +Inf bucket,
// which the caller derives from Count() — the shape Prometheus histogram
// exposition wants.
func (h *Histogram) Each(f func(leUS int64, cumulative uint64)) {
	max := h.max.Load()
	var cum uint64
	for i, bound := range histBounds {
		cum += h.counts[i].Load()
		f(bound, cum)
		if bound >= max {
			return
		}
	}
}
