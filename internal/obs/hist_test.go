package obs

import (
	"sync"
	"testing"
)

// TestHistBoundsMonotone pins the bucket schedule's shape: strictly
// increasing bounds, starting at 1µs, ending past 2^32µs territory.
func TestHistBoundsMonotone(t *testing.T) {
	if histBounds[0] != 1 {
		t.Errorf("first bound = %d, want 1", histBounds[0])
	}
	for i := 1; i < len(histBounds); i++ {
		if histBounds[i] <= histBounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %d then %d",
				i, histBounds[i-1], histBounds[i])
		}
	}
	if last := histBounds[len(histBounds)-1]; last != 1<<32 {
		t.Errorf("last finite bound = %d, want 2^32", last)
	}
}

// TestHistogramEmpty: the zero value answers zeros everywhere and emits
// no buckets beyond the first.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.SumUS() != 0 || h.MaxUS() != 0 {
		t.Errorf("empty histogram: count=%d sum=%d max=%d", h.Count(), h.SumUS(), h.MaxUS())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("Quantile(%v) on empty = %d, want 0", q, got)
		}
	}
	st := h.Stats()
	if st.Count != 0 || st.TotalUS != 0 || st.P50US != 0 || st.P99US != 0 || st.MaxUS != 0 {
		t.Errorf("empty stats: %+v", st)
	}
}

// TestHistogramSingleSample: every quantile of a one-sample distribution
// is that sample (max-clamped, so exact even off a bucket bound).
func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(37)
	if h.Count() != 1 || h.SumUS() != 37 || h.MaxUS() != 37 {
		t.Errorf("count=%d sum=%d max=%d", h.Count(), h.SumUS(), h.MaxUS())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 37 {
			t.Errorf("Quantile(%v) = %d, want 37 (max clamp)", q, got)
		}
	}
}

// TestHistogramOverflow: samples beyond the last finite bound land in the
// overflow bucket and quantiles report the exact max, not a bound.
func TestHistogramOverflow(t *testing.T) {
	var h Histogram
	huge := int64(1) << 40 // ~13 days in µs, far past the last bound
	h.Observe(huge)
	h.Observe(10)
	if h.MaxUS() != huge {
		t.Errorf("max = %d, want %d", h.MaxUS(), huge)
	}
	if got := h.Quantile(1); got != huge {
		t.Errorf("p100 = %d, want %d", got, huge)
	}
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %d, want 10", got)
	}
	// The +Inf-only sample must not surface in finite buckets.
	var lastCum uint64
	h.Each(func(le int64, cum uint64) { lastCum = cum })
	if lastCum != 1 {
		t.Errorf("finite buckets hold %d samples, want 1 (overflow excluded)", lastCum)
	}
}

// TestHistogramPercentileMonotonicity: for arbitrary data, p50 <= p95 <=
// p99 <= max, and quantiles never exceed the exact max.
func TestHistogramPercentileMonotonicity(t *testing.T) {
	var h Histogram
	// A deterministic skewed sample: mostly small, long tail.
	v := int64(1)
	for i := 0; i < 1000; i++ {
		h.Observe(v % 90000)
		v = v*1664525 + 1013904223
		if v < 0 {
			v = -v
		}
	}
	st := h.Stats()
	if st.P50US > st.P95US || st.P95US > st.P99US || st.P99US > st.MaxUS {
		t.Errorf("percentiles not monotone: %+v", st)
	}
	if st.Count != 1000 {
		t.Errorf("count = %d, want 1000", st.Count)
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		if got := h.Quantile(q); got > st.MaxUS {
			t.Errorf("Quantile(%v) = %d exceeds max %d", q, got, st.MaxUS)
		}
	}
}

// TestHistogramQuantileAccuracy: on bucket-bound samples the histogram's
// nearest-rank answers are exact.
func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i)) // 1..100µs; small values hit dense buckets
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("p100 = %d, want 100", got)
	}
	// p50 over 1..100 has nearest rank 50; bucket (48,56] reports 56.
	if got := h.Quantile(0.5); got < 50 || got > 56 {
		t.Errorf("p50 = %d, want within (50,56]", got)
	}
}

// TestHistogramConcurrentObserve: concurrent observers lose nothing
// (run under -race in make race).
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Errorf("count = %d, want %d", h.Count(), goroutines*per)
	}
	if h.MaxUS() != 7*1000+per-1 {
		t.Errorf("max = %d, want %d", h.MaxUS(), 7*1000+per-1)
	}
}
