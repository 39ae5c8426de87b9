package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/workload"
)

// minBeyond is how many samples must lie strictly beyond a percentile's
// rank before the benchmark prints it: p90 needs at least 100 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples, and false
// when fewer than minBeyond samples lie beyond that rank. samples need
// not be sorted and is not modified.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median is the plain middle value (mean of the two middle values for an
// even count); it carries no sample-count requirement and is used for
// set-up repetitions and per-op layer values.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive values; it returns 0 when
// any value is non-positive or the input is empty.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// perAppPercentile computes the q-quantile of each app's samples and
// combines them with the geometric mean. It refuses (false) when any
// app lacks the samples beyond the rank.
func perAppPercentile(perApp [][]float64, q float64) (float64, bool) {
	vals := make([]float64, len(perApp))
	for i, s := range perApp {
		v, ok := percentile(s, q)
		if !ok {
			return 0, false
		}
		vals[i] = v
	}
	return geomean(vals), true
}

// wholePasses truncates per-app samples to the number of passes every
// app completed, so a pass that was cut short contributes to no app.
func wholePasses(perApp [][]float64) ([][]float64, int) {
	passes := -1
	for _, s := range perApp {
		if passes < 0 || len(s) < passes {
			passes = len(s)
		}
	}
	if passes < 0 {
		passes = 0
	}
	out := make([][]float64, len(perApp))
	for i, s := range perApp {
		out[i] = s[:passes]
	}
	return out, passes
}

// stopAfterPass decides, at a pass boundary, whether the run is over: it
// has measured for its time and completed the passes the percentiles need,
// or it has used up the inputs prepared for it.
func stopAfterPass(elapsed, budget time.Duration, passes, minPasses, maxPasses int) bool {
	if maxPasses > 0 && passes >= maxPasses {
		return true
	}
	return elapsed >= budget && passes >= minPasses
}

// lowQuartile is the nearest-rank 25th percentile, with no sample-count
// requirement. Interference (a concurrent GC, a busy neighbour) only ever
// slows a calibration sample, so the low quartile tracks the host's speed
// better than the median does.
func lowQuartile(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.25*float64(len(s))))-1]
}

// seeded perturbs each profile's generator seed with the workload seed,
// so a new seed yields new apps rather than a new order of the same ones.
func seeded(profiles []workload.Profile, seed int64) []workload.Profile {
	out := make([]workload.Profile, len(profiles))
	for i, p := range profiles {
		p.Seed = p.Seed*1_000_003 + seed
		out[i] = p
	}
	return out
}
