package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/dex"
	"repro/internal/workload"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: percentile must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},  // rank 90, exactly 10 beyond
		{99, 0.9, 0, false},   // rank 90, only 9 beyond
		{120, 0.9, 108, true}, // rank 108, 12 beyond
		{20, 0.5, 10, true},   // rank 10, 10 beyond
		{19, 0.5, 0, false},   // rank 10, 9 beyond
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	s := seq(100)
	percentile(s, 0.9)
	if s[0] != 100 {
		t.Error("percentile modified its input")
	}
}

func TestPerAppPercentileRefusesShortApp(t *testing.T) {
	if _, ok := perAppPercentile([][]float64{seq(100), seq(99)}, 0.9); ok {
		t.Error("p90 printed although one app has only 9 samples beyond it")
	}
	got, ok := perAppPercentile([][]float64{seq(100), seq(100)}, 0.9)
	if !ok || got != 90 {
		t.Errorf("p90 = %v, %v; want 90, true", got, ok)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{1, 10, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 10, 100) = %v, want 10", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
	if got := geomean([]float64{3, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestWholePassesTruncates(t *testing.T) {
	perApp := [][]float64{{1, 2, 3}, {1, 2}, {1, 2, 3}}
	got, passes := wholePasses(perApp)
	if passes != 2 {
		t.Fatalf("passes = %d, want 2", passes)
	}
	for i, s := range got {
		if len(s) != 2 {
			t.Errorf("app %d keeps %d samples, want 2", i, len(s))
		}
	}
}

func TestStopAfterPass(t *testing.T) {
	sec := time.Second
	cases := []struct {
		elapsed         time.Duration
		passes, min, mx int
		want            bool
	}{
		{2 * sec, 100, 100, 0, true},  // time and passes both reached
		{2 * sec, 99, 100, 0, false},  // too few passes for p90
		{sec / 2, 150, 100, 0, false}, // still inside the timed window
		{sec / 2, 40, 100, 40, true},  // inputs used up
	}
	for _, c := range cases {
		if got := stopAfterPass(c.elapsed, sec, c.passes, c.min, c.mx); got != c.want {
			t.Errorf("stopAfterPass(%v, %d, min %d, max %d) = %v", c.elapsed, c.passes, c.min, c.mx, got)
		}
	}
}

func marshalApps(t *testing.T, seed int64) [][]byte {
	t.Helper()
	var out [][]byte
	for _, p := range seeded(workload.Apps(0.02), seed) {
		app, _, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := dex.Marshal(app)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

func TestSeedChangesApps(t *testing.T) {
	a1, a1again, a2 := marshalApps(t, 1), marshalApps(t, 1), marshalApps(t, 2)
	for i := range a1 {
		if !bytes.Equal(a1[i], a1again[i]) {
			t.Errorf("app %d: the same seed generated different apps", i)
		}
		if bytes.Equal(a1[i], a2[i]) {
			t.Errorf("app %d: seeds 1 and 2 generated the same app", i)
		}
	}
}

func TestPartitionBalancesClients(t *testing.T) {
	owners := partition(workload.Apps(1), 2)
	if len(owners) != 2 || len(owners[0])+len(owners[1]) != 6 {
		t.Fatalf("owners = %v", owners)
	}
	if got := partition(workload.Apps(1), 1); len(got) != 1 || len(got[0]) != 6 {
		t.Errorf("one client should own every app, got %v", got)
	}
}

func TestLowQuartile(t *testing.T) {
	if got := lowQuartile(seq(8)); got != 2 {
		t.Errorf("lowQuartile(1..8) = %v, want 2", got)
	}
	if got := lowQuartile([]float64{7}); got != 7 {
		t.Errorf("lowQuartile of one sample = %v, want 7", got)
	}
}
