package hgraph_test

import (
	"sort"
	"testing"

	"repro/internal/dex"
	"repro/internal/hgraph"
	"repro/internal/workload"
)

// ladderMethods returns every non-native method of the six ladder apps at
// scale.
func ladderMethods(tb testing.TB, scale float64) []*dex.Method {
	tb.Helper()
	var methods []*dex.Method
	for _, p := range workload.Apps(scale) {
		app, _, err := workload.Generate(p)
		if err != nil {
			tb.Fatal(err)
		}
		for _, m := range app.Methods {
			if !m.Native {
				methods = append(methods, m)
			}
		}
	}
	return methods
}

var masksSink [][]uint32

// BenchmarkOptimize measures the IR stage of a cold compile: one op is
// Build, Optimize and LiveAfterMasks over every method of the six ladder
// apps at 0.05 (0.03 under -short). It also reports how many times each
// pass ran per op.
func BenchmarkOptimize(b *testing.B) {
	scale := 0.05
	if testing.Short() {
		scale = 0.03
	}
	methods := ladderMethods(b, scale)
	runs := map[string]int{}
	for _, m := range methods {
		g, err := hgraph.Build(m)
		if err != nil {
			b.Fatal(err)
		}
		for name, n := range hgraph.OptimizeCounting(g) {
			runs[name] += n
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range methods {
			g, err := hgraph.Build(m)
			if err != nil {
				b.Fatal(err)
			}
			masksSink = hgraph.LiveAfterMasks(g, hgraph.Optimize(g))
		}
	}
	b.StopTimer()
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.ReportMetric(float64(runs[name]), name+"-runs/op")
	}
	b.ReportMetric(float64(len(methods)), "methods/op")
}
