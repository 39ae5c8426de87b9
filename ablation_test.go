package calibro

// Ablation benchmarks for the design decisions DESIGN.md §4 calls out:
// minimum repeat length, the benefit-model threshold, the hot-set coverage
// fraction, the number of parallel trees, and function deduplication. Each
// prints a small sweep table; none corresponds to a paper table — they
// probe *why* the design is what it is.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/report"
)

// ablationApp returns a mid-size app bundle (Taobao) for the sweeps.
func ablationApp(b *testing.B) *appBundle {
	return suite(b)[1]
}

// sweep builds the ablation app under CTO+LTBO with one outliner knob
// set, through the same verified build every ladder config runs.
// Its outliner statistics are in the result's Outline.
func sweep(b *testing.B, ab *appBundle, set func(*core.Config)) *BuildResult {
	cfg := core.CTOLTBO()
	set(&cfg)
	res, err := core.BuildCtx(context.Background(), ab.app, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationMinLength sweeps the minimum repeat length (§3.3
// defaults to 2: the Figure 2 model already rejects unprofitable repeats,
// so raising the floor only loses coverage).
func BenchmarkAblationMinLength(b *testing.B) {
	ab := ablationApp(b)
	base := build(b, ab, "baseline").TextBytes()
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: minimum repeat length vs reduction",
			Header: []string{"min length", "text bytes", "reduction", "functions"},
		}
		var first float64
		for _, minLen := range []int{2, 3, 4, 6, 8} {
			res := sweep(b, ab, func(c *core.Config) { c.MinLength = minLen })
			red := float64(base-res.TextBytes()) / float64(base)
			if minLen == 2 {
				first = red
			}
			t.AddRow(fmt.Sprint(minLen), fmt.Sprint(res.TextBytes()),
				report.Pct(red), fmt.Sprint(res.Outline.OutlinedFunctions))
		}
		if i == 0 {
			fmt.Println(t)
		}
		b.ReportMetric(100*first, "minlen2-reduction-%")
	}
}

// BenchmarkAblationMinBenefit sweeps the Figure 2 benefit threshold.
func BenchmarkAblationMinBenefit(b *testing.B) {
	ab := ablationApp(b)
	base := build(b, ab, "baseline").TextBytes()
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: benefit threshold (Figure 2 model) vs reduction",
			Header: []string{"min benefit", "reduction", "functions", "occurrences"},
		}
		for _, minB := range []int{1, 2, 4, 8, 16, 32} {
			res := sweep(b, ab, func(c *core.Config) { c.MinBenefit = minB })
			t.AddRow(fmt.Sprint(minB),
				report.Reduction(base, res.TextBytes()),
				fmt.Sprint(res.Outline.OutlinedFunctions), fmt.Sprint(res.Outline.OutlinedOccurrences))
		}
		if i == 0 {
			fmt.Println(t)
		}
	}
}

// BenchmarkAblationHotFraction sweeps the §3.4.2 hot-set coverage rule
// (the paper uses 80% of execution time): larger fractions protect more
// code, trading size for speed.
func BenchmarkAblationHotFraction(b *testing.B) {
	ab := ablationApp(b)
	baseline := build(b, ab, "baseline")
	baseCycles := scripted(b, ab, "baseline", emu.InOrderCosts).cycles
	prof, err := CollectProfile(baseline.Image, ab.script)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: hot-set coverage fraction vs size and cycles (§3.4.2, paper uses 0.80)",
			Header: []string{"coverage", "hot methods", "reduction", "cycle degradation"},
		}
		for _, frac := range []float64{0, 0.5, 0.8, 0.95} {
			cfg := core.CTOLTBOPl(8)
			if frac > 0 {
				cfg.HotFilter = true
				cfg.Profile = prof
				cfg.HotFraction = frac
			}
			res, err := core.BuildCtx(context.Background(), ab.app, cfg)
			if err != nil {
				b.Fatal(err)
			}
			cycles := runScript(b, res.Image, ab.script, emu.InOrderCosts).cycles
			hotN := 0
			if frac > 0 {
				hotN = len(prof.HotSet(frac))
			}
			t.AddRow(fmt.Sprintf("%.2f", frac), fmt.Sprint(hotN),
				report.Reduction(baseline.TextBytes(), res.TextBytes()),
				report.Pct(float64(cycles-baseCycles)/float64(baseCycles)))
		}
		if i == 0 {
			fmt.Println(t)
		}
	}
}

// BenchmarkAblationTreeCount extends the §3.4.1 trade-off to a full sweep
// (the paper evaluates 8 trees and mentions the trade-off is tunable).
func BenchmarkAblationTreeCount(b *testing.B) {
	ab := ablationApp(b)
	base := build(b, ab, "baseline").TextBytes()
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: paralleled suffix tree count vs reduction and outline time (§3.4.1)",
			Header: []string{"trees", "reduction", "tree build", "detect"},
		}
		for _, k := range []int{1, 2, 4, 8, 16, 32} {
			res := sweep(b, ab, func(c *core.Config) { c.ParallelTrees = k })
			t.AddRow(fmt.Sprint(k),
				report.Reduction(base, res.TextBytes()),
				res.Outline.TreeBuild.Round(100_000).String(), res.Outline.Detect.Round(100_000).String())
		}
		if i == 0 {
			fmt.Println(t)
		}
	}
}

// BenchmarkAblationDedup measures, on every app, how much of the PlOpti
// loss cross-tree function deduplication recovers, and that it recovers
// nothing on one global tree.
func BenchmarkAblationDedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: cross-tree function deduplication (extension beyond the paper)",
			Header: []string{"app", "1 tree", "1 tree + dedup", "8 trees", "8 trees + dedup"},
		}
		for _, ab := range suite(b) {
			base := build(b, ab, "baseline").TextBytes()
			row := []string{ab.prof.Name}
			for _, trees := range []int{1, 8} {
				for _, dedup := range []bool{false, true} {
					res := sweep(b, ab, func(c *core.Config) { c.ParallelTrees, c.DedupFunctions = trees, dedup })
					row = append(row, report.Reduction(base, res.TextBytes()))
				}
			}
			t.AddRow(row...)
		}
		if i == 0 {
			fmt.Println(t)
		}
	}
}

// BenchmarkAblationCostModel re-measures the Table 7 cycle degradation
// under the two emulator cost models: the default in-order model charges
// every extra bl/br a cycle, while the out-of-order preset (closer to the
// paper's Tensor G2) hides transfer costs and leaves the I-cache as
// outlining's main price. This quantifies how much of the Table 7 gap in
// EXPERIMENTS.md is cost model rather than algorithm.
func BenchmarkAblationCostModel(b *testing.B) {
	ab := ablationApp(b)
	for i := 0; i < b.N; i++ {
		t := &report.Table{
			Title:  "\nAblation: cycle degradation under different core models (paper: +1.51% / +0.90%)",
			Header: []string{"core model", "PlOpti degradation", "PlOpti+HfOpti degradation"},
		}
		for _, cm := range []struct {
			name  string
			costs emu.CostModel
		}{
			{"in-order (default)", emu.InOrderCosts},
			{"out-of-order (Tensor-G2-like)", emu.OutOfOrderCosts},
		} {
			degradation := func(cfg string) string {
				base := scripted(b, ab, "baseline", cm.costs).cycles
				return report.Pct(float64(scripted(b, ab, cfg, cm.costs).cycles-base) / float64(base))
			}
			t.AddRow(cm.name, degradation("plopti"), degradation("hfopti"))
		}
		if i == 0 {
			fmt.Println(t)
		}
	}
}
