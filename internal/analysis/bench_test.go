package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/workload"
)

// BenchmarkAnalyze measures one full image-only verification (layout,
// thunk and outlined-function checks, per-method CFG and dataflow) of
// each ladder app's CTO+LTBO build, the image shape every post-link
// admission and re-verification sees. Run with -benchmem: allocations
// per op are the figure the dataflow state is tuned for.
func BenchmarkAnalyze(b *testing.B) {
	scale := 0.05
	if testing.Short() {
		scale = 0.03
	}
	for _, prof := range workload.Apps(scale) {
		b.Run(prof.Name, func(b *testing.B) {
			app, _, err := workload.Generate(prof)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Build(app, core.CTOLTBO())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := analysis.Analyze(res.Image); rep.ErrorCount() != 0 {
					b.Fatalf("clean build reports %d errors", rep.ErrorCount())
				}
			}
		})
	}
}
