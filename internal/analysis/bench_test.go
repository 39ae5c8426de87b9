package analysis_test

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/oat"
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
			res, err := core.BuildCtx(context.Background(), app, core.CTOLTBO())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := analyze(b, res.Image, 0); rep.ErrorCount() != 0 {
					b.Fatalf("clean build reports %d errors", rep.ErrorCount())
				}
			}
		})
	}
}

// BenchmarkDebloat measures one debloat of each ladder app's CTO-only
// build with the manifest's drivers as roots, the post-link workload's
// first pass: admission of the input, the rewrite, and the re-verification
// of the output. Run with -benchmem: the output's verification reuses the
// input's per-method analysis, and allocations per op show it.
func BenchmarkDebloat(b *testing.B) {
	scale := 0.05
	if testing.Short() {
		scale = 0.03
	}
	for _, prof := range workload.Apps(scale) {
		b.Run(prof.Name, func(b *testing.B) {
			app, man, err := workload.Generate(prof)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.BuildCtx(context.Background(), app, core.CTOOnly())
			if err != nil {
				b.Fatal(err)
			}
			data, err := res.Image.Marshal()
			if err != nil {
				b.Fatal(err)
			}
			roots := analysis.RootSet{Methods: man.Drivers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh parse each time: the input carries no analysis.
				b.StopTimer()
				img, err := oat.Unmarshal(data)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := analysis.DebloatCtx(context.Background(), img, roots, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
