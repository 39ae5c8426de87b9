package reoutline_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/reoutline"
	"repro/internal/workload"
)

// BenchmarkReoutline measures the post-hoc pass per ladder app on a
// build without link-time outlining: wall time per pass plus, as extra
// metrics, the bytes it saved and each stage's share of the work —
// the numbers `make bench-reoutline` archives in BENCH_reoutline.json.
func BenchmarkReoutline(b *testing.B) {
	scale := 0.05
	if testing.Short() {
		scale = 0.03
	}
	for _, prof := range workload.Apps(scale) {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			app, _, err := workload.Generate(prof)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.BuildCtx(context.Background(), app, core.CTOOnly())
			if err != nil {
				b.Fatal(err)
			}
			var st *reoutline.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err = reoutline.RunCtx(context.Background(), res.Image, reoutline.Config{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Saved()), "bytes-saved")
			b.ReportMetric(float64(st.LiftTime.Microseconds()), "lift-us")
			b.ReportMetric(float64(st.DetectTime.Microseconds()), "detect-us")
			b.ReportMetric(float64(st.RelinkTime.Microseconds()), "relink-us")
			b.ReportMetric(float64(st.VerifyTime.Microseconds()), "verify-us")
		})
	}
}
