package outline

import (
	"context"
	"testing"

	"repro/internal/codegen"
	"repro/internal/workload"
)

// BenchmarkDetect measures repeat detection on the warm-relink input
// shape: Kuaishou's CTO build as one global group, the suffix tree, and
// the default minimum length. One op is buildSequence (separator scans,
// interning, pruning) plus the tree build and repeat enumeration, serial.
// It reports the symbols of the full sequence and the symbols the
// detector is given after pruning. Run with -benchmem.
func BenchmarkDetect(b *testing.B) {
	scale := 0.12
	if testing.Short() {
		scale = 0.03
	}
	prof, _ := workload.AppByName("Kuaishou", scale)
	app, _, err := workload.Generate(prof)
	if err != nil {
		b.Fatal(err)
	}
	cms, err := codegen.CompileCtx(context.Background(), app, codegen.Options{CTO: true, Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	var units []Sequence
	var group []int
	full := 0
	for i, cm := range cms {
		units = append(units, methodSeq{cm: cm})
		if !cm.Meta.IsNative && !cm.Meta.HasIndirectJump {
			group = append(group, i)
			full += len(cm.Code) + 1
		}
	}
	opts := Options{Workers: 1}.withDefaults()
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = Stats{}
		if _, _, err := detectShards(context.Background(), units, group, opts, &st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(full), "symbols")
	b.ReportMetric(float64(st.SequenceSymbols), "kept-symbols")
}
