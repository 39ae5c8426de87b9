package outline

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/codegen"
	"repro/internal/suffixtree"
	"repro/internal/workload"
)

// BenchmarkDetect measures repeat detection and selection on the
// warm-relink input shape: Kuaishou's CTO build as one global group, the
// suffix tree, and the default options, serial. In "repeats" one op is
// detectGroup: buildSequence (separator scans, interning, pruning) plus
// the tree build and repeat enumeration. In "select" one op is
// outlineGroup: the same detection, then the ranking, the occurrence
// sweep and the greedy selection. Both report the symbols of the full
// sequence, the symbols the detector is given after pruning, and the
// bytes one suffix-tree build over them allocates (tree-B, its transient
// child table included). Run with -benchmem.
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
	seq, _, err := buildSequence(context.Background(), units, group, opts, &st)
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	suffixtree.Build(seq)
	runtime.ReadMemStats(&after)
	treeBytes := after.TotalAlloc - before.TotalAlloc

	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"repeats", func() error {
			_, _, _, err := detectGroup(context.Background(), units, group, opts, &st)
			return err
		}},
		{"select", func() error {
			_, _, _, err := outlineGroup(context.Background(), units, group, opts)
			return err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.op(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(full), "symbols")
			b.ReportMetric(float64(len(seq)), "kept-symbols")
			b.ReportMetric(float64(treeBytes), "tree-B")
		})
	}
}
