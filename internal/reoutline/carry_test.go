package reoutline_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/reoutline"
	"repro/internal/workload"
)

// debloatedCTO builds an app's CTO-only image and debloats it to the
// manifest's drivers: the post-link input, carrying debloat's analysis.
func debloatedCTO(t *testing.T, prof workload.Profile, tracer *obs.Tracer) *oat.Image {
	t.Helper()
	app, man, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.CTOOnly())
	if err != nil {
		t.Fatal(err)
	}
	deb, _, err := core.DebloatImageCtx(context.Background(), res.Image,
		core.DebloatConfig{Roots: man.Drivers, Tracer: tracer})
	if err != nil {
		t.Fatalf("debloat: %v", err)
	}
	return deb
}

// untimed returns a copy of a reoutline.Stats with every duration zeroed.
func untimed(st *reoutline.Stats) reoutline.Stats {
	c := *st
	c.LiftTime, c.DetectTime, c.RelinkTime, c.VerifyTime = 0, 0, 0, 0
	if st.Outline != nil {
		o := *st.Outline
		o.SepScan, o.Symbolize, o.TreeBuild, o.Detect, o.Rewrite = 0, 0, 0, 0, 0
		c.Outline = &o
	}
	return c
}

// TestCarriedAnalysisByteIdentity re-outlines each ladder app's debloated
// image twice: once as debloat returned it, carrying its analysis, and
// once re-parsed from its bytes, carrying none. Reusing the analysis must
// not change a byte of the output or any non-time statistic.
func TestCarriedAnalysisByteIdentity(t *testing.T) {
	for _, prof := range workload.Apps(0.03) {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			deb := debloatedCTO(t, prof, nil)
			data, err := deb.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			bare, err := oat.Unmarshal(data)
			if err != nil {
				t.Fatal(err)
			}
			if deb.Attachment() == nil || bare.Attachment() != nil {
				t.Fatalf("attachments: debloated %v, re-parsed %v; want set and unset",
					deb.Attachment() != nil, bare.Attachment() != nil)
			}
			var imgs [2][]byte
			var stats [2]reoutline.Stats
			for i, in := range []*oat.Image{deb, bare} {
				out, st, err := core.ReoutlineImageCtx(context.Background(), in, core.ReoutlineConfig{})
				if err != nil {
					t.Fatalf("reoutline: %v", err)
				}
				if imgs[i], err = out.Marshal(); err != nil {
					t.Fatal(err)
				}
				stats[i] = untimed(st)
			}
			if string(imgs[0]) != string(imgs[1]) {
				t.Error("re-outlined images differ with and without the carried analysis")
			}
			if !reflect.DeepEqual(stats[0], stats[1]) {
				t.Errorf("stats differ:\n carried %+v\n fresh   %+v", stats[0], stats[1])
			}
		})
	}
}

// TestPostLinkAnalyzesEachImageOnce counts the verification passes of one
// debloat-then-reoutline op: the input, the debloated image and the
// re-outlined output are each verified once (lint.methods grows by one
// method table per pass; it grew by four before the analysis was
// carried), and the debloated image's analysis is reused twice, by
// reoutline's admission and by the original side of its paired
// re-verification. Inside the last two passes each method is analyzed at
// most once: the debloated image reuses the input's result for every kept
// method, and the re-outlined output reuses the debloated image's for at
// least every frozen method (analysis.methods_reused).
func TestPostLinkAnalyzesEachImageOnce(t *testing.T) {
	prof := workload.Apps(0.03)[0]
	tracer := obs.New()
	deb := debloatedCTO(t, prof, tracer)
	kept := 0
	for _, m := range deb.Methods {
		if m.Size > 0 {
			kept++
		}
	}
	if got := tracer.Snapshot().Counters["analysis.methods_reused"]; got != int64(kept) {
		t.Errorf("debloat: analysis.methods_reused = %d, want all %d kept methods", got, kept)
	}
	_, st, err := core.ReoutlineImageCtx(context.Background(), deb, core.ReoutlineConfig{Tracer: tracer})
	if err != nil {
		t.Fatalf("reoutline: %v", err)
	}
	counters := tracer.Snapshot().Counters
	if got, want := counters["lint.methods"], int64(3*len(deb.Methods)); got != want {
		t.Errorf("lint.methods = %d, want %d: three analyses of %d methods", got, want, len(deb.Methods))
	}
	if got := counters["analysis.reused"]; got != 2 {
		t.Errorf("analysis.reused = %d, want 2", got)
	}
	if got := counters["analysis.methods_reused"] - int64(kept); got < int64(st.MethodsFrozen) {
		t.Errorf("reoutline: analysis.methods_reused = %d, want at least the %d frozen methods", got, st.MethodsFrozen)
	}
}
