package analysis_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/oat"
	"repro/internal/reoutline"
	"repro/internal/workload"
)

// TestAnalyzeReportPin pins the full default-spec RunRulesPaired report — every finding's
// severity, method, offset, rule and message, every MethodSummary, and
// the image-level counts — over the six ladder apps at scale 0.03 under
// CTO-only and CTO+LTBO, their debloat (roots = the manifest's drivers)
// and reoutline outputs, and the mutated images the TestCorrupt* tests
// build. A change to the analyzer's internals is held to identical
// reports, not just "the ladder still lints clean". Regenerate
// (deliberately) with `go test ./internal/analysis -update`.
func TestAnalyzeReportPin(t *testing.T) {
	var sb strings.Builder
	pin := func(name string, img *oat.Image) {
		rep := analyze(t, img, 0)
		h := sha256.New()
		fmt.Fprintf(h, "thunks=%d outlined=%d text=%d\n", rep.Thunks, rep.Outlined, rep.TextBytes)
		for _, f := range rep.Findings {
			fmt.Fprintf(h, "F %d %d %d %q %q\n", f.Severity, f.Method, f.Off, f.Rule, f.Msg)
		}
		for _, m := range rep.Methods {
			fmt.Fprintf(h, "M %d %d %d %d %d %d\n", m.ID, m.Insts, m.DataWords, m.Blocks, m.DeadBlocks, m.Calls)
		}
		fmt.Fprintf(&sb, "%s findings=%d errors=%d %s\n",
			name, len(rep.Findings), rep.ErrorCount(), hex.EncodeToString(h.Sum(nil)))
	}

	for _, prof := range workload.Apps(0.03) {
		app, man, err := workload.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		roots := analysis.RootSet{Methods: man.Drivers}
		for _, c := range []struct {
			name string
			cfg  core.Config
		}{{"cto", core.CTOOnly()}, {"ltbo", core.CTOLTBO()}} {
			name := prof.Name + "-" + c.name
			res, err := core.BuildCtx(context.Background(), app, c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pin(name, res.Image)
			deb, _, err := analysis.DebloatCtx(context.Background(), res.Image, roots, 0, nil)
			if err != nil {
				t.Fatalf("%s: debloat: %v", name, err)
			}
			pin(name+"-debloat", deb)
			re, _, err := reoutline.RunCtx(context.Background(), res.Image, reoutline.Config{})
			if err != nil {
				t.Fatalf("%s: reoutline: %v", name, err)
			}
			pin(name+"-reoutline", re)
		}
	}
	for _, c := range corruptions {
		img, _, _ := c.build(t)
		pin("corrupt-"+c.name, img)
	}

	golden := filepath.Join("testdata", "report_pin.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if sb.String() != string(want) {
		t.Errorf("analysis reports changed:\n got:\n%s want:\n%s", sb.String(), string(want))
	}
}
