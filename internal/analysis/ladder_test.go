package analysis_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/oat"
	"repro/internal/workload"
)

// ladderScale shrinks the six app profiles for the exhaustive lint run;
// the full-scale pass is exercised by the soak test in the root package.
func ladderScale() float64 {
	if testing.Short() {
		return 0.03
	}
	return 0.12
}

func ladderConfigs() []struct {
	name string
	cfg  core.Config
} {
	return []struct {
		name string
		cfg  core.Config
	}{
		{"Baseline", core.Baseline()},
		{"CTOOnly", core.CTOOnly()},
		{"CTOLTBO", core.CTOLTBO()},
		{"CTOLTBOPl8", core.CTOLTBOPl(8)},
	}
}

// TestLintLadder is the acceptance gate: every app profile under every
// configuration of the evaluation ladder must lint clean, both straight
// out of the linker and after a Marshal/Unmarshal round trip (the state
// an untrusted cached image arrives in). This makes the analyzer a
// regression oracle for every future codegen or outliner change.
func TestLintLadder(t *testing.T) {
	for _, prof := range workload.Apps(ladderScale()) {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			app, _, err := workload.Generate(prof)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range ladderConfigs() {
				res, err := core.BuildCtx(context.Background(), app, c.cfg)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				assertClean(t, c.name+" linked", res.Image)

				blob, err := res.Image.Marshal()
				if err != nil {
					t.Fatalf("%s: marshal: %v", c.name, err)
				}
				img2, err := oat.Unmarshal(blob)
				if err != nil {
					t.Fatalf("%s: unmarshal: %v", c.name, err)
				}
				assertClean(t, c.name+" round-tripped", img2)
			}
		})
	}
}

func assertClean(t *testing.T, what string, img *oat.Image) {
	t.Helper()
	findings := lint(t, img)
	for i, f := range findings {
		if i == 12 {
			t.Errorf("... and %d more", len(findings)-i)
			break
		}
		t.Errorf("%s: %s", what, f)
	}
}

// TestAnalyzeReport sanity-checks the report statistics on one build.
func TestAnalyzeReport(t *testing.T) {
	img := buildApp(t, core.CTOLTBO())
	rep := analyze(t, img, 0)
	if len(rep.Methods) != len(img.Methods) {
		t.Fatalf("report covers %d methods, image has %d", len(rep.Methods), len(img.Methods))
	}
	if rep.Outlined == 0 {
		t.Error("CTOLTBO build produced no outlined functions")
	}
	if rep.TextBytes != img.TextBytes() {
		t.Errorf("TextBytes %d != %d", rep.TextBytes, img.TextBytes())
	}
	var insts, calls int
	for i, m := range rep.Methods {
		if m.ID != img.Methods[i].ID {
			t.Fatalf("summary %d is for m%d", i, m.ID)
		}
		if m.Blocks == 0 {
			t.Errorf("m%d recovered no blocks", m.ID)
		}
		insts += m.Insts
		calls += m.Calls
	}
	if insts == 0 || calls == 0 {
		t.Fatalf("implausible totals: %d instructions, %d calls", insts, calls)
	}
	if n := rep.ErrorCount(); n != 0 {
		t.Errorf("clean build reports %d errors", n)
	}
}

// buildApp compiles a small single app for the corruption tests.
func buildApp(t *testing.T, cfg core.Config) *oat.Image {
	t.Helper()
	app, _, err := workload.Generate(workload.Profile{
		Name: "lint", Seed: 42, Methods: 40,
		NativeFrac: 0.05, SwitchFrac: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Image
}

func ExampleLintCtx() {
	app, _, err := workload.Generate(workload.Profile{Name: "ex", Seed: 7, Methods: 25})
	if err != nil {
		panic(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.CTOLTBO())
	if err != nil {
		panic(err)
	}
	findings, err := analysis.LintCtx(context.Background(), res.Image, 0, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(findings))
	// Output: 0
}
