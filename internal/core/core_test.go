package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dex"
	"repro/internal/emu"
	"repro/internal/hgraph"
	"repro/internal/profiler"
	"repro/internal/workload"
)

func testApp(t *testing.T, methods int) (*dex.App, *workload.Manifest) {
	t.Helper()
	app, man, err := workload.Generate(workload.Profile{
		Name: "core", Seed: 17, Methods: methods,
		NativeFrac: 0.05, SwitchFrac: 0.08, HotFrac: 0.06,
		HotLoopIters: 60, WarmLoopIters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app, man
}

// TestConfigLadderShrinksText walks the paper's configuration ladder and
// checks the Table 4 ordering: every optimization shrinks the baseline;
// parallel trees and hot filtering give back some of LTBO's reduction.
func TestConfigLadderShrinksText(t *testing.T) {
	app, man := testApp(t, 120)
	script := workload.Script(man, 3, 1)

	base, err := BuildCtx(context.Background(), app, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	cto, err := BuildCtx(context.Background(), app, CTOOnly())
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildCtx(context.Background(), app, CTOLTBO())
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildCtx(context.Background(), app, CTOLTBOPl(6))
	if err != nil {
		t.Fatal(err)
	}
	hf, _, err := ProfileGuidedBuildCtx(context.Background(), app, CTOLTBOPl(6), script)
	if err != nil {
		t.Fatal(err)
	}

	b, c, f, p, h := base.TextBytes(), cto.TextBytes(), full.TextBytes(), par.TextBytes(), hf.TextBytes()
	if !(c < b) {
		t.Errorf("CTO %d !< baseline %d", c, b)
	}
	if !(f < c) {
		t.Errorf("CTO+LTBO %d !< CTO %d", f, c)
	}
	if !(f <= p && p <= h) {
		t.Errorf("ordering violated: full=%d parallel=%d hotfilter=%d", f, p, h)
	}
	if !(h < b) {
		t.Errorf("all optimizations %d !< baseline %d", h, b)
	}
	if full.Outline == nil || full.Outline.OutlinedFunctions == 0 {
		t.Error("LTBO stats missing")
	}
	if base.Outline != nil {
		t.Error("baseline has outline stats")
	}
}

// TestAllConfigsBehaveIdentically: every configuration's image computes
// the same observables as the reference interpreter.
func TestAllConfigsBehaveIdentically(t *testing.T) {
	app, man := testApp(t, 60)
	script := workload.Script(man, 2, 2)

	configs := map[string]func() (*Result, error){
		"baseline": func() (*Result, error) { return BuildCtx(context.Background(), app, Baseline()) },
		"cto":      func() (*Result, error) { return BuildCtx(context.Background(), app, CTOOnly()) },
		"ltbo":     func() (*Result, error) { return BuildCtx(context.Background(), app, CTOLTBO()) },
		"parallel": func() (*Result, error) { return BuildCtx(context.Background(), app, CTOLTBOPl(4)) },
		"hotfilter": func() (*Result, error) {
			r, _, err := ProfileGuidedBuildCtx(context.Background(), app, CTOLTBOPl(4), script)
			return r, err
		},
	}
	for name, build := range configs {
		res, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, run := range script[:3] {
			ip := &hgraph.Interp{App: app, MaxDepth: 10_000}
			want, err := ip.Run(run.Entry, run.Args[:])
			if err != nil {
				t.Fatal(err)
			}
			got, err := emu.New(res.Image).Run(run.Entry, run.Args[:])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want.Ret != got.Ret || want.Exc != got.Exc || !reflect.DeepEqual(want.Log, got.Log) {
				t.Fatalf("%s diverges on m%d%v", name, run.Entry, run.Args)
			}
		}
	}
}

// TestNamedLadder: every ladder name resolves to its constructor, hfopti
// adds the hot filter to plopti, and anything else is refused.
func TestNamedLadder(t *testing.T) {
	hf := CTOLTBOPl(4)
	hf.HotFilter = true
	for name, want := range map[string]Config{
		"baseline": Baseline(),
		"cto":      CTOOnly(),
		"ltbo":     CTOLTBO(),
		"plopti":   CTOLTBOPl(4),
		"hfopti":   hf,
	} {
		got, err := Named(name, 4)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Named(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	if _, err := Named("turbo", 4); err == nil || err.Error() != `unknown config "turbo"` {
		t.Errorf("Named(turbo) err = %v", err)
	}
}

func TestHotFilterRequiresProfile(t *testing.T) {
	app, _ := testApp(t, 20)
	cfg := CTOLTBO()
	cfg.HotFilter = true
	if _, err := BuildCtx(context.Background(), app, cfg); err == nil {
		t.Fatal("hot filter without profile accepted")
	}
}

func TestProfileFindsPlantedHotMethods(t *testing.T) {
	app, man := testApp(t, 150)
	script := workload.Script(man, 3, 3)
	res, err := BuildCtx(context.Background(), app, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profiler.Collect(res.Image, script, 0)
	if err != nil {
		t.Fatal(err)
	}
	if prof.TotalSamples == 0 {
		t.Fatal("no samples")
	}
	hot := prof.HotSet(0.8)
	if len(hot) == 0 {
		t.Fatal("empty hot set")
	}
	// The planted hot-loop methods should dominate the measured hot set.
	planted := map[dex.MethodID]bool{}
	for _, id := range man.Hot {
		planted[id] = true
	}
	found := 0
	for _, id := range man.Hot {
		if hot[id] {
			found++
		}
	}
	if found*2 < len(man.Hot) {
		t.Errorf("profiler found %d/%d planted hot methods; hot set %d", found, len(man.Hot), len(hot))
	}
	// The hot set obeys the 80%% coverage rule: it must be a small
	// fraction of all executed methods.
	if len(hot) > len(prof.Functions)/2 {
		t.Errorf("hot set %d of %d functions is not selective", len(hot), len(prof.Functions))
	}
}

func TestBuildTimesRecorded(t *testing.T) {
	app, _ := testApp(t, 30)
	res, err := BuildCtx(context.Background(), app, CTOLTBO())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompileTime <= 0 || res.OutlineTime <= 0 || res.StageTime() < res.CompileTime {
		t.Errorf("times: compile=%v outline=%v link=%v", res.CompileTime, res.OutlineTime, res.LinkTime)
	}
	if res.WallTime < res.StageTime() {
		t.Errorf("WallTime %v below the stage sum %v; it must cover the whole build", res.WallTime, res.StageTime())
	}
}

// TestVerifyImage exercises the opt-in post-link verification: a clean
// build passes (and records the verification time), and a config that
// would produce findings fails the build rather than returning an image.
func TestVerifyImage(t *testing.T) {
	app, _ := testApp(t, 40)
	cfg := CTOLTBO()
	cfg.VerifyImage = true
	res, err := BuildCtx(context.Background(), app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyTime <= 0 {
		t.Error("VerifyImage build recorded no verification time")
	}
	if res.StageTime() < res.VerifyTime {
		t.Error("StageTime excludes VerifyTime")
	}
	if res.WallTime < res.VerifyTime {
		t.Error("WallTime excludes VerifyTime")
	}

	off, err := BuildCtx(context.Background(), app, CTOLTBO())
	if err != nil {
		t.Fatal(err)
	}
	if off.VerifyTime != 0 {
		t.Error("verification ran without the flag")
	}
}
