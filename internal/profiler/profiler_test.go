package profiler

import (
	"context"
	"testing"

	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/workload"
)

func buildImage(t *testing.T) (*oat.Image, *workload.Manifest) {
	t.Helper()
	app, man, err := workload.Generate(workload.Profile{
		Name: "p", Seed: 13, Methods: 100, HotFrac: 0.05, HotLoopIters: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	methods, err := codegen.CompileCtx(context.Background(), app, codegen.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	img, err := oat.Link(methods, nil)
	if err != nil {
		t.Fatal(err)
	}
	return img, man
}

func TestCollectAttributesSamples(t *testing.T) {
	img, man := buildImage(t)
	prof, err := Collect(img, workload.Script(man, 2, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if prof.TotalSamples == 0 || len(prof.Functions) == 0 {
		t.Fatalf("no samples: %+v", prof)
	}
	var sum int64
	for i, f := range prof.Functions {
		sum += f.Samples
		if i > 0 && f.Samples > prof.Functions[i-1].Samples {
			t.Fatal("functions not sorted by samples")
		}
	}
	if sum+prof.OtherSamples != prof.TotalSamples {
		t.Errorf("samples do not add up: %d + %d != %d", sum, prof.OtherSamples, prof.TotalSamples)
	}
}

func TestHotSetCoverageRule(t *testing.T) {
	img, man := buildImage(t)
	prof, err := Collect(img, workload.Script(man, 2, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	hot := prof.HotSet(0.8)
	var methodTotal, hotTotal int64
	for _, f := range prof.Functions {
		methodTotal += f.Samples
		if hot[f.Method] {
			hotTotal += f.Samples
		}
	}
	if float64(hotTotal) < 0.8*float64(methodTotal) {
		t.Errorf("hot set covers %d of %d samples (< 80%%)", hotTotal, methodTotal)
	}
	// Removing the smallest hot member must drop coverage below 80%:
	// minimality of the prefix rule.
	var smallest dex.MethodID
	var min int64 = 1 << 62
	for _, f := range prof.Functions {
		if hot[f.Method] && f.Samples < min {
			min, smallest = f.Samples, f.Method
		}
	}
	if float64(hotTotal-min) >= 0.8*float64(methodTotal) {
		t.Errorf("hot set not minimal: dropping m%d keeps coverage", smallest)
	}
}

// TestHotSetShuffledProfile feeds HotSet a profile whose function list is
// NOT sorted by descending samples — the shape a caller-constructed or
// future-deserialized profile has. The hot set must equal the one computed
// from the sorted profile, and the input must not be reordered in place.
func TestHotSetShuffledProfile(t *testing.T) {
	sorted := &Profile{
		TotalSamples: 1000,
		Functions: []FunctionProfile{
			{Method: 4, Samples: 500},
			{Method: 1, Samples: 300},
			{Method: 7, Samples: 150},
			{Method: 2, Samples: 40},
			{Method: 9, Samples: 10},
		},
	}
	// Worst-case shuffle: ascending by samples, so a prefix walk over the
	// raw slice would pick the *coldest* functions first.
	shuffled := &Profile{
		TotalSamples: 1000,
		Functions: []FunctionProfile{
			{Method: 9, Samples: 10},
			{Method: 2, Samples: 40},
			{Method: 7, Samples: 150},
			{Method: 1, Samples: 300},
			{Method: 4, Samples: 500},
		},
	}
	want := sorted.HotSet(0.8)
	got := shuffled.HotSet(0.8)
	if len(want) == 0 {
		t.Fatal("sorted profile produced an empty hot set")
	}
	if len(got) != len(want) {
		t.Fatalf("shuffled hot set has %d members, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Errorf("shuffled hot set is missing m%d", id)
		}
	}
	// 500+300 = 800 covers exactly 80%: the hot set is {m4, m1}.
	if !got[4] || !got[1] || len(got) != 2 {
		t.Errorf("hot set = %v, want {m4, m1}", got)
	}
	if shuffled.Functions[0].Method != 9 {
		t.Error("HotSet reordered the caller's Functions slice")
	}
}

// TestHotSetTieBreak checks the deterministic MethodID tie-break between
// functions with equal sample counts.
func TestHotSetTieBreak(t *testing.T) {
	p := &Profile{
		Functions: []FunctionProfile{
			{Method: 8, Samples: 100},
			{Method: 3, Samples: 100},
			{Method: 5, Samples: 100},
		},
	}
	// target = 0.5*300 = 150: the first sorted entry (m3) is not enough,
	// the second (m5) tips it over. m8 stays cold.
	hot := p.HotSet(0.5)
	if !hot[3] || !hot[5] || hot[8] {
		t.Errorf("hot set = %v, want {m3, m5}", hot)
	}
}

func TestHotSetEmptyProfile(t *testing.T) {
	p := &Profile{}
	if len(p.HotSet(0.8)) != 0 {
		t.Error("empty profile produced a hot set")
	}
}

func TestCollectEmptyScript(t *testing.T) {
	img, _ := buildImage(t)
	if _, err := Collect(img, nil, 0); err == nil {
		t.Error("empty script accepted")
	}
}

func TestCustomPeriod(t *testing.T) {
	img, man := buildImage(t)
	script := workload.Script(man, 1, 3)
	coarse, err := Collect(img, script, 1009)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Collect(img, script, 31)
	if err != nil {
		t.Fatal(err)
	}
	if fine.TotalSamples <= coarse.TotalSamples {
		t.Errorf("finer period took fewer samples: %d <= %d", fine.TotalSamples, coarse.TotalSamples)
	}
}
