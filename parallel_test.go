package calibro

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// wechatApp generates the WeChat profile at a small scale: large enough to
// exercise CTO thunks, multi-tree outlining, and slow paths, small enough
// to build repeatedly.
func wechatApp(t *testing.T) *App {
	t.Helper()
	prof, ok := AppProfileByName("Wechat", 0.05)
	if !ok {
		t.Fatal("Wechat profile missing")
	}
	app, _, err := GenerateApp(prof)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestBuildDeterministicAcrossWorkers pins the -j contract: the worker
// count changes scheduling only, never output. A full CTO+LTBO+PlOpti
// build of the WeChat app must serialize to byte-identical images at
// every pool width, with the in-build verifier on so the parallel lint
// path runs too.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	app := wechatApp(t)
	images := map[int][]byte{}
	for _, j := range []int{1, 3, 8} {
		cfg := CTOLTBOPl(8)
		cfg.VerifyImage = true
		cfg.Workers = j
		res, err := Build(app, cfg)
		if err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		if res.Workers != j {
			t.Errorf("-j %d: Result.Workers = %d", j, res.Workers)
		}
		data, err := MarshalImage(res.Image)
		if err != nil {
			t.Fatalf("-j %d: %v", j, err)
		}
		images[j] = data
	}
	for _, j := range []int{3, 8} {
		if !bytes.Equal(images[1], images[j]) {
			t.Errorf("image built at -j %d differs from -j 1 (%d vs %d bytes)",
				j, len(images[j]), len(images[1]))
		}
	}
}

// TestConcurrentBuildsShareScratch runs several full builds at once, each
// with a wide worker pool and a live tracer. The
// compile and cache-hashing hot paths hand out scratch buffers from
// package-level sync.Pools, so concurrent builds recycle each other's
// buffers — this test is the race-detector surface for that sharing (and
// for the striped tracer and batched task pickup underneath), and pins
// that every concurrent build still produces the same bytes as a serial
// single-worker build.
func TestConcurrentBuildsShareScratch(t *testing.T) {
	app := wechatApp(t)

	ref := CTOLTBOPl(8)
	ref.Workers = 1
	refRes, err := Build(app, ref)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalImage(refRes.Image)
	if err != nil {
		t.Fatal(err)
	}

	const builds = 4
	images := make([][]byte, builds)
	errs := make([]error, builds)
	var wg sync.WaitGroup
	for g := 0; g < builds; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := CTOLTBOPl(8)
			cfg.Workers = 8
			cfg.VerifyImage = true
			cfg.Tracer = NewTracer()
			res, err := Build(app, cfg)
			if err != nil {
				errs[g] = err
				return
			}
			images[g], errs[g] = MarshalImage(res.Image)
		}(g)
	}
	wg.Wait()
	for g := 0; g < builds; g++ {
		if errs[g] != nil {
			t.Fatalf("concurrent build %d: %v", g, errs[g])
		}
		if !bytes.Equal(images[g], want) {
			t.Errorf("concurrent build %d differs from serial reference (%d vs %d bytes)",
				g, len(images[g]), len(want))
		}
	}
}

// TestLintDeterministicAcrossWorkers corrupts a linked image and checks
// that the analyzer reports the same findings in the same order at every
// pool width — the property the oatlint -j flag relies on.
func TestLintDeterministicAcrossWorkers(t *testing.T) {
	app := wechatApp(t)
	res, err := Build(app, CTOLTBOPl(4))
	if err != nil {
		t.Fatal(err)
	}
	img := res.Image
	// Smash one word in every fourth method so findings come from many
	// methods at once and any ordering bug across goroutines shows up.
	for i := 0; i < len(img.Methods); i += 4 {
		m := img.Methods[i]
		if m.Size == 0 {
			continue
		}
		img.Text[m.Offset/4] = 0xFFFFFFFF
	}
	serial := AnalyzeImage(img)
	if len(serial.Findings) == 0 {
		t.Fatal("corrupted image produced no findings")
	}
	ctx := context.Background()
	for _, j := range []int{1, 2, 8} {
		rep, err := analysis.RunRulesPaired(ctx, img, nil, nil, analysis.RootSet{}, j, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Findings, rep.Findings) {
			t.Errorf("-j %d: findings differ from serial analysis", j)
		}
		lint, err := analysis.LintCtx(ctx, img, j, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(LintImage(img), lint) {
			t.Errorf("-j %d: lint filter differs from serial lint", j)
		}
	}
}
