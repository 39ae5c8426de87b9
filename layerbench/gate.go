package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/emu"
	"repro/internal/hgraph"
	"repro/internal/oat"
	"repro/internal/par"
	"repro/internal/workload"
)

// verdict is the outcome of the correctness gate.
type verdict struct {
	failed      int
	problems    []string
	textRatio   float64
	cyclesRatio float64
}

// gateResult is the once-per-distinct-output check of one gated key.
type gateResult struct {
	problem     string
	textRatio   float64
	cyclesRatio float64
}

// verify runs after the timed window. Every op's output must hash-equal
// the reference for its key, built at Workers=1; that also checks the -j,
// cache-warmth and daemon-versus-library determinism contract. A matching
// output is byte-identical to its reference, so the lint and
// emulator-versus-interpreter checks run once, on the reference, per
// gated key; they also give the key's text and cycle ratios against the
// Baseline configuration. A key that fails a check fails all its ops.
func verify(ctx context.Context, r runner, recs []record, seed int64) (*verdict, error) {
	keys := sortedKeys(recs)
	workers := runtime.GOMAXPROCS(0)
	refs, err := par.MapCtx(ctx, workers, len(keys), func(i int) ([]byte, error) {
		return r.reference(ctx, keys[i])
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	gates, err := par.MapCtx(ctx, workers, len(keys), func(i int) (gateResult, error) {
		if !r.gated(keys[i]) {
			return gateResult{}, nil
		}
		app, man := r.input(keys[i])
		return gate(ctx, app, man, refs[i], seed)
	})
	if err != nil {
		return nil, fmt.Errorf("gate: %w", err)
	}

	v := &verdict{}
	want := map[outKey][32]byte{}
	bad := map[outKey]bool{}
	var texts, cycles []float64
	for i, k := range keys {
		want[k] = sha256.Sum256(refs[i])
		if !r.gated(k) {
			continue
		}
		g := gates[i]
		if g.problem != "" {
			bad[k] = true
			v.problems = append(v.problems, fmt.Sprintf("%s v%d: %s", r.roster()[k.app], k.version, g.problem))
			continue
		}
		texts = append(texts, g.textRatio)
		cycles = append(cycles, g.cyclesRatio)
	}
	mismatched := map[outKey]int{}
	for _, rec := range recs {
		switch {
		case rec.err != nil:
			v.failed++
			v.problems = append(v.problems, fmt.Sprintf("%s v%d: %v", r.roster()[rec.key.app], rec.key.version, rec.err))
		case rec.sum != want[rec.key]:
			v.failed++
			mismatched[rec.key]++
		case bad[rec.key]:
			v.failed++
		}
	}
	for k, n := range mismatched {
		v.problems = append(v.problems, fmt.Sprintf("%s v%d: %d outputs differ from the Workers=1 reference", r.roster()[k.app], k.version, n))
	}
	v.textRatio = geomean(texts)
	v.cyclesRatio = geomean(cycles)
	return v, nil
}

// gate lints one output image, runs the app's script on it in the
// emulator against the hgraph interpreter, and compares its text size and
// emulated cycles with a Baseline build of the same app.
func gate(ctx context.Context, app *dex.App, man *workload.Manifest, out []byte, seed int64) (gateResult, error) {
	img, err := oat.Unmarshal(out)
	if err != nil {
		return gateResult{problem: fmt.Sprintf("unmarshal: %v", err)}, nil
	}
	findings, err := analysis.LintCtx(ctx, img, 1, nil)
	if err != nil {
		return gateResult{}, err
	}
	if len(findings) > 0 {
		return gateResult{problem: fmt.Sprintf("%d lint findings, first: %s", len(findings), findings[0])}, nil
	}
	cfg := core.Baseline()
	cfg.Workers = 1
	base, err := core.BuildCtx(ctx, app, cfg)
	if err != nil {
		return gateResult{}, fmt.Errorf("baseline build: %w", err)
	}
	script := workload.Script(man, scriptRounds, seed)
	want := make([]hgraph.Result, len(script))
	for i, run := range script {
		ip := &hgraph.Interp{App: app, MaxDepth: 10_000}
		if want[i], err = ip.Run(run.Entry, run.Args[:]); err != nil {
			return gateResult{problem: fmt.Sprintf("run %d: interpreter: %v", i, err)}, nil
		}
	}
	outCycles, problem := differential(img, script, want)
	if problem != "" {
		return gateResult{problem: problem}, nil
	}
	baseCycles, problem := differential(base.Image, script, want)
	if problem != "" {
		return gateResult{problem: "baseline: " + problem}, nil
	}
	return gateResult{
		textRatio:   float64(img.TextBytes()) / float64(base.Image.TextBytes()),
		cyclesRatio: float64(outCycles) / float64(baseCycles),
	}, nil
}

// differential runs the script on the image, compares every run with the
// interpreter's result, and returns the emulated cycles or a description
// of the first divergence.
func differential(img *oat.Image, script []workload.Run, want []hgraph.Result) (int64, string) {
	m := emu.New(img)
	var cycles int64
	for i, run := range script {
		want := want[i]
		got, err := m.Run(run.Entry, run.Args[:])
		if err != nil {
			return 0, fmt.Sprintf("run %d: emulator: %v", i, err)
		}
		if got.Ret != want.Ret || got.Exc != want.Exc || !slices.Equal(got.Log, want.Log) {
			return 0, fmt.Sprintf("run %d (m%d): emulator ret=%d exc=%v, interpreter ret=%d exc=%v",
				i, run.Entry, got.Ret, got.Exc, want.Ret, want.Exc)
		}
		cycles += got.Cycles
	}
	return cycles, ""
}
