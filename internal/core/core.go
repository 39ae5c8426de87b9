// Package core orchestrates the Calibro pipeline of Figure 5: per-method
// HGraph optimization and code generation (with CTO and LTBO.1 metadata
// collection), link-time binary outlining (LTBO.2, optionally over K
// parallel suffix trees, optionally hot-function-filtered), and final
// linking into an OAT image. It also implements the profile-guided rebuild
// loop of Figure 6.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/outline"
	"repro/internal/par"
	"repro/internal/profiler"
	"repro/internal/reoutline"
	"repro/internal/workload"
)

// Config selects the optimization configuration, mirroring the paper's
// evaluated method names (§4.1).
type Config struct {
	// CTO enables compilation-time outlining of the three ART patterns.
	CTO bool
	// LTBO enables linking-time binary outlining.
	LTBO bool
	// ParallelTrees is the number of partitioned suffix trees (PlOpti);
	// values <= 1 build one global tree.
	ParallelTrees int
	// Deprecated: DetectShards is ignored; each tree is detected as a
	// whole.
	DetectShards int
	// HotFilter, together with Profile, excludes the hottest functions
	// from outlining (HfOpti).
	HotFilter bool
	Profile   *profiler.Profile
	// HotFraction is the cycle-coverage cut for the hot set (paper: 0.8).
	HotFraction float64
	// OptimizeIR runs the HGraph pass pipeline; the paper's baseline
	// ("all available code size optimization enabled") keeps it on.
	OptimizeIR bool
	// MinLength/MinBenefit tune the outliner (defaults per §3.3).
	MinLength  int
	MinBenefit int
	// DedupFunctions merges identical outlined bodies across trees.
	DedupFunctions bool
	// Deprecated: Detector is ignored; repeats are always detected with
	// one suffix tree per group.
	Detector outline.DetectorKind
	// Deprecated: Rounds is ignored; the outliner runs one pass.
	Rounds int
	// VerifyImage runs the static image verifier (internal/analysis) on
	// the linked image and fails the build on any warning or error. It is
	// the image-only counterpart of the always-on outline.VerifyRewriteCtx:
	// it needs no compile-time snapshot, so it checks exactly what a
	// loader of the serialized image could check.
	VerifyImage bool
	// Workers bounds the goroutines every per-method pipeline stage
	// (compile, outline, rewrite verification, image lint) fans out on;
	// <= 0 selects runtime.GOMAXPROCS(0). The determinism contract is
	// that the linked image — and any error — is byte-identical for
	// every value; only wall-clock time changes. The cmd/calibro and
	// cmd/oatlint -j flags set this.
	Workers int
	// Tracer, when non-nil, records the build's telemetry: a root
	// "build" span, one "stage" span per pipeline stage (compile,
	// outline, link, verify), per-method and per-group task spans on
	// worker lanes, and the outline.Stats counters. Tracing observes
	// only — the determinism contract holds with it on: the linked
	// image is byte-identical whether Tracer is live or nil, at every
	// Workers value. The cmd/calibro -trace/-metrics/-stats flags set
	// this.
	Tracer *obs.Tracer
	// Cache, when non-nil, is the content-addressed compilation cache the
	// compile stage consults before generating any code: methods whose
	// bytecode, referenced-method signatures, and codegen knobs are
	// already stored decode the cached artifact instead of compiling. The
	// same determinism contract as Workers and Tracer applies — a warm
	// build serializes to a byte-identical image at every pool width, and
	// corrupt or stale entries degrade to recompilation, never an error.
	// The cmd/calibro -cache/-cache-dir flags set this.
	Cache *cache.Cache
}

// Baseline is the original AOSP configuration.
func Baseline() Config { return Config{OptimizeIR: true} }

// CTOOnly enables only compilation-time outlining.
func CTOOnly() Config { return Config{OptimizeIR: true, CTO: true} }

// CTOLTBO enables both outliners with a single global suffix tree.
func CTOLTBO() Config { return Config{OptimizeIR: true, CTO: true, LTBO: true} }

// CTOLTBOPl adds the paralleled suffix tree optimization.
func CTOLTBOPl(k int) Config {
	c := CTOLTBO()
	c.ParallelTrees = k
	return c
}

// Named resolves a ladder configuration by the name the calibro -config
// flag and calibrod's config field accept: baseline, cto, ltbo, plopti
// (CTOLTBOPl(trees)), or hfopti (plopti with HotFilter set — the profile
// comes from ProfileGuidedBuildCtx, which callers run whenever HotFilter
// is set).
func Named(name string, trees int) (Config, error) {
	switch name {
	case "baseline":
		return Baseline(), nil
	case "cto":
		return CTOOnly(), nil
	case "ltbo":
		return CTOLTBO(), nil
	case "plopti":
		return CTOLTBOPl(trees), nil
	case "hfopti":
		c := CTOLTBOPl(trees)
		c.HotFilter = true
		return c, nil
	}
	return Config{}, fmt.Errorf("unknown config %q", name)
}

// Result is a completed build.
type Result struct {
	Image   *oat.Image
	Methods []*codegen.CompiledMethod
	Outline *outline.Stats // nil when LTBO is off

	// Workers is the resolved pool width the parallel stages ran with,
	// so build-time reports (Table 6) can label their columns.
	Workers int

	// Per-stage wall-clock times. Compile, outline, and verify are
	// parallel stages: these are elapsed times at Workers width, not CPU
	// time summed over the pool.
	CompileTime time.Duration
	OutlineTime time.Duration
	LinkTime    time.Duration
	VerifyTime  time.Duration // zero unless Config.VerifyImage

	// WallTime is the true end-to-end build duration, measured from one
	// clock read at BuildCtx entry to the successful return. It is >= the
	// stage sum: work between stages (option assembly, hot-set
	// extraction, result bookkeeping) happens on the wall clock but in
	// no stage.
	WallTime time.Duration
}

// StageTime is the sum of the recorded stage durations. Table 6 reports
// WallTime; the difference WallTime - StageTime is the inter-stage
// overhead the old sum silently dropped.
func (r *Result) StageTime() time.Duration {
	return r.CompileTime + r.OutlineTime + r.LinkTime + r.VerifyTime
}

// TextBytes is the paper's code-size metric.
func (r *Result) TextBytes() int { return r.Image.TextBytes() }

// BuildCtx compiles and links the app under the given configuration.
// ctx is threaded through every parallel stage (compile, outline, rewrite
// verification, image lint), each of which checks it before starting
// every per-method or per-group task. A cancelled or deadline-expired
// context therefore stops the build at task granularity — in-flight tasks
// finish, nothing new starts — and BuildCtx returns ctx.Err(). A build
// that completes is byte-identical whether it ran under
// context.Background() or any live context.
func BuildCtx(ctx context.Context, app *dex.App, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{Workers: par.Workers(cfg.Workers)}
	wall := time.Now()
	build := cfg.Tracer.Start("build", "build "+app.Name).
		Arg("methods", int64(len(app.Methods))).
		Arg("workers", int64(res.Workers))
	defer build.End()

	t0 := time.Now()
	sp := cfg.Tracer.Start("stage", "compile")
	methods, err := codegen.CompileCtx(ctx, app, codegen.Options{
		CTO: cfg.CTO, Optimize: cfg.OptimizeIR, Workers: cfg.Workers,
		Tracer: cfg.Tracer, Cache: cfg.Cache,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	res.CompileTime = time.Since(t0)
	res.Methods = methods

	var blobs []oat.Blob
	if cfg.LTBO {
		opts := outline.Options{
			MinLength:      cfg.MinLength,
			MinBenefit:     cfg.MinBenefit,
			Parallel:       cfg.ParallelTrees,
			DedupFunctions: cfg.DedupFunctions,
			Workers:        cfg.Workers,
			Tracer:         cfg.Tracer,
		}
		if cfg.HotFilter {
			if cfg.Profile == nil {
				return nil, fmt.Errorf("core: hot-function filtering requires a profile (run ProfileGuidedBuild)")
			}
			frac := cfg.HotFraction
			if frac == 0 {
				frac = 0.8
			}
			opts.Hot = cfg.Profile.HotSet(frac)
		}
		t1 := time.Now()
		sp = cfg.Tracer.Start("stage", "outline").Arg("trees", int64(opts.Parallel))
		var stats *outline.Stats
		blobs, stats, err = outline.RunVerifiedCtx(ctx, methods, opts)
		sp.End()
		if err != nil {
			return nil, err
		}
		res.OutlineTime = time.Since(t1)
		res.Outline = stats
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t2 := time.Now()
	sp = cfg.Tracer.Start("stage", "link")
	img, err := oat.Link(methods, blobs)
	sp.End()
	if err != nil {
		return nil, err
	}
	res.LinkTime = time.Since(t2)
	res.Image = img

	if cfg.VerifyImage {
		t3 := time.Now()
		sp = cfg.Tracer.Start("stage", "verify")
		findings, err := analysis.LintCtx(ctx, img, cfg.Workers, cfg.Tracer)
		sp.End()
		if err != nil {
			return nil, err
		}
		if len(findings) > 0 {
			return nil, fmt.Errorf("core: image verification failed: %d findings, first: %s",
				len(findings), findings[0])
		}
		res.VerifyTime = time.Since(t3)
	}
	res.WallTime = time.Since(wall)
	return res, nil
}

// ProfileGuidedBuildCtx implements the Figure 6 workflow: build once with
// the given configuration minus hot filtering, profile the script on the
// resulting image, then rebuild with the hot set excluded from outlining.
// ctx is threaded through both builds; the profiling run between them is
// bounded by a context check on entry and exit.
func ProfileGuidedBuildCtx(ctx context.Context, app *dex.App, cfg Config, script []workload.Run) (*Result, *profiler.Profile, error) {
	first := cfg
	first.HotFilter = false
	first.Profile = nil
	r1, err := BuildCtx(ctx, app, first)
	if err != nil {
		return nil, nil, fmt.Errorf("core: initial build: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp := cfg.Tracer.Start("stage", "profile").Arg("runs", int64(len(script)))
	prof, err := profiler.Collect(r1.Image, script, 0)
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("core: profiling: %w", err)
	}
	cfg.HotFilter = true
	cfg.Profile = prof
	r2, err := BuildCtx(ctx, app, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: guided rebuild: %w", err)
	}
	return r2, prof, nil
}

// DebloatConfig configures the reachability-driven rewrite of an already
// linked image (DebloatImageCtx). The zero value is the conservative
// default: no-caller root inference, automatic worker width, no
// telemetry.
type DebloatConfig struct {
	// Roots are the explicit entry points reachability starts from — an
	// app's activity drivers, a JNI registration table, or a profiler's
	// hot set. Empty Roots selects the default no-caller inference
	// (analysis.DefaultRoots): every method the call graph records no
	// caller for, the conservative stand-in for "externally visible".
	Roots []dex.MethodID
	// Workers bounds the analysis fan-out; <= 0 selects GOMAXPROCS. The
	// output image is byte-identical at every width.
	Workers int
	// Tracer, when non-nil, records the analysis and rewrite telemetry.
	Tracer *obs.Tracer
}

// DebloatImageCtx rewrites a linked image, removing every method body,
// outlined function, and thunk that is provably unreachable from the
// configured roots. The pass refuses unsound inputs (any error-severity
// lint finding), keeps everything on any analysis imprecision, and
// re-verifies its output with the full lint before returning it. It
// honours ctx cancellation.
func DebloatImageCtx(ctx context.Context, img *oat.Image, cfg DebloatConfig) (*oat.Image, *analysis.DebloatStats, error) {
	return analysis.DebloatCtx(ctx, img, analysis.RootSet{Methods: cfg.Roots}, cfg.Workers, cfg.Tracer)
}

// ReoutlineConfig configures the post-hoc re-outlining of an already
// linked image (ReoutlineImageCtx); see reoutline.Config.
type ReoutlineConfig = reoutline.Config

// ReoutlineImageCtx re-outlines a linked image without its compile-time
// state: it lifts every method the legality mask admits back into
// rewritable form (inlining existing outlined calls, re-symbolizing call
// sites), runs the link-time detector over the lifted corpus, relinks
// preserving region order, and re-verifies the result against the input
// with the paired lint rules. Unsound or layout-pinned inputs are
// refused; frozen methods ride through byte-for-byte. It honours ctx
// cancellation.
func ReoutlineImageCtx(ctx context.Context, img *oat.Image, cfg ReoutlineConfig) (*oat.Image, *reoutline.Stats, error) {
	return reoutline.RunCtx(ctx, img, cfg)
}
