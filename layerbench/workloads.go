package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/hgraph"
	"repro/internal/oat"
	"repro/internal/outline"
	"repro/internal/reoutline"
	"repro/internal/workload"
)

// roster generates the apps of the profiles under the workload seed.
func roster(profiles []workload.Profile, seed int64) ([]*dex.App, []*workload.Manifest, error) {
	var apps []*dex.App
	var mans []*workload.Manifest
	for _, p := range seeded(profiles, seed) {
		app, man, err := workload.Generate(p)
		if err != nil {
			return nil, nil, err
		}
		apps = append(apps, app)
		mans = append(mans, man)
	}
	return apps, mans, nil
}

func appNames(apps []*dex.App) []string {
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return names
}

// buildRunner times whole builds: build-cold (the six-app roster under
// calibrod's default CTO+LTBO+PlOpti(8), no cache) and relink-warm (the
// largest app under the single-global-tree CTO+LTBO, cache warmed in
// set-up).
type buildRunner struct {
	apps []*dex.App
	mans []*workload.Manifest
	cfg  core.Config // the timed configuration
	ref  core.Config // the reference: Workers=1, no cache
}

func setupBuildCold(ctx context.Context, seed int64, scale float64) (runner, error) {
	apps, mans, err := roster(workload.Apps(scale), seed)
	if err != nil {
		return nil, err
	}
	cfg := core.CTOLTBOPl(8)
	cfg.Workers = runtime.GOMAXPROCS(0)
	ref := cfg
	ref.Workers = 1
	return &buildRunner{apps: apps, mans: mans, cfg: cfg, ref: ref}, nil
}

// relinkVariants is how many seeded variants of the largest app the
// relink-warm roster holds: one app's latency moves with its content, and
// a geometric mean over three keeps the seed from dominating the spread.
const relinkVariants = 3

func setupRelinkWarm(ctx context.Context, seed int64, scale float64) (runner, error) {
	p, ok := workload.AppByName("Kuaishou", scale)
	if !ok {
		return nil, fmt.Errorf("no Kuaishou profile")
	}
	profiles := make([]workload.Profile, relinkVariants)
	for i := range profiles {
		profiles[i] = p
		profiles[i].Seed += int64(i)
	}
	apps, mans, err := roster(profiles, seed)
	if err != nil {
		return nil, err
	}
	ref := core.CTOLTBO()
	ref.Workers = 1
	cfg := core.CTOLTBO()
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.Cache = cache.New()
	for _, app := range apps {
		if _, err := core.BuildCtx(ctx, app, cfg); err != nil {
			return nil, fmt.Errorf("warming the cache: %w", err)
		}
	}
	return &buildRunner{apps: apps, mans: mans, cfg: cfg, ref: ref}, nil
}

func (b *buildRunner) roster() []string { return appNames(b.apps) }

func (b *buildRunner) loop(ctx context.Context, m *measure) error {
	return sequentialLoop(ctx, m, len(b.apps), b.op)
}

func (b *buildRunner) op(ctx context.Context, a int, t *opTrace) ([]byte, error) {
	if t != nil {
		return b.tracedOp(ctx, a, t)
	}
	res, err := core.BuildCtx(ctx, b.apps[a], b.cfg)
	if err != nil {
		return nil, err
	}
	return res.Image.Marshal()
}

// tracedOp is core.BuildCtx decomposed into its public calls, in its
// order, each timed; its image must be byte-identical to the untraced
// op's, which the hash check enforces.
func (b *buildRunner) tracedOp(ctx context.Context, a int, t *opTrace) ([]byte, error) {
	app, cfg := b.apps[a], b.cfg
	var before cache.Stats
	if cfg.Cache != nil {
		before = cfg.Cache.Stats()
	}
	m0 := allocated()
	var methods []*codegen.CompiledMethod
	err := t.layer("codegen.ms", func() (err error) {
		methods, err = codegen.CompileCtx(ctx, app, codegen.Options{
			CTO: cfg.CTO, Optimize: cfg.OptimizeIR, Workers: cfg.Workers, Cache: cfg.Cache,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	t.set("codegen.alloc_mb", mb(allocated()-m0))
	words := 0
	for _, cm := range methods {
		words += len(cm.Code)
	}
	t.set("codegen.words", float64(words))
	if cfg.Cache != nil {
		after := cfg.Cache.Stats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		if hits+misses > 0 {
			t.set("cache.hit_ratio", float64(hits)/float64(hits+misses))
		}
		t.set("cache.misses", float64(misses))
	}

	var blobs []oat.Blob
	if cfg.LTBO {
		opts := outline.Options{
			MinLength: cfg.MinLength, MinBenefit: cfg.MinBenefit, Parallel: cfg.ParallelTrees,
			DetectShards: cfg.DetectShards, Rounds: cfg.Rounds, DedupFunctions: cfg.DedupFunctions,
			Detector: cfg.Detector, Workers: cfg.Workers,
		}
		m1 := allocated()
		var snap *outline.Snapshot
		var st *outline.Stats
		t.layer("outline.snap_ms", func() error { snap = outline.Snap(methods); return nil })
		if err := t.layer("outline.run_ms", func() (err error) {
			blobs, st, err = outline.RunCtx(ctx, methods, opts)
			return err
		}); err != nil {
			return nil, err
		}
		if err := t.layer("outline.verify_ms", func() error {
			return outline.VerifyRewriteCtx(ctx, methods, snap, blobs, cfg.Workers, nil)
		}); err != nil {
			return nil, err
		}
		t.set("outline.alloc_mb", mb(allocated()-m1))
		outlineStats(t, st, opts.Parallel)
	}

	var img *oat.Image
	if err := t.layer("oat.link_ms", func() (err error) {
		img, err = oat.Link(methods, blobs)
		return err
	}); err != nil {
		return nil, err
	}
	var data []byte
	if err := t.layer("oat.marshal_ms", func() (err error) {
		data, err = img.Marshal()
		return err
	}); err != nil {
		return nil, err
	}
	t.finish()
	t.set("oat.image_kb", float64(len(data))/1024)

	insns := 0
	if err := t.side("hgraph.ms", func() (err error) {
		insns, err = irInsns(app, cfg.OptimizeIR)
		return err
	}); err != nil {
		return nil, err
	}
	t.set("hgraph.insns", float64(insns))
	if cfg.Cache != nil {
		// The op's compile was served by the warm cache: hgraph did no
		// work in it, so the serial side measurement does not apply.
		t.set("hgraph.ms", 0)
	}
	return data, nil
}

// outlineStats records the outliner's phase times and counts. With K
// parallel trees the phase times are the slowest group's, so the suffix
// tree's cost per symbol divides by the symbols of an average group.
func outlineStats(t *opTrace, st *outline.Stats, trees int) {
	phases := st.SepScan + st.Symbolize + st.TreeBuild + st.Detect + st.Rewrite
	t.set("outline.sepscan_ms", ms(st.SepScan))
	t.set("outline.symbolize_ms", ms(st.Symbolize))
	t.set("outline.detect_ms", ms(st.Detect))
	t.set("outline.rewrite_ms", ms(st.Rewrite))
	t.set("outline.unattributed_ms", t.vals["outline.run_ms"]-ms(phases))
	t.set("outline.symbols", float64(st.SequenceSymbols))
	t.set("outline.functions", float64(st.OutlinedFunctions))
	t.set("outline.words_saved", float64(st.NetWordsSaved()))
	t.set("suffixtree.build_ms", ms(st.TreeBuild))
	if trees < 1 {
		trees = 1
	}
	if st.SequenceSymbols > 0 {
		t.set("suffixtree.ns_per_symbol", float64(st.TreeBuild.Nanoseconds())*float64(trees)/float64(st.SequenceSymbols))
	}
}

// irInsns runs hgraph.Build (and Optimize) serially over the app's
// methods and returns the IR size after the passes.
func irInsns(app *dex.App, optimize bool) (int, error) {
	n := 0
	for _, m := range app.Methods {
		if m.Native {
			continue
		}
		g, err := hgraph.Build(m)
		if err != nil {
			return 0, err
		}
		if optimize {
			hgraph.Optimize(g)
		}
		n += g.NumInsns()
	}
	return n, nil
}

func (b *buildRunner) input(k outKey) (*dex.App, *workload.Manifest) {
	return b.apps[k.app], b.mans[k.app]
}

func (b *buildRunner) reference(ctx context.Context, k outKey) ([]byte, error) {
	res, err := core.BuildCtx(ctx, b.apps[k.app], b.ref)
	if err != nil {
		return nil, err
	}
	return res.Image.Marshal()
}

func (b *buildRunner) gated(outKey) bool                      { return true }
func (b *buildRunner) finish(context.Context, *measure) error { return nil }
func (b *buildRunner) close()                                 {}

// postLinkRunner times `calibro -debloat -reoutline`: parse a CTO-only
// image built in set-up, remove what the manifest drivers cannot reach,
// re-outline the rest, and serialize the result.
type postLinkRunner struct {
	apps    []*dex.App
	mans    []*workload.Manifest
	images  [][]byte
	workers int
}

func setupPostLink(ctx context.Context, seed int64, scale float64) (runner, error) {
	apps, mans, err := roster(workload.Apps(scale), seed)
	if err != nil {
		return nil, err
	}
	p := &postLinkRunner{apps: apps, mans: mans, workers: runtime.GOMAXPROCS(0)}
	for _, app := range apps {
		res, err := core.BuildCtx(ctx, app, core.CTOOnly())
		if err != nil {
			return nil, err
		}
		data, err := res.Image.Marshal()
		if err != nil {
			return nil, err
		}
		p.images = append(p.images, data)
	}
	return p, nil
}

func (p *postLinkRunner) roster() []string { return appNames(p.apps) }

func (p *postLinkRunner) loop(ctx context.Context, m *measure) error {
	return sequentialLoop(ctx, m, len(p.apps), p.op)
}

func (p *postLinkRunner) op(ctx context.Context, a int, t *opTrace) ([]byte, error) {
	if t != nil {
		return p.tracedOp(ctx, a, t)
	}
	return p.rewrite(ctx, a, p.workers)
}

func (p *postLinkRunner) rewrite(ctx context.Context, a, workers int) ([]byte, error) {
	img, err := oat.Unmarshal(p.images[a])
	if err != nil {
		return nil, err
	}
	slim, _, err := core.DebloatImageCtx(ctx, img, core.DebloatConfig{Roots: p.mans[a].Drivers, Workers: workers})
	if err != nil {
		return nil, err
	}
	out, _, err := core.ReoutlineImageCtx(ctx, slim, core.ReoutlineConfig{Workers: workers})
	if err != nil {
		return nil, err
	}
	return out.Marshal()
}

func (p *postLinkRunner) tracedOp(ctx context.Context, a int, t *opTrace) ([]byte, error) {
	var img, slim, out *oat.Image
	if err := t.layer("oat.unmarshal_ms", func() (err error) {
		img, err = oat.Unmarshal(p.images[a])
		return err
	}); err != nil {
		return nil, err
	}
	var ds *analysis.DebloatStats
	if err := t.layer("analysis.debloat_ms", func() (err error) {
		slim, ds, err = core.DebloatImageCtx(ctx, img, core.DebloatConfig{Roots: p.mans[a].Drivers, Workers: p.workers})
		return err
	}); err != nil {
		return nil, err
	}
	t.set("analysis.methods_removed", float64(ds.MethodsRemoved))
	var rs *reoutline.Stats
	if err := t.layer("reoutline.ms", func() (err error) {
		out, rs, err = core.ReoutlineImageCtx(ctx, slim, core.ReoutlineConfig{Workers: p.workers})
		return err
	}); err != nil {
		return nil, err
	}
	var data []byte
	if err := t.layer("oat.marshal_ms", func() (err error) {
		data, err = out.Marshal()
		return err
	}); err != nil {
		return nil, err
	}
	t.finish()
	t.set("oat.image_kb", float64(len(data))/1024)

	stages := rs.LiftTime + rs.DetectTime + rs.RelinkTime + rs.VerifyTime
	t.set("reoutline.admit_ms", t.vals["reoutline.ms"]-ms(stages))
	t.set("reoutline.lift_ms", ms(rs.LiftTime))
	t.set("reoutline.detect_ms", ms(rs.DetectTime))
	t.set("reoutline.relink_ms", ms(rs.RelinkTime))
	t.set("reoutline.verify_ms", ms(rs.VerifyTime))
	if n := rs.MethodsLifted + rs.MethodsFrozen; n > 0 {
		t.set("reoutline.lift_ratio", float64(rs.MethodsLifted)/float64(n))
	}
	t.set("reoutline.bytes_saved", float64(rs.Saved()))

	// Separate calls into the analysis layer on the same inputs: the
	// pieces reoutline's admission and verification are made of.
	if err := t.side("analysis.lint_ms", func() error {
		_, err := analysis.LintCtx(ctx, slim, p.workers, nil)
		return err
	}); err != nil {
		return nil, err
	}
	t.side("analysis.callgraph_ms", func() error {
		analysis.BuildCallGraphCtx(ctx, slim, p.workers)
		return nil
	})
	if err := t.side("analysis.paired_ms", func() error {
		spec := analysis.DefaultRuleSpec()
		spec.Enable(analysis.RuleReoutlinedBody)
		spec.Enable(analysis.RuleLiftFrozen)
		_, err := analysis.RunRulesPaired(ctx, out, slim, spec, analysis.RootSet{}, p.workers, nil)
		return err
	}); err != nil {
		return nil, err
	}
	insns, err := irInsns(p.apps[a], true)
	if err != nil {
		return nil, err
	}
	t.set("hgraph.insns", float64(insns))
	return data, nil
}

func (p *postLinkRunner) input(k outKey) (*dex.App, *workload.Manifest) {
	return p.apps[k.app], p.mans[k.app]
}

func (p *postLinkRunner) reference(ctx context.Context, k outKey) ([]byte, error) {
	return p.rewrite(ctx, k.app, 1)
}

func (p *postLinkRunner) gated(outKey) bool { return true }

// finish splits the allocations of one reoutline call per app across the
// layers, from the heap profile: admission and verification (analysis),
// detection (outline) and lift and relink (reoutline) interleave inside
// the one call, so no window around a public call separates them.
func (p *postLinkRunner) finish(ctx context.Context, m *measure) error {
	slim := make([]*oat.Image, len(p.apps))
	for a := range p.apps {
		img, err := oat.Unmarshal(p.images[a])
		if err != nil {
			return err
		}
		if slim[a], _, err = core.DebloatImageCtx(ctx, img, core.DebloatConfig{Roots: p.mans[a].Drivers, Workers: p.workers}); err != nil {
			return err
		}
	}
	var err error
	split := allocSplit(func() {
		for _, img := range slim {
			if _, _, e := core.ReoutlineImageCtx(ctx, img, core.ReoutlineConfig{Workers: p.workers}); e != nil && err == nil {
				err = e
			}
		}
	})
	perOp := func(layer string) float64 { return split[layer] / float64(len(p.apps)) / (1 << 20) }
	m.run["analysis.alloc_mb"] = perOp("analysis")
	m.run["outline.alloc_mb"] = perOp("outline")
	m.run["reoutline.alloc_mb"] = perOp("reoutline")
	fmt.Fprintf(os.Stderr, "layerbench: reoutline allocation per op: analysis %.3f MB, outline %.3f MB, reoutline %.3f MB, other %.3f MB\n",
		perOp("analysis"), perOp("outline"), perOp("reoutline"), perOp("other")+perOp("oat")+perOp("codegen"))
	return err
}

func (p *postLinkRunner) close() {}
