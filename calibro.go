// Package calibro is a Go reproduction of "Calibro: Compilation-Assisted
// Linking-Time Binary Code Outlining for Code Size Reduction in Android
// Applications" (CGO 2025).
//
// The package exposes the complete pipeline the paper describes — a
// dex2oat-like compiler with compilation-time outlining (CTO) of the three
// ART-specific repetitive patterns, a linking-time binary outliner (LTBO)
// driven by compile-time metadata, paralleled suffix trees, and
// hot-function filtering — together with everything needed to evaluate it:
// a synthetic Android app generator, an AArch64-subset emulator with cycle
// and resident-memory models, and a simpleperf-style profiler.
//
// # Quick start
//
//	app, man, _ := calibro.GenerateApp(calibro.AppProfiles(0.25)[5]) // WeChat
//	base, _ := calibro.Build(app, calibro.Baseline())
//	opt, _ := calibro.Build(app, calibro.FullOptimization(8))
//	fmt.Printf("text: %d -> %d bytes\n", base.TextBytes(), opt.TextBytes())
//
// Correctness of every transformation is checkable by construction: a
// built image can be executed (Execute) and compared against the reference
// bytecode interpreter (Interpret) on the same inputs.
package calibro

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/emu"
	"repro/internal/hgraph"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/outline"
	"repro/internal/profiler"
	"repro/internal/reoutline"
	"repro/internal/workload"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// App is a synthetic Android application: dex files plus the
	// program-wide method table.
	App = dex.App
	// MethodID indexes the app-wide method table.
	MethodID = dex.MethodID
	// AppProfile parameterizes the synthetic app generator.
	AppProfile = workload.Profile
	// AppManifest records generation ground truth (drivers, hot methods).
	AppManifest = workload.Manifest
	// Config selects the build configuration (CTO/LTBO/PlOpti/HfOpti).
	Config = core.Config
	// BuildResult is a completed build: the OAT image plus statistics.
	BuildResult = core.Result
	// Image is a linked OAT image.
	Image = oat.Image
	// OutlineStats reports what the link-time outliner did.
	OutlineStats = outline.Stats
	// Analysis is the §2.2 redundancy study output.
	Analysis = outline.Analysis
	// PatternCounts counts the Figure 4 ART-specific pattern sites.
	PatternCounts = outline.PatternCounts
	// RunResult is the observable outcome and measurements of an emulated
	// execution.
	RunResult = emu.Result
	// InterpResult is the reference interpreter's outcome.
	InterpResult = hgraph.Result
	// Profile is a collected execution profile.
	Profile = profiler.Profile
	// ScriptRun is one scripted operation (entry method + arguments).
	ScriptRun = workload.Run
	// Exception enumerates modeled runtime exceptions.
	Exception = hgraph.Exception
	// Finding is one oatlint diagnostic.
	Finding = analysis.Finding
	// FindingSeverity grades a lint finding.
	FindingSeverity = analysis.Severity
	// LintReport is the full static-analyzer output: findings at every
	// severity plus per-method summaries.
	LintReport = analysis.Report
	// CFG is a control-flow graph recovered from linked code.
	CFG = analysis.CFG
	// Tracer records build telemetry — hierarchical spans, per-task worker
	// lanes, and counters — when assigned to Config.Tracer. A nil Tracer is
	// the no-op tracer: every method is nil-safe and records nothing.
	Tracer = obs.Tracer
	// TelemetrySnapshot is the aggregated metrics view of a Tracer: stage
	// totals, per-category task distributions, queue waits, worker
	// occupancy, and counters.
	TelemetrySnapshot = obs.Snapshot
	// Cache is the content-addressed compilation cache. Assigned to
	// Config.Cache it lets warm rebuilds skip per-method code generation
	// for every method whose bytecode, referenced-method signatures, and
	// codegen knobs are unchanged; the linked image stays byte-identical
	// to a cold build's.
	Cache = cache.Cache
	// CacheStats is a point-in-time view of a Cache's hit/miss/byte
	// counters.
	CacheStats = cache.Stats
	// CallGraph is the whole-image interprocedural call graph recovered
	// from a linked image's machine code.
	CallGraph = analysis.CallGraph
	// RootSet configures where reachability starts (explicit entry
	// points and/or no-caller inference).
	RootSet = analysis.RootSet
	// Reachability classifies every image region live or dead under a
	// root set.
	Reachability = analysis.Reachability
	// DebloatConfig configures DebloatImage.
	DebloatConfig = core.DebloatConfig
	// DebloatStats reports what a debloat pass removed.
	DebloatStats = analysis.DebloatStats
	// ReoutlineConfig configures ReoutlineImage.
	ReoutlineConfig = core.ReoutlineConfig
	// ReoutlineStats reports what a post-hoc re-outlining pass did.
	ReoutlineStats = reoutline.Stats
	// LintRule is one named verifier check in the oatlint rule registry: a
	// struct whose Name, Doc and Interprocedural fields describe it.
	LintRule = analysis.Rule
	// LintRuleSpec selects which rules a lint run evaluates and at what
	// severity (the oatlint -rules grammar).
	LintRuleSpec = analysis.RuleSpec
)

// Exceptions raised by the modeled runtime.
const (
	ExcNone          = hgraph.ExcNone
	ExcNullPointer   = hgraph.ExcNullPointer
	ExcArrayBounds   = hgraph.ExcArrayBounds
	ExcStackOverflow = hgraph.ExcStackOverflow
)

// Lint finding severities.
const (
	SevInfo  = analysis.SevInfo
	SevWarn  = analysis.SevWarn
	SevError = analysis.SevError
)

// GenerateApp builds a synthetic application from a profile.
func GenerateApp(p AppProfile) (*App, *AppManifest, error) {
	return workload.Generate(p)
}

// AppProfiles returns the paper's six benchmark apps (Toutiao, Taobao,
// Fanqie, Meituan, Kuaishou, Wechat) at the given scale factor; 1.0 is the
// full ~1:220 reproduction scale.
func AppProfiles(scale float64) []AppProfile { return workload.Apps(scale) }

// AppProfileByName looks up one of the six benchmark apps.
func AppProfileByName(name string, scale float64) (AppProfile, bool) {
	return workload.AppByName(name, scale)
}

// Script builds the scripted operation sequence used by the memory and
// performance experiments.
func Script(man *AppManifest, rounds int, seed int64) []ScriptRun {
	return workload.Script(man, rounds, seed)
}

// Build compiles and links an app under the given configuration. The
// per-method stages (compile, outline, rewrite verification, image lint)
// fan out on Config.Workers goroutines — <= 0 selects GOMAXPROCS — and
// the linked image is byte-identical for every width.
func Build(app *App, cfg Config) (*BuildResult, error) {
	return core.BuildCtx(context.Background(), app, cfg)
}

// ProfileGuidedBuild runs the Figure 6 loop: build, profile the script,
// rebuild with hot-function filtering.
func ProfileGuidedBuild(app *App, cfg Config, script []ScriptRun) (*BuildResult, *Profile, error) {
	return core.ProfileGuidedBuildCtx(context.Background(), app, cfg, script)
}

// Configuration constructors mirroring the paper's evaluation ladder.
var (
	// Baseline is the original AOSP configuration with all available code
	// size optimization enabled.
	Baseline = core.Baseline
	// CTOOnly adds compilation-time outlining of the ART patterns.
	CTOOnly = core.CTOOnly
	// CTOLTBO adds linking-time binary outlining with one global tree.
	CTOLTBO = core.CTOLTBO
	// CTOLTBOPl uses K paralleled suffix trees (PlOpti).
	CTOLTBOPl = core.CTOLTBOPl
)

// FullOptimization is CTO+LTBO+PlOpti; pair with ProfileGuidedBuild to add
// HfOpti.
func FullOptimization(trees int) Config { return core.CTOLTBOPl(trees) }

// NewCache returns a compilation cache for Config.Cache. With dir == ""
// the cache lives in memory and dies with the process — enough to make
// the second build of a ProfileGuidedBuild, or any rebuild in the same
// process, compile warm. A non-empty dir persists every entry to that
// directory (created if needed) for cross-process warm starts; corrupt or
// version-skewed files are detected by checksum and read as misses, so a
// damaged cache can slow a build down but never break it.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		return cache.New(), nil
	}
	return cache.NewDir(dir)
}

// NewTracer returns a live build tracer. Assign it to Config.Tracer before
// Build; afterwards Tracer.WriteTrace exports a Perfetto-loadable Chrome
// trace and Tracer.Snapshot / Tracer.WriteMetrics aggregate the metrics.
// Tracing never changes the built image: output is byte-identical with a
// live tracer, a nil tracer, and any Config.Workers value.
func NewTracer() *Tracer { return obs.New() }

// Execute runs a built image on the emulated device.
func Execute(img *Image, entry MethodID, args []int64) (RunResult, error) {
	return emu.New(img).Run(entry, args)
}

// Interpret runs the reference bytecode interpreter, the semantic oracle
// every binary transformation is validated against.
func Interpret(app *App, entry MethodID, args []int64) (InterpResult, error) {
	ip := &hgraph.Interp{App: app, MaxDepth: 10_000}
	return ip.Run(entry, args)
}

// CollectProfile profiles a script on an image (simpleperf stand-in).
func CollectProfile(img *Image, script []ScriptRun) (*Profile, error) {
	return profiler.Collect(img, script, 0)
}

// AnalyzeRedundancy performs the §2.2 code-redundancy study on a build.
// bounded=false reproduces the idealized Table 1 estimate; bounded=true
// applies the outliner's correctness constraints.
func AnalyzeRedundancy(res *BuildResult, bounded bool) *Analysis {
	return outline.Analyze(res.Methods, bounded)
}

// CountPatterns counts the Figure 4 ART-specific pattern sites in a
// (pre-CTO) build.
func CountPatterns(res *BuildResult) PatternCounts {
	return outline.CountPatterns(res.Methods)
}

// LintImage statically verifies a linked image — CFG recovery,
// control-flow integrity, and the stack/register dataflow checks — and
// returns the findings that should block loading it (warnings and
// errors). It needs nothing but the image, so it works on untrusted or
// cached images long after the build that produced them. Findings and
// their order do not depend on GOMAXPROCS.
func LintImage(img *Image) []Finding {
	// A background context never cancels, so the error is impossible.
	findings, _ := analysis.LintCtx(context.Background(), img, 0, nil)
	return findings
}

// AnalyzeImage runs the same verifier and returns the full report,
// including advisory findings and per-method CFG statistics.
func AnalyzeImage(img *Image) *LintReport {
	// A background context never cancels and the zero RootSet names no
	// method, so the error is impossible.
	rep, _ := analysis.RunRulesPaired(context.Background(), img, nil, nil, RootSet{}, 0, nil)
	return rep
}

// RecoverCFG reconstructs one method's control-flow graph from a linked
// image's decoded instructions, with any findings recovery produced.
func RecoverCFG(img *Image, id MethodID) (*CFG, []Finding) {
	return analysis.MethodCFG(img, id)
}

// BuildCallGraph recovers the whole-image interprocedural call graph from
// a linked image's machine code: direct calls, outlined-call edges
// replayed through the outlined bodies, and java-call dispatch resolved
// from the materialized ArtMethod constants. Unresolvable sites become
// conservative unknown edges and advisory findings, never guesses.
func BuildCallGraph(img *Image) (*CallGraph, []Finding) {
	return analysis.BuildCallGraphCtx(context.Background(), img, 0)
}

// DebloatImage rewrites a linked image, removing every method body,
// outlined function, and thunk provably unreachable from the configured
// roots. It refuses unsound inputs, removes nothing on analysis
// imprecision, and re-verifies its output with the full lint. The pass is
// idempotent: debloating a debloated image is byte-identical.
func DebloatImage(img *Image, cfg DebloatConfig) (*Image, *DebloatStats, error) {
	return core.DebloatImageCtx(context.Background(), img, cfg)
}

// ReoutlineImage re-outlines an already-linked image with no access to
// compile-time state: it lifts every precisely-recovered method back into
// rewritable form (inlining existing outlined bodies), re-runs the suffix
// detector, relinks preserving region order, and re-verifies the result
// against the input with the paired equivalence rules. Imprecise methods
// are byte-preserved. The pass is idempotent: re-outlining a re-outlined
// image is byte-identical.
func ReoutlineImage(img *Image, cfg ReoutlineConfig) (*Image, *ReoutlineStats, error) {
	return core.ReoutlineImageCtx(context.Background(), img, cfg)
}

// LintRules lists the registered oatlint rules in registration order.
func LintRules() []LintRule { return analysis.Rules() }

// ParseLintRules parses the oatlint -rules grammar into a rule spec:
// comma-separated directives ("all", "legacy", "interproc", NAME, -NAME,
// NAME=info|warn|error) applied onto the default legacy set.
func ParseLintRules(spec string) (*LintRuleSpec, error) {
	return analysis.ParseRuleSpec(spec)
}

// LintWithRules runs the pluggable rule engine over an image: the spec
// selects and re-grades rules (nil means the legacy set, reproducing
// AnalyzeImage exactly), and roots configures the interprocedural rules
// (the zero RootSet means no-caller inference; a root outside the method
// table is an error).
func LintWithRules(img *Image, spec *LintRuleSpec, roots RootSet) (*LintReport, error) {
	return analysis.RunRulesPaired(context.Background(), img, nil, spec, roots, 0, nil)
}

// MarshalImage serializes an image to the on-disk ELF OAT format.
func MarshalImage(img *Image) ([]byte, error) { return img.Marshal() }

// UnmarshalImage parses a serialized OAT image.
func UnmarshalImage(data []byte) (*Image, error) { return oat.Unmarshal(data) }

// MarshalApp serializes an app to the binary dex container format.
func MarshalApp(app *App) ([]byte, error) { return dex.Marshal(app) }

// UnmarshalApp parses a binary dex container.
func UnmarshalApp(data []byte) (*App, error) { return dex.UnmarshalApp(data) }

// Assemble parses the smali-like text format into an app.
func Assemble(src string) (*App, error) { return dex.ParseText(src) }

// Disassemble renders an app in the smali-like text format.
func Disassemble(app *App) string { return dex.DumpText(app) }
