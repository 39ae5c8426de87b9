package analysis

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/codegen"
	"repro/internal/oat"
	"repro/internal/obs"
)

// The rule engine makes oatlint pluggable: every check is a named Rule in
// a registry, enabled and re-graded per run by a RuleSpec (the -rules
// flag). The legacy per-method checks are ported as filter rules over ONE
// shared verification pass, so the engine with its default spec produces
// byte-identical output to the legacy AnalyzeCtx path — the parity the
// determinism tests pin. The interprocedural rules (unreachable-method,
// dead-outline-body, call-into-removed-range, recursive-outline-cycle)
// are engine-only: they need the whole-image call graph, which the
// RuleContext builds lazily over the same shared layout so structural
// findings are never duplicated.

// Rule is one verifier check, addressable by name.
type Rule interface {
	// Name is the stable rule ID findings carry in their Rule field.
	Name() string
	// Doc is a one-line description for -rules=help output.
	Doc() string
	// Interprocedural reports whether the rule needs the whole-image call
	// graph; such rules are off by default and enabled via -rules.
	Interprocedural() bool
	// Run evaluates the rule, emitting findings through the context.
	Run(rc *RuleContext)
}

// RuleContext is what a Rule sees: the image under analysis plus lazily
// built, memoized whole-image artifacts shared by every rule in the run.
type RuleContext struct {
	ctx     context.Context
	img     *oat.Image
	workers int
	tracer  *obs.Tracer
	roots   RootSet

	rep    *Report
	lay    *layout
	repErr error
	ran    bool

	cg         *CallGraph
	cgFindings []Finding

	reach *Reachability

	// orig is the pre-pass image of a paired run (oatlint -orig, or the
	// re-outliner's self-check); nil on single-image runs, in which case
	// the paired rules emit nothing. Its layout and call graph come from
	// the analysis it carries (origAn, looked up on first use) or are
	// built lazily like the primary image's.
	orig       *oat.Image
	origLooked bool
	origAn     *imageAnalysis
	origLay    *layout
	origCG     *CallGraph

	spec *RuleSpec
	out  findings
	err  error
}

// Image returns the image under analysis.
func (rc *RuleContext) Image() *oat.Image { return rc.img }

// Orig returns the original (pre-pass) image of a paired run, or nil.
func (rc *RuleContext) Orig() *oat.Image { return rc.orig }

// origLayout returns the memoized layout of the original image, with blob
// bodies decoded. Structural findings on the original image are not the
// paired rules' business — the original was linted in its own run — so
// they are discarded here.
func (rc *RuleContext) origLayout() *layout {
	if rc.origLay == nil && rc.orig != nil {
		if an := rc.origAnalysis(); an != nil {
			rc.origLay = an.lay
			return rc.origLay
		}
		var fs findings
		rc.origLay = buildLayout(rc.orig, &fs)
		for _, r := range rc.origLay.regions {
			if r.kind == regionBlob {
				rc.origLay.checkBlob(r, &fs)
			}
		}
	}
	return rc.origLay
}

// origAnalysis returns the analysis the original image carries (counted
// as analysis.reused), or nil.
func (rc *RuleContext) origAnalysis() *imageAnalysis {
	if !rc.origLooked {
		rc.origLooked = true
		if rc.origAn = attachedAnalysis(rc.orig); rc.origAn != nil {
			rc.tracer.Count("analysis.reused", 1)
		}
	}
	return rc.origAn
}

// origCallGraph returns the memoized call graph of the original image.
func (rc *RuleContext) origCallGraph() (*CallGraph, error) {
	if rc.origCG == nil && rc.orig != nil {
		var cg *CallGraph
		var err error
		if an := rc.origAnalysis(); an != nil {
			cg, _, err = an.callGraph(rc.ctx, rc.workers)
		} else {
			var fs findings
			cg, err = buildCallGraphFrom(rc.ctx, rc.origLayout(), rc.workers, &fs)
		}
		if err != nil {
			return nil, err
		}
		rc.origCG = cg
	}
	return rc.origCG, nil
}

// Analysis returns the shared per-method verification pass (layout,
// thunk/blob checks, CFG recovery, dataflow), running it on first use.
func (rc *RuleContext) Analysis() (*Report, error) {
	if !rc.ran {
		rc.ran = true
		rc.rep, rc.lay, rc.repErr = analyzeImage(rc.ctx, rc.img, rc.workers, rc.tracer)
	}
	return rc.rep, rc.repErr
}

// CallGraph returns the whole-image call graph and the walk's own
// findings, built on first use over the shared layout.
func (rc *RuleContext) CallGraph() (*CallGraph, []Finding, error) {
	if rc.cg == nil {
		if _, err := rc.Analysis(); err != nil {
			return nil, nil, err
		}
		var fs findings
		cg, err := buildCallGraphFrom(rc.ctx, rc.lay, rc.workers, &fs)
		if err != nil {
			return nil, nil, err
		}
		rc.cg = cg
		rc.cgFindings = fs.list
	}
	return rc.cg, rc.cgFindings, nil
}

// Reachability returns the closure of the run's root set over the call
// graph, computed on first use.
func (rc *RuleContext) Reachability() (*Reachability, *CallGraph, error) {
	if rc.reach == nil {
		cg, _, err := rc.CallGraph()
		if err != nil {
			return nil, nil, err
		}
		rc.reach = cg.Reachable(rc.roots)
	}
	return rc.reach, rc.cg, nil
}

// emit records one finding, applying the spec's severity override.
func (rc *RuleContext) emit(f Finding) {
	if rc.spec != nil {
		if sev, ok := rc.spec.severity[f.Rule]; ok {
			f.Severity = sev
		}
	}
	rc.out.list = append(rc.out.list, f)
}

// fail records a rule-infrastructure error (context cancellation).
func (rc *RuleContext) fail(err error) {
	if rc.err == nil {
		rc.err = err
	}
}

// filterRule ports one legacy check onto the engine: it selects that
// rule's findings out of the shared pass. The union of all filter rules
// is exactly the legacy report.
type filterRule struct {
	name string
	doc  string
}

func (r filterRule) Name() string          { return r.name }
func (r filterRule) Doc() string           { return r.doc }
func (r filterRule) Interprocedural() bool { return false }
func (r filterRule) Run(rc *RuleContext) {
	rep, err := rc.Analysis()
	if err != nil {
		rc.fail(err)
		return
	}
	for _, f := range rep.Findings {
		if f.Rule == r.name {
			rc.emit(f)
		}
	}
}

// callgraphRule surfaces the call-graph walk's advisory notes:
// unresolved call targets and malformed ArtMethod constants.
type callgraphRule struct{}

func (callgraphRule) Name() string { return RuleCallGraph }
func (callgraphRule) Doc() string {
	return "call sites the interprocedural walk could not resolve"
}
func (callgraphRule) Interprocedural() bool { return true }
func (callgraphRule) Run(rc *RuleContext) {
	_, cgfs, err := rc.CallGraph()
	if err != nil {
		rc.fail(err)
		return
	}
	for _, f := range cgfs {
		if f.Rule == RuleCallGraph {
			rc.emit(f)
		}
	}
}

// callRemovedRule reports calls whose target lies in no recorded region.
type callRemovedRule struct{}

func (callRemovedRule) Name() string { return RuleCallRemoved }
func (callRemovedRule) Doc() string {
	return "a call targets a removed range or leaves the text segment"
}
func (callRemovedRule) Interprocedural() bool { return true }
func (callRemovedRule) Run(rc *RuleContext) {
	_, cgfs, err := rc.CallGraph()
	if err != nil {
		rc.fail(err)
		return
	}
	for _, f := range cgfs {
		if f.Rule == RuleCallRemoved {
			rc.emit(f)
		}
	}
}

// unreachableRule reports methods no root can reach.
type unreachableRule struct{}

func (unreachableRule) Name() string { return RuleUnreachable }
func (unreachableRule) Doc() string {
	return "a method is unreachable from the root set"
}
func (unreachableRule) Interprocedural() bool { return true }
func (unreachableRule) Run(rc *RuleContext) {
	reach, cg, err := rc.Reachability()
	if err != nil {
		rc.fail(err)
		return
	}
	for _, id := range reach.DeadMethods(cg) {
		rc.emit(Finding{
			Severity: SevInfo, Method: id, Off: -1, Rule: RuleUnreachable,
			Msg: fmt.Sprintf("unreachable from the root set; %d bytes removable", cg.Nodes[id].Size),
		})
	}
}

// deadOutlineRule reports outlined functions no live method calls.
type deadOutlineRule struct{}

func (deadOutlineRule) Name() string { return RuleDeadOutline }
func (deadOutlineRule) Doc() string {
	return "an outlined function is called by no live method"
}
func (deadOutlineRule) Interprocedural() bool { return true }
func (deadOutlineRule) Run(rc *RuleContext) {
	reach, cg, err := rc.Reachability()
	if err != nil {
		rc.fail(err)
		return
	}
	for _, bi := range reach.DeadBlobs() {
		b := cg.Blobs[bi]
		rc.emit(Finding{
			Severity: SevInfo, Method: NoMethod, Off: b.Offset, Rule: RuleDeadOutline,
			Msg: fmt.Sprintf("%s has no live caller; %d bytes removable", codegen.SymName(b.Sym), b.Size),
		})
	}
}

// outlineCycleRule reports call-graph cycles that pass through an
// outlined function. A well-formed blob is straight-line code, so such a
// cycle implies a blob that calls — re-entering it recursively would run
// with a clobbered return address.
type outlineCycleRule struct{}

func (outlineCycleRule) Name() string { return RuleOutlineCycle }
func (outlineCycleRule) Doc() string {
	return "the call graph cycles through an outlined function"
}
func (outlineCycleRule) Interprocedural() bool { return true }
func (outlineCycleRule) Run(rc *RuleContext) {
	cg, _, err := rc.CallGraph()
	if err != nil {
		rc.fail(err)
		return
	}
	for bi, b := range cg.Blobs {
		if len(b.Edges) == 0 {
			continue
		}
		if blobOnCycle(cg, bi) {
			rc.emit(Finding{
				Severity: SevError, Method: NoMethod, Off: b.Offset, Rule: RuleOutlineCycle,
				Msg: fmt.Sprintf("%s participates in a call cycle; recursive re-entry clobbers its return address", codegen.SymName(b.Sym)),
			})
		}
	}
}

// blobOnCycle reports whether blob bi can reach itself through the call
// graph. Node encoding for the search: methods are their slot index,
// blobs are len(Nodes)+index.
func blobOnCycle(cg *CallGraph, bi int) bool {
	base := len(cg.Nodes)
	start := base + bi
	seen := map[int]bool{}
	stack := succs(cg, start)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == start {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, succs(cg, n)...)
	}
	return false
}

// succs lists a search node's call-graph successors.
func succs(cg *CallGraph, n int) []int {
	base := len(cg.Nodes)
	var edges []Edge
	if n < base {
		edges = cg.Nodes[n].Edges
	} else {
		edges = cg.Blobs[n-base].Edges
	}
	var out []int
	for _, e := range edges {
		switch e.Kind {
		case EdgeMethod:
			if int(e.Target) < base {
				out = append(out, int(e.Target))
			}
		case EdgeOutlined:
			if bi, ok := cg.blobIndexOf(e.Sym); ok {
				out = append(out, base+bi)
			}
		}
	}
	return out
}

// legacyRules lists every rule ID the per-method pass can produce, in
// report-section order, with its one-line doc.
var legacyRules = []filterRule{
	{RuleRecord, "a record is out of bounds, misaligned, overlapping, or out of order"},
	{RuleDecode, "a non-data word does not decode as a modeled A64 instruction"},
	{RuleBranchTarget, "a branch leaves its method or misses an instruction boundary"},
	{RuleCallTarget, "a bl does not land on a method, thunk, or outlined-function head"},
	{RuleBlobEntry, "control enters the middle of an outlined function"},
	{RuleIndirect, "a computed branch does not match the switch-table idiom"},
	{RuleBlobShape, "an outlined function is not straight-line code ending in br x30"},
	{RuleSPBalance, "the stack pointer is unbalanced on some path"},
	{RuleStackProbe, "a calling method performs no stack-overflow probe"},
	{RuleCalleeSaved, "a callee-saved register is clobbered across a ret path"},
	{RuleLinkReg, "ret executes without the caller's return address in x30"},
	{RuleSafepoint, "a stack map entry does not sit on a call instruction"},
	{RuleMetadata, "the LTBO metadata disagrees with the code it describes"},
	{RuleLiteral, "a literal access targets bytes outside embedded data"},
	{RuleDeadCode, "instruction words unreachable from the method entry"},
}

// registry holds every known rule in registration order; the engine runs
// enabled rules in this order (findings are sorted at the boundary, so
// the order affects only lazy-artifact build timing, not output).
var registry = buildRegistry()

func buildRegistry() []Rule {
	var rs []Rule
	for _, r := range legacyRules {
		rs = append(rs, r)
	}
	rs = append(rs,
		callgraphRule{},
		callRemovedRule{},
		unreachableRule{},
		deadOutlineRule{},
		outlineCycleRule{},
		reoutlinedBodyRule{},
		liftFrozenRule{},
	)
	return rs
}

// Rules returns the registered rules in registration order.
func Rules() []Rule {
	out := make([]Rule, len(registry))
	copy(out, registry)
	return out
}

// ruleByName looks up a registered rule.
func ruleByName(name string) (Rule, bool) {
	for _, r := range registry {
		if r.Name() == name {
			return r, true
		}
	}
	return nil, false
}

// RuleSpec selects which rules a run evaluates and at what severity.
// The zero value (and DefaultRuleSpec) enables exactly the legacy rules,
// reproducing the classic AnalyzeCtx output.
type RuleSpec struct {
	enabled  map[string]bool
	severity map[string]Severity
}

// DefaultRuleSpec enables the legacy per-method rules only.
func DefaultRuleSpec() *RuleSpec {
	s := &RuleSpec{enabled: map[string]bool{}, severity: map[string]Severity{}}
	for _, r := range registry {
		if !r.Interprocedural() {
			s.enabled[r.Name()] = true
		}
	}
	return s
}

// Enabled reports whether the spec enables a rule.
func (s *RuleSpec) Enabled(name string) bool { return s.enabled[name] }

// Enable turns a rule on.
func (s *RuleSpec) Enable(name string) { s.enabled[name] = true }

// ParseRuleSpec parses the -rules flag grammar: a comma-separated list of
// directives applied left to right onto the default (legacy) set.
//
//	all          enable every rule
//	legacy       reset to the legacy per-method set
//	interproc    additionally enable every interprocedural rule
//	NAME         enable rule NAME
//	-NAME        disable rule NAME
//	NAME=SEV     enable NAME and regrade its findings (info|warn|error)
//
// Unknown rule names and severities are errors: a typo must not silently
// disable a check.
func ParseRuleSpec(spec string) (*RuleSpec, error) {
	s := DefaultRuleSpec()
	if strings.TrimSpace(spec) == "" {
		return s, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		switch {
		case item == "":
		case item == "all":
			for _, r := range registry {
				s.enabled[r.Name()] = true
			}
		case item == "legacy":
			s.enabled = map[string]bool{}
			for _, r := range registry {
				if !r.Interprocedural() {
					s.enabled[r.Name()] = true
				}
			}
		case item == "interproc":
			for _, r := range registry {
				if r.Interprocedural() {
					s.enabled[r.Name()] = true
				}
			}
		case strings.HasPrefix(item, "-"):
			name := item[1:]
			if _, ok := ruleByName(name); !ok {
				return nil, fmt.Errorf("unknown rule %q", name)
			}
			delete(s.enabled, name)
		case strings.Contains(item, "="):
			name, sevName, _ := strings.Cut(item, "=")
			if _, ok := ruleByName(name); !ok {
				return nil, fmt.Errorf("unknown rule %q", name)
			}
			var sev Severity
			switch sevName {
			case "info":
				sev = SevInfo
			case "warn":
				sev = SevWarn
			case "error":
				sev = SevError
			default:
				return nil, fmt.Errorf("unknown severity %q for rule %q", sevName, name)
			}
			s.enabled[name] = true
			s.severity[name] = sev
		default:
			if _, ok := ruleByName(item); !ok {
				return nil, fmt.Errorf("unknown rule %q", item)
			}
			s.enabled[item] = true
		}
	}
	return s, nil
}

// String renders the spec canonically and self-containedly: enabled rules
// in registration order with severity overrides attached, then a -NAME
// entry for every default-on (legacy) rule the spec disables, so parsing
// the string back — which starts from the legacy default — reproduces the
// spec exactly.
func (s *RuleSpec) String() string {
	var parts []string
	for _, r := range registry {
		if !s.enabled[r.Name()] {
			continue
		}
		p := r.Name()
		if sev, ok := s.severity[r.Name()]; ok {
			p += "=" + sev.String()
		}
		parts = append(parts, p)
	}
	for _, r := range registry {
		if !r.Interprocedural() && !s.enabled[r.Name()] {
			parts = append(parts, "-"+r.Name())
		}
	}
	return strings.Join(parts, ",")
}

// RunRules evaluates the spec's enabled rules against an image and
// returns the combined report in canonical finding order. A nil spec
// means DefaultRuleSpec — the legacy rule set, whose output is
// byte-identical to AnalyzeCtx. Roots configures the interprocedural
// rules; the zero RootSet means DefaultRoots (no-caller inference).
func RunRules(ctx context.Context, img *oat.Image, spec *RuleSpec, roots RootSet, workers int, tracer *obs.Tracer) (*Report, error) {
	return RunRulesPaired(ctx, img, nil, spec, roots, workers, tracer)
}

// RunRulesPaired is RunRules over a pair of images: the image under
// analysis plus the original it was derived from by a binary rewrite
// (debloat, re-outline). The paired rules — reoutlined-body-equivalent
// and lift-frozen-untouched — compare the two and prove the rewrite
// preserved every method's flattened instruction stream and every frozen
// method's bytes; on a nil orig they emit nothing, which keeps
// single-image runs (and their goldens) unchanged.
func RunRulesPaired(ctx context.Context, img, orig *oat.Image, spec *RuleSpec, roots RootSet, workers int, tracer *obs.Tracer) (*Report, error) {
	if spec == nil {
		spec = DefaultRuleSpec()
	}
	if len(roots.Methods) == 0 && !roots.NoCallers {
		roots = DefaultRoots()
	}
	rc := &RuleContext{
		ctx: ctx, img: img, workers: workers, tracer: tracer,
		roots: roots, spec: spec, orig: orig,
	}
	names := make([]string, 0, len(spec.enabled))
	for name, on := range spec.enabled {
		if on {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		r, ok := ruleByName(name)
		if !ok {
			continue
		}
		r.Run(rc)
		if rc.err != nil {
			return nil, rc.err
		}
	}
	rep := &Report{
		Thunks:    len(img.Thunks),
		Outlined:  len(img.Outlined),
		TextBytes: img.TextBytes(),
	}
	if rc.ran && rc.repErr == nil {
		rep.Methods = rc.rep.Methods
	}
	sortFindings(rc.out.list)
	rep.Findings = rc.out.list
	return rep, nil
}
