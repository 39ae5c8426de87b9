package analysis

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/oat"
	"repro/internal/obs"
)

// The rule engine makes oatlint pluggable: every check is a named Rule in
// one table, enabled and re-graded per run by a RuleSpec (the -rules
// flag), and RunRulesPaired is the one call that evaluates a spec. The
// fifteen per-method checks select their findings out of ONE shared
// verification pass, so the default spec's report is that pass's report.
// The interprocedural rules need the whole-image call graph, which the
// rule context builds lazily over the same shared layout so structural
// findings are never duplicated: callgraph and call-into-removed-range
// select the call-graph walk's own findings, and the rest compute theirs
// from the graph, its reachability, or (paired runs) the original image.

// Rule is one verifier check, addressable by name.
type Rule struct {
	// Name is the stable rule ID findings carry in their Rule field.
	Name string
	// Doc is a one-line description of the check.
	Doc string
	// Interprocedural reports whether the rule needs the whole-image call
	// graph; such rules are off by default and enabled via -rules.
	Interprocedural bool

	// run evaluates the rule, emitting findings through the context; name
	// is the rule's own Name.
	run func(rc *ruleContext, name string) error
}

// registry holds every known rule; the engine runs enabled rules in this
// order (findings are sorted at the boundary, so the order affects only
// lazy-artifact build timing, not output). The per-method rules come
// first, in report-section order.
var registry = []Rule{
	{RuleRecord, "a record is out of bounds, misaligned, overlapping, or out of order", false, fromPass},
	{RuleDecode, "a non-data word does not decode as a modeled A64 instruction", false, fromPass},
	{RuleBranchTarget, "a branch leaves its method or misses an instruction boundary", false, fromPass},
	{RuleCallTarget, "a bl does not land on a method, thunk, or outlined-function head", false, fromPass},
	{RuleBlobEntry, "control enters the middle of an outlined function", false, fromPass},
	{RuleIndirect, "a computed branch does not match the switch-table idiom", false, fromPass},
	{RuleBlobShape, "an outlined function is not straight-line code ending in br x30", false, fromPass},
	{RuleSPBalance, "the stack pointer is unbalanced on some path", false, fromPass},
	{RuleStackProbe, "a calling method performs no stack-overflow probe", false, fromPass},
	{RuleCalleeSaved, "a callee-saved register is clobbered across a ret path", false, fromPass},
	{RuleLinkReg, "ret executes without the caller's return address in x30", false, fromPass},
	{RuleSafepoint, "a stack map entry does not sit on a call instruction", false, fromPass},
	{RuleMetadata, "the LTBO metadata disagrees with the code it describes", false, fromPass},
	{RuleLiteral, "a literal access targets bytes outside embedded data", false, fromPass},
	{RuleDeadCode, "instruction words unreachable from the method entry", false, fromPass},
	{RuleCallGraph, "call sites the interprocedural walk could not resolve", true, fromWalk},
	{RuleCallRemoved, "a call targets a removed range or leaves the text segment", true, fromWalk},
	{RuleUnreachable, "a method is unreachable from the root set", true, unreachableMethods},
	{RuleDeadOutline, "an outlined function is called by no live method", true, deadOutlineBodies},
	{RuleOutlineCycle, "the call graph cycles through an outlined function", true, outlineCycles},
	{RuleReoutlinedBody, "a rewritten method does not flatten to its original instruction stream (paired runs only)", true, reoutlinedBodies},
	{RuleLiftFrozen, "a lift-frozen method was modified beyond bl re-binding (paired runs only)", true, liftFrozenUntouched},
}

// ruleContext is what a rule sees: the image under analysis plus lazily
// built, memoized whole-image artifacts shared by every rule in the run.
type ruleContext struct {
	ctx     context.Context
	img     *oat.Image
	workers int
	tracer  *obs.Tracer
	roots   RootSet

	an     *imageAnalysis // the shared pass; held here, not attached to img
	repErr error

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
}

// origLayout returns the memoized layout of the original image, with blob
// bodies decoded. Structural findings on the original image are not the
// paired rules' business — the original was linted in its own run — so
// they are discarded here.
func (rc *ruleContext) origLayout() *layout {
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
func (rc *ruleContext) origAnalysis() *imageAnalysis {
	if !rc.origLooked {
		rc.origLooked = true
		if rc.origAn = attachedAnalysis(rc.orig); rc.origAn != nil {
			rc.tracer.Count("analysis.reused", 1)
		}
	}
	return rc.origAn
}

// origCallGraph returns the memoized call graph of the original image.
func (rc *ruleContext) origCallGraph() (*CallGraph, error) {
	if rc.origCG == nil && rc.orig != nil {
		var cg *CallGraph
		var err error
		if an := rc.origAnalysis(); an != nil {
			cg, _, err = an.callGraph(rc.ctx, rc.workers)
		} else {
			var fs findings
			cg, _, err = buildCallGraphFrom(rc.ctx, rc.origLayout(), nil, rc.workers, &fs)
		}
		if err != nil {
			return nil, err
		}
		rc.origCG = cg
	}
	return rc.origCG, nil
}

// analysis returns the shared per-method verification pass (layout,
// thunk/blob checks, CFG recovery, dataflow), running it on first use. On
// a paired run whose original carries its analysis, every method the
// rewrite left alone apart from its bl displacements takes its result
// from that analysis (reuse.go).
func (rc *ruleContext) analysis() (*Report, error) {
	if rc.an == nil && rc.repErr == nil {
		var prev *imageAnalysis
		if rc.orig != nil {
			prev = rc.origAnalysis()
		}
		rc.an, rc.repErr = analyzeImage(rc.ctx, rc.img, prev, rc.workers, rc.tracer)
	}
	if rc.repErr != nil {
		return nil, rc.repErr
	}
	return rc.an.rep, nil
}

// callGraph returns the whole-image call graph and the walk's own
// findings, built on first use over the shared layout.
func (rc *ruleContext) callGraph() (*CallGraph, []Finding, error) {
	if _, err := rc.analysis(); err != nil {
		return nil, nil, err
	}
	return rc.an.callGraph(rc.ctx, rc.workers)
}

// reachability returns the closure of the run's root set over the call
// graph, computed on first use.
func (rc *ruleContext) reachability() (*Reachability, *CallGraph, error) {
	cg, _, err := rc.callGraph()
	if err != nil {
		return nil, nil, err
	}
	if rc.reach == nil {
		rc.reach = cg.Reachable(rc.roots)
	}
	return rc.reach, cg, nil
}

// emit records one finding, applying the spec's severity override.
func (rc *ruleContext) emit(f Finding) {
	if sev, ok := rc.spec.severity[f.Rule]; ok {
		f.Severity = sev
	}
	rc.out.list = append(rc.out.list, f)
}

// fromPass emits the rule's findings from the shared per-method pass.
func fromPass(rc *ruleContext, name string) error {
	rep, err := rc.analysis()
	if err != nil {
		return err
	}
	for _, f := range rep.Findings {
		if f.Rule == name {
			rc.emit(f)
		}
	}
	return nil
}

// fromWalk emits the rule's findings from the call-graph walk: unresolved
// call targets and malformed ArtMethod constants (callgraph), and calls
// whose target lies in no recorded region (call-into-removed-range).
func fromWalk(rc *ruleContext, name string) error {
	_, cgfs, err := rc.callGraph()
	if err != nil {
		return err
	}
	for _, f := range cgfs {
		if f.Rule == name {
			rc.emit(f)
		}
	}
	return nil
}

// unreachableMethods reports methods no root can reach.
func unreachableMethods(rc *ruleContext, _ string) error {
	reach, cg, err := rc.reachability()
	if err != nil {
		return err
	}
	for _, id := range reach.DeadMethods(cg) {
		rc.emit(Finding{
			Severity: SevInfo, Method: id, Off: -1, Rule: RuleUnreachable,
			Msg: fmt.Sprintf("unreachable from the root set; %d bytes removable", cg.Nodes[id].Size),
		})
	}
	return nil
}

// deadOutlineBodies reports outlined functions no live method calls.
func deadOutlineBodies(rc *ruleContext, _ string) error {
	reach, cg, err := rc.reachability()
	if err != nil {
		return err
	}
	for _, bi := range reach.DeadBlobs() {
		b := cg.Blobs[bi]
		rc.emit(Finding{
			Severity: SevInfo, Method: NoMethod, Off: b.Offset, Rule: RuleDeadOutline,
			Msg: fmt.Sprintf("%s has no live caller; %d bytes removable", codegen.SymName(b.Sym), b.Size),
		})
	}
	return nil
}

// outlineCycles reports call-graph cycles that pass through an outlined
// function. A well-formed blob is straight-line code, so such a cycle
// implies a blob that calls — re-entering it recursively would run with a
// clobbered return address.
func outlineCycles(rc *ruleContext, _ string) error {
	cg, _, err := rc.callGraph()
	if err != nil {
		return err
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
	return nil
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

// Rules returns the registered rules in registration order.
func Rules() []Rule {
	out := make([]Rule, len(registry))
	copy(out, registry)
	return out
}

// isRule reports whether name is a registered rule.
func isRule(name string) bool {
	for _, r := range registry {
		if r.Name == name {
			return true
		}
	}
	return false
}

// RuleSpec selects which rules a run evaluates and at what severity.
// Build one with DefaultRuleSpec or ParseRuleSpec; RunRulesPaired takes
// nil to mean DefaultRuleSpec.
type RuleSpec struct {
	enabled  map[string]bool
	severity map[string]Severity
}

// DefaultRuleSpec enables the per-method (legacy) rules only.
func DefaultRuleSpec() *RuleSpec {
	s := &RuleSpec{enabled: map[string]bool{}, severity: map[string]Severity{}}
	for _, r := range registry {
		if !r.Interprocedural {
			s.enabled[r.Name] = true
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
				s.enabled[r.Name] = true
			}
		case item == "legacy":
			s.enabled = DefaultRuleSpec().enabled
		case item == "interproc":
			for _, r := range registry {
				if r.Interprocedural {
					s.enabled[r.Name] = true
				}
			}
		case strings.HasPrefix(item, "-"):
			name := item[1:]
			if !isRule(name) {
				return nil, fmt.Errorf("unknown rule %q", name)
			}
			delete(s.enabled, name)
		case strings.Contains(item, "="):
			name, sevName, _ := strings.Cut(item, "=")
			if !isRule(name) {
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
			if !isRule(item) {
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
		if !s.enabled[r.Name] {
			continue
		}
		p := r.Name
		if sev, ok := s.severity[r.Name]; ok {
			p += "=" + sev.String()
		}
		parts = append(parts, p)
	}
	for _, r := range registry {
		if !r.Interprocedural && !s.enabled[r.Name] {
			parts = append(parts, "-"+r.Name)
		}
	}
	return strings.Join(parts, ",")
}

// RunRulesPaired is the one call that returns a full report: it
// evaluates the spec's enabled rules against img and returns every
// finding at every severity in canonical (method, offset, rule) order,
// plus per-method summaries and image-level statistics. A nil spec means
// DefaultRuleSpec, the per-method rules, whose findings are exactly the
// shared verification pass's. Roots configures the interprocedural rules;
// the zero RootSet means DefaultRoots (no-caller inference), and a root
// outside img's method table is an error.
//
// Orig, when non-nil, is the original img was derived from by a binary
// rewrite (debloat, re-outline). The paired rules — reoutlined-body-
// equivalent and lift-frozen-untouched — compare the two and prove the
// rewrite preserved every method's flattened instruction stream and every
// frozen method's bytes; on a nil orig they emit nothing, so enabling
// them leaves single-image reports unchanged.
//
// It never panics on malformed input: every structural defect becomes a
// finding. Per-method passes run on at most workers goroutines (<= 0
// selects GOMAXPROCS) and the report is byte-identical for every width.
// A non-nil tracer records one span per analyzed method (category
// "lint", on the worker lane that ran it) plus finding counters; the
// report is byte-identical with or without it. The per-method pool
// checks ctx before every method, so a cancelled or deadline-expired
// context stops the analysis promptly and returns (nil, ctx.Err()).
func RunRulesPaired(ctx context.Context, img, orig *oat.Image, spec *RuleSpec, roots RootSet, workers int, tracer *obs.Tracer) (*Report, error) {
	if spec == nil {
		spec = DefaultRuleSpec()
	}
	roots, err := roots.resolve(len(img.Methods))
	if err != nil {
		return nil, err
	}
	rc := &ruleContext{
		ctx: ctx, img: img, workers: workers, tracer: tracer,
		roots: roots, spec: spec, orig: orig,
	}
	for _, r := range registry {
		if !spec.enabled[r.Name] {
			continue
		}
		if err := r.run(rc, r.Name); err != nil {
			return nil, err
		}
	}
	rep := &Report{
		Thunks:    len(img.Thunks),
		Outlined:  len(img.Outlined),
		TextBytes: img.TextBytes(),
	}
	if rc.an != nil {
		rep.Methods = rc.an.rep.Methods
	}
	sortFindings(rc.out.list)
	rep.Findings = rc.out.list
	return rep, nil
}
