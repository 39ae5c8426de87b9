package analysis_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/a64"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/oat"
)

// TestLintMatchesDefaultReport pins LintCtx, the go/no-go filter, to the
// one full-report call: on clean and on corrupt images its findings are
// exactly the warn and error findings of the default-spec RunRulesPaired
// report, in the same order. The corrupt image draws both: two stomped
// words are errors, and dropping every PC-relative record turns the
// instructions they covered into metadata warnings.
func TestLintMatchesDefaultReport(t *testing.T) {
	clean := buildApp(t, core.CTOLTBO())
	corrupt := buildApp(t, core.CTOLTBO())
	corrupt.Text[len(corrupt.Text)/2] = 0xFFFFFFFF
	corrupt.Text[len(corrupt.Text)/3] = 0xFFFFFFFF
	for i := range corrupt.Methods {
		corrupt.Methods[i].Meta.PCRel = nil
	}
	for _, tc := range []struct {
		name string
		img  *oat.Image
	}{{"clean", clean}, {"corrupt", corrupt}} {
		t.Run(tc.name, func(t *testing.T) {
			var want []analysis.Finding
			for _, f := range analyze(t, tc.img, 3).Findings {
				if f.Severity >= analysis.SevWarn {
					want = append(want, f)
				}
			}
			got, err := analysis.LintCtx(t.Context(), tc.img, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("LintCtx found %d, the report's warn and error findings are %d:\n%v\n%v", len(got), len(want), got, want)
			}
			if tc.name == "corrupt" {
				sevs := map[analysis.Severity]bool{}
				for _, f := range want {
					sevs[f.Severity] = true
				}
				if !sevs[analysis.SevWarn] || !sevs[analysis.SevError] {
					t.Errorf("corrupt image drew severities %v, want warn and error", sevs)
				}
			}
		})
	}
}

// TestRuleTable keeps the registry and the Rule* constants of finding.go
// in step: every registered rule has a unique Name that one constant
// holds and a non-empty Doc, and every constant names a registered rule.
func TestRuleTable(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "finding.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[string]string{} // rule ID -> constant name
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Rule") || i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					id, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					consts[id] = name.Name
				}
			}
		}
	}
	if len(consts) == 0 {
		t.Fatal("finding.go declares no Rule* constants")
	}
	seen := map[string]bool{}
	for _, r := range analysis.Rules() {
		if seen[r.Name] {
			t.Errorf("rule %q registered twice", r.Name)
		}
		seen[r.Name] = true
		if consts[r.Name] == "" {
			t.Errorf("rule %q is not the value of a Rule* constant", r.Name)
		}
		if strings.TrimSpace(r.Doc) == "" {
			t.Errorf("rule %q has no Doc", r.Name)
		}
	}
	for id, name := range consts {
		if !seen[id] {
			t.Errorf("%s (%q) names no registered rule", name, id)
		}
	}
}

// TestRuleSpecParse exercises the -rules grammar: set operations, severity
// regrades, and the typo-is-an-error contract.
func TestRuleSpecParse(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr bool
		on      []string
		off     []string
	}{
		{spec: "", on: []string{analysis.RuleRecord, analysis.RuleDecode}, off: []string{analysis.RuleUnreachable}},
		{spec: "all", on: []string{analysis.RuleRecord, analysis.RuleUnreachable, analysis.RuleOutlineCycle}},
		{spec: "interproc", on: []string{analysis.RuleRecord, analysis.RuleUnreachable, analysis.RuleDeadOutline}},
		{spec: "all,legacy", on: []string{analysis.RuleRecord}, off: []string{analysis.RuleUnreachable}},
		{spec: "-dead-code", off: []string{analysis.RuleDeadCode}, on: []string{analysis.RuleRecord}},
		{spec: "unreachable-method", on: []string{analysis.RuleUnreachable}, off: []string{analysis.RuleDeadOutline}},
		{spec: "unreachable-method=warn", on: []string{analysis.RuleUnreachable}},
		{spec: "bogus-rule", wantErr: true},
		{spec: "decode=silly", wantErr: true},
		{spec: "-bogus-rule", wantErr: true},
		{spec: "bogus-rule=warn", wantErr: true},
	}
	for _, tc := range cases {
		s, err := analysis.ParseRuleSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: parse succeeded, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		for _, name := range tc.on {
			if !s.Enabled(name) {
				t.Errorf("%q: rule %s should be enabled", tc.spec, name)
			}
		}
		for _, name := range tc.off {
			if s.Enabled(name) {
				t.Errorf("%q: rule %s should be disabled", tc.spec, name)
			}
		}
	}

	// The canonical rendering survives a round trip.
	s, err := analysis.ParseRuleSpec("interproc,unreachable-method=warn,-dead-code")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := analysis.ParseRuleSpec(s.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", s.String(), err)
	}
	if s2.String() != s.String() {
		t.Errorf("spec does not round-trip: %q -> %q", s.String(), s2.String())
	}
}

// TestInterprocRules checks the reachability-backed rules agree with a
// direct call-graph query, and that severity regrades apply.
func TestInterprocRules(t *testing.T) {
	_, man, img := buildAppFull(t, core.CTOLTBO())
	roots := analysis.RootSet{Methods: man.Drivers}
	cg, _ := analysis.BuildCallGraphCtx(context.Background(), img, 0)
	reach := cg.Reachable(roots)
	wantDead := map[dex.MethodID]bool{}
	for _, id := range reach.DeadMethods(cg) {
		wantDead[id] = true
	}

	spec, err := analysis.ParseRuleSpec("interproc")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.RunRulesPaired(t.Context(), img, nil, spec, roots, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotDead := map[dex.MethodID]bool{}
	deadOutlines := 0
	for _, f := range rep.Findings {
		switch f.Rule {
		case analysis.RuleUnreachable:
			gotDead[f.Method] = true
		case analysis.RuleDeadOutline:
			deadOutlines++
		case analysis.RuleOutlineCycle:
			t.Errorf("clean build flagged an outline cycle: %s", f)
		}
	}
	if len(gotDead) != len(wantDead) {
		t.Errorf("rule reported %d unreachable methods, reachability says %d", len(gotDead), len(wantDead))
	}
	for id := range gotDead {
		if !wantDead[id] {
			t.Errorf("rule flagged m%d, reachability says live", id)
		}
	}
	if want := len(reach.DeadBlobs()); deadOutlines != want {
		t.Errorf("rule reported %d dead outlined functions, reachability says %d", deadOutlines, want)
	}

	// Severity regrade: the same findings, re-graded to errors.
	if len(wantDead) > 0 {
		spec, err := analysis.ParseRuleSpec("unreachable-method=error")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analysis.RunRulesPaired(t.Context(), img, nil, spec, roots, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, f := range rep.Findings {
			if f.Rule == analysis.RuleUnreachable {
				seen++
				if f.Severity != analysis.SevError {
					t.Errorf("regraded finding kept severity %s: %s", f.Severity, f)
				}
			}
		}
		if seen != len(wantDead) {
			t.Errorf("regraded run reported %d unreachable methods, want %d", seen, len(wantDead))
		}
	}

	// Severity regrade on a legacy rule, driven through the engine.
	stomped := buildApp(t, core.CTOLTBO())
	stomped.Text[len(stomped.Text)/2] = 0xFFFFFFFF
	dspec, err := analysis.ParseRuleSpec("decode=info")
	if err != nil {
		t.Fatal(err)
	}
	drep, err := analysis.RunRulesPaired(t.Context(), stomped, nil, dspec, analysis.RootSet{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	decodes := 0
	for _, f := range drep.Findings {
		if f.Rule == analysis.RuleDecode {
			decodes++
			if f.Severity != analysis.SevInfo {
				t.Errorf("decode finding not regraded to info: %s", f)
			}
		}
	}
	if decodes == 0 {
		t.Error("stomped word produced no decode finding")
	}
}

// TestOutlineCycleRule crafts the pathology the rule exists for: an
// outlined function whose body calls itself. A blob is supposed to be
// straight-line, so a self-call is a call-graph cycle through the blob —
// an error, because recursive re-entry runs with a clobbered return
// address.
func TestOutlineCycleRule(t *testing.T) {
	img := buildApp(t, core.CTOLTBO())
	if len(img.Outlined) == 0 {
		t.Fatal("build produced no outlined functions")
	}
	b := img.Outlined[0]
	img.Text[b.Offset/a64.WordSize] = a64.MustEncode(a64.Inst{Op: a64.OpBl, Imm: 0}) // bl to its own head

	spec, err := analysis.ParseRuleSpec("recursive-outline-cycle")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.RunRulesPaired(t.Context(), img, nil, spec, analysis.RootSet{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cycle *analysis.Finding
	for i, f := range rep.Findings {
		if f.Rule == analysis.RuleOutlineCycle {
			cycle = &rep.Findings[i]
		}
	}
	if cycle == nil {
		t.Fatal("self-calling outlined function produced no cycle finding")
	}
	if cycle.Severity != analysis.SevError {
		t.Errorf("cycle finding severity %s, want error", cycle.Severity)
	}
	if cycle.Off != b.Offset {
		t.Errorf("cycle finding at +%#x, blob is at +%#x", cycle.Off, b.Offset)
	}
}
