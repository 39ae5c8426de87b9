package analysis

import (
	"context"
	"slices"

	"repro/internal/oat"
	"repro/internal/obs"
)

// View is what a pass reads from an analysis: the report in canonical
// order, the call graph, and the call-graph walk's own findings in
// canonical order.
type View struct {
	Report     *Report
	CallGraph  *CallGraph
	CGFindings []Finding
}

// CarriedView returns the analysis img carries, building its call graph
// on first use as Admit does, or nil when img carries none.
func CarriedView(img *oat.Image) (*View, error) {
	an := attachedAnalysis(img)
	if an == nil {
		return nil, nil
	}
	cg, cgfs, err := an.callGraph(context.Background(), 0)
	if err != nil {
		return nil, err
	}
	return &View{Report: an.rep, CallGraph: cg, CGFindings: cgfs}, nil
}

// PairedView returns the analysis and call graph RunRulesPaired computes
// for img when orig is the image it was derived from.
func PairedView(img, orig *oat.Image) (*View, error) {
	rc := &RuleContext{ctx: context.Background(), img: img, orig: orig, roots: DefaultRoots(), spec: DefaultRuleSpec()}
	rep, err := rc.Analysis()
	if err != nil {
		return nil, err
	}
	cg, cgfs, err := rc.CallGraph()
	if err != nil {
		return nil, err
	}
	sorted := *rep
	sorted.Findings = slices.Clone(rep.Findings)
	sortFindings(sorted.Findings)
	cgfs = slices.Clone(cgfs)
	sortFindings(cgfs)
	return &View{Report: &sorted, CallGraph: cg, CGFindings: cgfs}, nil
}

// PairedReused returns how many methods RunRulesPaired's analysis of img
// takes from the analysis orig carries (analysis.methods_reused).
func PairedReused(img, orig *oat.Image) (int64, error) {
	tracer := obs.New()
	rc := &RuleContext{ctx: context.Background(), img: img, orig: orig, roots: DefaultRoots(), spec: DefaultRuleSpec(), tracer: tracer}
	if _, err := rc.Analysis(); err != nil {
		return 0, err
	}
	return tracer.Snapshot().Counters["analysis.methods_reused"], nil
}
