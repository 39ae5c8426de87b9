package analysis

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/oat"
	"repro/internal/obs"
)

// Admit is the admission check every pass that moves code in a linked
// image runs first (debloat, the post-hoc re-outliner). It indexes the
// image once, then refuses it on the first error-severity finding of the
// per-method verification, then on the first of the call-graph walk's own
// (a call into a removed range), and finally when an indirect call through
// a materialized text address pins the layout (PinnedIndirect): freezing
// the caller keeps the constant but not its target's position. On an
// admitted image every bl lands on a region head (the call-target rule),
// which is what makes the image editor's relocation total rather than
// heuristic. The call graph of an admitted image is returned for the
// caller's own analysis.
//
// An image whose content has not changed since a pass attached its
// analysis (debloat's re-verification, or an earlier Admit) is not
// analyzed again: Admit applies every check above to the stored report
// and call graph instead, so the verdict is the one a fresh analysis
// would give. Admit attaches what it computes to img.
func Admit(ctx context.Context, img *oat.Image, workers int, tracer *obs.Tracer) (*CallGraph, error) {
	_, cg, err := admit(ctx, img, workers, tracer)
	return cg, err
}

// admit is Admit, also returning the analysis img carries.
func admit(ctx context.Context, img *oat.Image, workers int, tracer *obs.Tracer) (*imageAnalysis, *CallGraph, error) {
	an, err := carriedAnalysis(ctx, img, nil, workers, tracer)
	if err != nil {
		return nil, nil, err
	}
	if err := firstError(an.rep.Findings); err != nil {
		return nil, nil, err
	}
	cg, cgfs, err := an.callGraph(ctx, workers)
	if err != nil {
		return nil, nil, err
	}
	if err := firstError(cgfs); err != nil {
		return nil, nil, err
	}
	if id, off, pinned := PinnedIndirect(img, cg); pinned {
		return nil, nil, fmt.Errorf("analysis: m%d+%#x: indirect call through a materialized text address pins the layout", id, off)
	}
	return an, cg, nil
}

// firstError fails on the first error-severity finding of a list already
// in canonical order.
func firstError(fs []Finding) error {
	for _, f := range fs {
		if f.Severity == SevError {
			return fmt.Errorf("analysis: refusing an unsound image: %s", f)
		}
	}
	return nil
}

// imageAnalysis is the analysis an image carries from one pass to the
// next (oat.Image.Attach): the full verification pass's report and
// layout with each method's share of it, plus the call graph and lift
// legality mask once a pass has built them. oat hands it back only while
// the image's content is what was analyzed. Everything in it is read-only
// once stored, so concurrent passes over one image share it; mu guards
// the lazily built parts. It holds nothing of an earlier image it was
// derived from: a reused result is copied, and its slices hold findings
// and edges, not code.
type imageAnalysis struct {
	rep         *Report // findings in canonical order
	lay         *layout // blob bodies decoded
	methods     []methodResult
	layoutClean bool // the layout pass found nothing

	mu         sync.Mutex
	cg         *CallGraph
	cgFindings []Finding // the walk's own, in canonical order
	// walks holds each method's walk once cg is built; before, the walks
	// carried over from an earlier image, nil where a method needs one.
	walks  []*methodWalk
	frozen []bool // LiftFrozen(img, cg)
}

// attachedAnalysis returns the analysis img carries, or nil when it
// carries none or its content changed since.
func attachedAnalysis(img *oat.Image) *imageAnalysis {
	an, _ := img.Attachment().(*imageAnalysis)
	return an
}

// carriedAnalysis returns img's attached analysis, counting the reuse as
// analysis.reused, or runs the verification pass, reusing what it can of
// prev (the analysis of the image img was rewritten from, or nil), and
// attaches it.
func carriedAnalysis(ctx context.Context, img *oat.Image, prev *imageAnalysis, workers int, tracer *obs.Tracer) (*imageAnalysis, error) {
	if an := attachedAnalysis(img); an != nil {
		tracer.Count("analysis.reused", 1)
		return an, nil
	}
	an, err := analyzeImage(ctx, img, prev, workers, tracer)
	if err != nil {
		return nil, err
	}
	img.Attach(an)
	return an, nil
}

// callGraph returns the image's call graph and the walk's own findings,
// built over the stored layout on first use.
func (an *imageAnalysis) callGraph(ctx context.Context, workers int) (*CallGraph, []Finding, error) {
	an.mu.Lock()
	defer an.mu.Unlock()
	if an.cg == nil {
		var fs findings
		cg, walks, err := buildCallGraphFrom(ctx, an.lay, an.walks, workers, &fs)
		if err != nil {
			return nil, nil, err
		}
		sortFindings(fs.list)
		an.cg, an.cgFindings, an.walks = cg, fs.list, walks
	}
	return an.cg, an.cgFindings, nil
}

// liftFrozen returns a copy of the freeze mask under the stored call
// graph, computed on first use; ok is false when cg is another graph.
func (an *imageAnalysis) liftFrozen(cg *CallGraph) (frozen []bool, ok bool) {
	an.mu.Lock()
	defer an.mu.Unlock()
	if cg == nil || cg != an.cg {
		return nil, false
	}
	if an.frozen == nil {
		an.frozen = liftFrozen(an.lay.img, cg)
	}
	return slices.Clone(an.frozen), true
}
