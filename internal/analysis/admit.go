package analysis

import (
	"context"
	"fmt"

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
func Admit(ctx context.Context, img *oat.Image, workers int, tracer *obs.Tracer) (*CallGraph, error) {
	rep, lay, err := analyzeImage(ctx, img, workers, tracer)
	if err != nil {
		return nil, err
	}
	if err := refuseErrors(rep.Findings); err != nil {
		return nil, err
	}
	var cgfs findings
	cg, err := buildCallGraphFrom(ctx, lay, workers, &cgfs)
	if err != nil {
		return nil, err
	}
	if err := refuseErrors(cgfs.list); err != nil {
		return nil, err
	}
	if id, off, pinned := PinnedIndirect(img, cg); pinned {
		return nil, fmt.Errorf("analysis: m%d+%#x: indirect call through a materialized text address pins the layout", id, off)
	}
	return cg, nil
}

// refuseErrors fails on the first error-severity finding in canonical order.
func refuseErrors(fs []Finding) error {
	sortFindings(fs)
	for _, f := range fs {
		if f.Severity == SevError {
			return fmt.Errorf("analysis: refusing an unsound image: %s", f)
		}
	}
	return nil
}
