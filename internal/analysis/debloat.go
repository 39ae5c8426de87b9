package analysis

import (
	"context"
	"fmt"

	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/obs"
)

// Debloat is the reachability-driven rewrite pass: it takes an existing
// linked image — not a compile — and emits a smaller one with every
// provably-dead method body, orphaned outlined function, and unreferenced
// thunk removed.
//
// The safety argument has three legs:
//
//  1. Admission (Admit): an image with any error-severity lint finding,
//     or whose layout a materialized code address pins, is refused. On
//     an admitted image every bl lands on a region head (the call-target
//     rule), which is what makes relocation patching total rather than
//     heuristic.
//  2. Conservatism: removal is driven by Reachable, whose dead
//     classification is "provably dead" — any unresolved edge keeps the
//     whole image live, so the worst failure mode is removing nothing.
//  3. Re-verification: the emitted image is run through oat.Validate and
//     the full lint; a warning or error fails the debloat instead of
//     shipping a corrupt image. The lint reuses the input's result for
//     every kept method the rewrite changed only in its bl displacements
//     (reuse.go), and the output carries that analysis, so admitting it
//     next reuses it (see Admit).
//
// Method records are never deleted or renumbered — the method table is
// indexed by dex.MethodID, and every materialized ArtMethod address in
// live code encodes an ID. A dead method keeps its table slot as a
// zero-size stub record at the end of the text segment.
//
// The rebuild is an edit list for the shared image editor (oat.Rewrite):
// a keep for every live region, in the original region order, so
// debloating an already-debloated image is the identity — the idempotence
// the tests pin. The editor repatches the kept methods' bl sites, the
// only relocations that cross region boundaries.

// DebloatStats reports what a debloat removed.
type DebloatStats struct {
	MethodsTotal   int // method records in the table
	MethodsRemoved int // bodies replaced by zero-size stubs this pass
	BlobsTotal     int
	BlobsRemoved   int
	ThunksTotal    int
	ThunksRemoved  int
	TextBefore     int // bytes
	TextAfter      int // bytes
	Imprecise      bool
	// DeadMethods lists the IDs stubbed out this pass, ascending.
	DeadMethods []dex.MethodID
}

// DebloatCtx rewrites an image keeping only code reachable from roots,
// running the analysis on at most workers goroutines (<= 0 selects
// GOMAXPROCS) and recording telemetry on tracer (nil records nothing):
// one "debloat" stage span around the whole pass, plus the admission and
// lint spans inside it. An empty root set selects DefaultRoots; a root
// outside the method table is an error. It honours ctx cancellation. The
// output image is byte-identical for every worker width.
func DebloatCtx(ctx context.Context, img *oat.Image, roots RootSet, workers int, tracer *obs.Tracer) (*oat.Image, *DebloatStats, error) {
	sp := tracer.Start("stage", "debloat").Arg("methods", int64(len(img.Methods)))
	defer sp.End()
	roots, err := roots.resolve(len(img.Methods))
	if err != nil {
		return nil, nil, err
	}

	in, cg, err := admit(ctx, img, workers, tracer)
	if err != nil {
		return nil, nil, err
	}

	reach := cg.Reachable(roots)
	stats := &DebloatStats{
		MethodsTotal: len(img.Methods),
		BlobsTotal:   len(img.Outlined),
		ThunksTotal:  len(img.Thunks),
		TextBefore:   img.TextBytes(),
		Imprecise:    reach.Imprecise,
	}

	// Keep the live regions in their original order — what makes the pass
	// idempotent. A dead method's slot becomes a stub; already-stubbed
	// records are not re-counted.
	var edits []oat.Edit
	for _, e := range oat.KeepAll(img) {
		var live bool
		switch e.Kind {
		case oat.EditThunk:
			live = reach.LiveThunks[e.Sym]
		case oat.EditOutlined:
			bi, ok := cg.blobIndexOf(e.Sym)
			live = ok && reach.LiveBlobs[bi]
		default:
			live = reach.LiveMethods[e.ID]
		}
		if live {
			edits = append(edits, e)
		}
	}
	for i, m := range img.Methods {
		if m.Size > 0 && !reach.LiveMethods[i] {
			stats.MethodsRemoved++
			stats.DeadMethods = append(stats.DeadMethods, m.ID)
		}
	}
	out, err := oat.Rewrite(img, edits)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: debloat: %w", err)
	}
	stats.ThunksRemoved = len(img.Thunks) - len(out.Thunks)
	stats.BlobsRemoved = len(img.Outlined) - len(out.Outlined)
	stats.TextAfter = out.TextBytes()

	// Re-verification: the emitted image must pass the loader checks and
	// the full lint, or the debloat fails instead of shipping it.
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("analysis: debloat produced an invalid image: %w", err)
	}
	// Kept methods differ from the input's only in their bl displacements,
	// so the output's analysis takes their results (findings, summaries,
	// call-graph walks) from the input's, and analyzes the rest. It rides
	// along on the output, so a pass that admits it next (the
	// re-outliner) does not analyze the same bytes again.
	an, err := carriedAnalysis(ctx, out, in, workers, tracer)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range an.rep.Findings {
		if f.Severity >= SevWarn {
			return nil, nil, fmt.Errorf("analysis: debloat produced a lintable image: %s", f)
		}
	}
	if tracer != nil {
		tracer.Count("debloat.methods_removed", int64(stats.MethodsRemoved))
		tracer.Count("debloat.bytes_removed", int64(stats.TextBefore-stats.TextAfter))
	}
	return out, stats, nil
}
