package analysis

import (
	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/oat"
)

// The lift legality mask: which methods of a linked image the post-hoc
// re-outliner (internal/reoutline) may rewrite, and which it must carry
// through byte-for-byte. The mask is shared between the pass itself and
// the lift-frozen-untouched lint rule, so the verifier checks exactly the
// contract the rewriter promises.
//
// A method is liftable when every one of its call sites can be re-bound
// after the layout changes:
//
//   - a bl to a method head, a pattern thunk, or an outlined-function
//     head is symbolic after lifting — the relink re-encodes the
//     displacement against the target's new offset;
//   - a blr dispatched through the entry-point field of an ArtMethod
//     (Edge.Entry) or through the thread's runtime-entrypoint table
//     (EdgeRuntime) reads its target from a table at run time, so no
//     address in the code pins it.
//
// Everything else freezes the method: native and indirect-jump methods
// (the same protections link-time outlining honors), corrupt or stubbed
// records, calls whose target the abstract walk could not resolve, and
// indirect calls through materialized absolute addresses. Frozen methods
// keep their exact bytes modulo the bl displacement re-binding the
// lift-frozen-untouched rule permits.

// LiftFrozen computes the per-method freeze mask of an image under its
// call graph, indexed by method-table slot. The re-outliner may freeze
// additional methods for defensive reasons (a lift step it cannot prove
// safe); it must never lift a method this mask freezes. The mask of an
// image that carries its analysis (see Admit) under the carried call
// graph is computed once and copied out on every later call.
func LiftFrozen(img *oat.Image, cg *CallGraph) []bool {
	if an := attachedAnalysis(img); an != nil {
		if frozen, ok := an.liftFrozen(cg); ok {
			return frozen
		}
	}
	return liftFrozen(img, cg)
}

func liftFrozen(img *oat.Image, cg *CallGraph) []bool {
	frozen := make([]bool, len(img.Methods))
	for i := range img.Methods {
		rec := &img.Methods[i]
		node := &cg.Nodes[i]
		if rec.Size == 0 || rec.Meta.IsNative || rec.Meta.HasIndirectJump || node.Corrupt {
			frozen[i] = true
			continue
		}
		for _, e := range node.Edges {
			if !liftableEdge(img, rec, e) {
				frozen[i] = true
				break
			}
		}
	}
	return frozen
}

// liftableEdge reports whether one recovered call site survives a layout
// change after lifting.
func liftableEdge(img *oat.Image, rec *oat.MethodRecord, e Edge) bool {
	w := (rec.Offset + e.Off) / a64.WordSize
	if e.Off%a64.WordSize != 0 || w < 0 || w >= len(img.Text) {
		return false
	}
	inst, ok := a64.Decode(img.Text[w])
	if !ok {
		return false
	}
	switch inst.Op {
	case a64.OpBl:
		// A direct call is symbolic after lifting whenever its target is
		// a region head the relink tracks. An EdgeUnknown that still
		// carries a thunk symbol is the java_entry pattern with an
		// unresolved receiver: the bl itself targets the thunk, which is
		// re-bindable regardless of who the thunk dispatches to.
		if e.Kind == EdgeOutlined || e.Kind == EdgeMethod {
			return true
		}
		return codegen.IsThunkSym(e.Sym)
	case a64.OpBlr:
		// Only table-dispatched indirect calls are layout-independent.
		// blr through anything but the link register never comes out of
		// the compiler and lands outside the lift contract.
		if inst.Rn != a64.LR {
			return false
		}
		switch e.Kind {
		case EdgeRuntime:
			return true
		case EdgeMethod:
			return e.Entry
		default:
			return false
		}
	}
	return false
}

// PinnedIndirect scans for an indirect call that resolved to a target
// inside the text segment through a materialized absolute address — a
// blr whose register was built by movz/movk rather than loaded from a
// runtime table. Freezing the calling method preserves its bytes but not
// the address baked into them: if any other region moves past the
// target, the constant goes stale. The re-outliner therefore refuses the
// whole image when one exists. Returns the first such site in table
// order.
func PinnedIndirect(img *oat.Image, cg *CallGraph) (dex.MethodID, int, bool) {
	for i := range cg.Nodes {
		rec := &img.Methods[i]
		for _, e := range cg.Nodes[i].Edges {
			w := (rec.Offset + e.Off) / a64.WordSize
			if e.Off%a64.WordSize != 0 || w < 0 || w >= len(img.Text) {
				continue
			}
			inst, ok := a64.Decode(img.Text[w])
			if !ok || inst.Op != a64.OpBlr {
				continue
			}
			switch e.Kind {
			case EdgeOutlined, EdgeThunk:
				return cg.Nodes[i].ID, e.Off, true
			case EdgeMethod:
				if !e.Entry {
					return cg.Nodes[i].ID, e.Off, true
				}
			}
		}
	}
	return 0, 0, false
}
