package reoutline

import (
	"fmt"
	"slices"

	"repro/internal/a64"
	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/oat"
)

// Lifting rewrites one linked method back into the rewritable form the
// outliner consumes: a CompiledMethod whose bl sites are symbolic (Ext
// entries) instead of bound displacements, and whose calls into existing
// outlined functions are expanded back to the callee body so the detector
// sees the original instruction stream, not an opaque call. Everything a
// lift step cannot prove safe freezes the method — it is carried through
// byte-for-byte instead, which is always sound.

// inlinableBodies indexes the outlined functions whose bodies may be
// expanded back into a caller: straight-line decodable code with no
// PC-relative or control-transfer instructions and no use of the link
// register, ending in the single `br x30` return the blob-shape rule
// demands. The returned bodies exclude that trailing return. A blob that
// fails any check is simply absent; its callers freeze.
func inlinableBodies(img *oat.Image) map[int][]uint32 {
	bodies := make(map[int][]uint32, len(img.Outlined))
	for _, f := range img.Outlined {
		if f.Offset < 0 || f.Size <= a64.WordSize || f.Offset%a64.WordSize != 0 ||
			f.Size%a64.WordSize != 0 || f.Offset+f.Size > img.TextBytes() {
			continue
		}
		words := img.Text[f.Offset/a64.WordSize : (f.Offset+f.Size)/a64.WordSize]
		ret, ok := a64.Decode(words[len(words)-1])
		if !ok || ret.Op != a64.OpBr || ret.Rn != a64.LR {
			continue
		}
		body := words[:len(words)-1]
		good := true
		for _, w := range body {
			inst, ok := a64.Decode(w)
			if !ok || inst.Op.IsPCRel() || inst.Op.IsBranch() || inst.Op == a64.OpBrk ||
				inst.Rd == a64.LR || inst.Rn == a64.LR || inst.Rm == a64.LR || inst.Rt2 == a64.LR {
				good = false
				break
			}
		}
		if good {
			bodies[f.Sym] = body
		}
	}
	return bodies
}

// liftMethod lifts one method: it plans an expansion splice for every call
// into an inlinable outlined body and a symbolic Ext entry for every other
// bl, then hands both to codegen's one method rewriter. A nil result means
// the method must be frozen instead: planning found a word it cannot
// classify, or the rewriter refused the splices. Either is a defensive
// refinement of the LiftFrozen mask, never a relaxation of it. The
// record's metadata is copied first, so the input image is never touched.
func liftMethod(img *oat.Image, rec *oat.MethodRecord, edges []analysis.Edge, bodies map[int][]uint32) *codegen.CompiledMethod {
	words := img.MethodCode(rec.ID)
	if words == nil {
		return nil // a malformed method record
	}
	n := len(words)
	data := make([]bool, n)
	for _, d := range rec.Meta.EmbeddedData {
		if d.Start < 0 || d.End < d.Start || d.End > rec.Size ||
			d.Start%a64.WordSize != 0 || d.End%a64.WordSize != 0 {
			return nil // a malformed embedded-data range
		}
		for w := d.Start / a64.WordSize; w < d.End/a64.WordSize; w++ {
			data[w] = true
		}
	}
	edgeAt := make(map[int]analysis.Edge, len(edges))
	for _, e := range edges {
		edgeAt[e.Off] = e
	}

	// Plan every word in order: expanded (calls into outlined functions),
	// symbolic (calls kept as bl + Ext), or verbatim. A kept bl word still
	// encodes its pre-lift displacement; the relink rebinds it through its
	// Ext entry, and the outliner treats calls as separators regardless of
	// the encoded value, so the stale bits are never interpreted.
	var splices []codegen.Splice
	var ext []a64.ExtRef
	for w := 0; w < n; w++ {
		if data[w] {
			continue
		}
		inst, ok := a64.Decode(words[w])
		if !ok {
			return nil // an undecodable word
		}
		switch inst.Op {
		case a64.OpBl:
			e, ok := edgeAt[w*a64.WordSize]
			if !ok {
				return nil // a bl without a recovered call edge
			}
			sym := 0
			switch {
			case e.Kind == analysis.EdgeOutlined:
				body, ok := bodies[e.Sym]
				if !ok {
					return nil // the callee's body is not inlinable
				}
				splices = append(splices, codegen.Splice{Start: w, Len: 1, Words: body})
				continue
			case codegen.IsThunkSym(e.Sym):
				// A bl whose edge carries a thunk symbol physically
				// targets the thunk even when the edge's Kind reflects
				// who the thunk dispatches to (the java_entry pattern
				// resolves through it), so this case comes before any
				// Kind-based one.
				sym = e.Sym
			case e.Kind == analysis.EdgeMethod:
				sym = codegen.PackSym(codegen.SymKindMethod, int64(e.Target))
			default:
				return nil // an unresolvable call target
			}
			ext = append(ext, a64.ExtRef{InstOff: w * a64.WordSize, Symbol: sym})
		case a64.OpBlr:
			if inst.Rn != a64.LR {
				return nil // an indirect call off the link register
			}
		}
	}

	// The rewriter drops any terminator on an expanded call: the expanded
	// body is straight-line, so no boundary replaces it, which is what lets
	// the detector outline across a former call site. A branch targeting a
	// call site lands on the first word of the expanded body, the same
	// successor.
	meta := rec.Meta
	meta.PCRel = slices.Clone(meta.PCRel)
	meta.Terminators = slices.Clone(meta.Terminators)
	meta.EmbeddedData = slices.Clone(meta.EmbeddedData)
	meta.Slowpaths = slices.Clone(meta.Slowpaths)
	cm := &codegen.CompiledMethod{
		M:        &dex.Method{ID: rec.ID, Class: "oat", Name: fmt.Sprintf("m%d", rec.ID)},
		Code:     words,
		Meta:     meta,
		StackMap: slices.Clone(rec.StackMap),
		Ext:      ext,
	}
	if cm.Rewrite(splices) != nil {
		return nil
	}
	return cm
}
