package reoutline

import (
	"fmt"

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

// liftMethod lifts one method. A nil result means the method must be
// frozen instead, with reason saying why — every reason is a defensive
// refinement of the LiftFrozen mask, never a relaxation of it.
func liftMethod(img *oat.Image, rec *oat.MethodRecord, edges []analysis.Edge, bodies map[int][]uint32) (*codegen.CompiledMethod, string) {
	words := img.MethodCode(rec.ID)
	if words == nil {
		return nil, "malformed method record"
	}
	n := len(words)
	data := make([]bool, n)
	for _, d := range rec.Meta.EmbeddedData {
		if d.Start < 0 || d.End < d.Start || d.End > rec.Size ||
			d.Start%a64.WordSize != 0 || d.End%a64.WordSize != 0 {
			return nil, "malformed embedded-data range"
		}
		for w := d.Start / a64.WordSize; w < d.End/a64.WordSize; w++ {
			data[w] = true
		}
	}
	edgeAt := make(map[int]analysis.Edge, len(edges))
	for _, e := range edges {
		edgeAt[e.Off] = e
	}

	// Plan every word: expanded (calls into outlined functions), symbolic
	// (calls kept as bl + Ext), or verbatim.
	inlined := make([][]uint32, n)
	syms := make([]int, n)
	hasSym := make([]bool, n)
	for w := 0; w < n; w++ {
		if data[w] {
			continue
		}
		inst, ok := a64.Decode(words[w])
		if !ok {
			return nil, "undecodable instruction word"
		}
		switch inst.Op {
		case a64.OpBl:
			e, ok := edgeAt[w*a64.WordSize]
			if !ok {
				return nil, "bl without a recovered call edge"
			}
			switch {
			case e.Kind == analysis.EdgeOutlined:
				body, ok := bodies[e.Sym]
				if !ok {
					return nil, "callee outlined body is not inlinable"
				}
				inlined[w] = body
			case codegen.IsThunkSym(e.Sym):
				// A bl whose edge carries a thunk symbol physically
				// targets the thunk even when the edge's Kind reflects
				// who the thunk dispatches to (the java_entry pattern
				// resolves through it), so this case comes before any
				// Kind-based one.
				syms[w], hasSym[w] = e.Sym, true
			case e.Kind == analysis.EdgeMethod:
				syms[w], hasSym[w] = codegen.PackSym(codegen.SymKindMethod, int64(e.Target)), true
			default:
				return nil, "unresolvable call target"
			}
		case a64.OpBlr:
			if inst.Rn != a64.LR {
				return nil, "indirect call off the link register"
			}
		}
	}

	// Old-word -> new-word index map; an expanded call maps to the first
	// word of the inlined body, and interior offsets shift monotonically.
	newIdx := make([]int, n+1)
	fl := 0
	for w := 0; w < n; w++ {
		newIdx[w] = fl
		if inlined[w] != nil {
			fl += len(inlined[w])
		} else {
			fl++
		}
	}
	newIdx[n] = fl
	mapOff := func(o int) int { return newIdx[o/a64.WordSize] * a64.WordSize }

	code := make([]uint32, 0, fl)
	var ext []a64.ExtRef
	for w := 0; w < n; w++ {
		if inlined[w] != nil {
			code = append(code, inlined[w]...)
			continue
		}
		if hasSym[w] {
			// The kept bl word still encodes its pre-lift displacement;
			// the relink rebinds it through this Ext entry, and the
			// outliner treats calls as separators regardless of the
			// encoded value, so the stale bits are never interpreted.
			ext = append(ext, a64.ExtRef{InstOff: newIdx[w] * a64.WordSize, Symbol: syms[w]})
		}
		code = append(code, words[w])
	}

	meta := codegen.Meta{}
	for _, r := range rec.Meta.PCRel {
		if r.InstOff%a64.WordSize != 0 || r.InstOff < 0 || r.InstOff >= rec.Size ||
			r.TargetOff < 0 || r.TargetOff > rec.Size || r.TargetOff%a64.WordSize != 0 {
			return nil, "malformed PC-relative record"
		}
		if inlined[r.InstOff/a64.WordSize] != nil {
			return nil, "PC-relative record on an expanded call site"
		}
		// A branch targeting a call site lands on the first word of the
		// expanded body — same successor semantics — so targets need no
		// freeze, only the remap.
		ni, nt := mapOff(r.InstOff), mapOff(r.TargetOff)
		if nt-ni != r.TargetOff-r.InstOff {
			patched, err := a64.PatchRel(code[ni/a64.WordSize], int64(nt-ni))
			if err != nil {
				return nil, "PC-relative displacement out of range after expansion"
			}
			code[ni/a64.WordSize] = patched
		}
		meta.PCRel = append(meta.PCRel, a64.Reloc{InstOff: ni, TargetOff: nt})
	}
	for _, t := range rec.Meta.Terminators {
		if t < 0 || t >= rec.Size || t%a64.WordSize != 0 {
			return nil, "malformed terminator offset"
		}
		if inlined[t/a64.WordSize] != nil {
			// The call this terminator marked is gone; the expanded body
			// is straight-line, so no boundary replaces it — which is
			// exactly what lets the detector outline across it.
			continue
		}
		meta.Terminators = append(meta.Terminators, mapOff(t))
	}
	for _, d := range rec.Meta.EmbeddedData {
		meta.EmbeddedData = append(meta.EmbeddedData, a64.Range{Start: mapOff(d.Start), End: mapOff(d.End)})
	}
	for _, d := range rec.Meta.Slowpaths {
		if d.Start < 0 || d.End < d.Start || d.End > rec.Size ||
			d.Start%a64.WordSize != 0 || d.End%a64.WordSize != 0 {
			return nil, "malformed slowpath range"
		}
		meta.Slowpaths = append(meta.Slowpaths, a64.Range{Start: mapOff(d.Start), End: mapOff(d.End)})
	}
	var sm []codegen.StackMapEntry
	for _, s := range rec.StackMap {
		if s.NativeOff < 0 || s.NativeOff >= rec.Size || s.NativeOff%a64.WordSize != 0 {
			return nil, "malformed safepoint offset"
		}
		if inlined[s.NativeOff/a64.WordSize] != nil {
			return nil, "safepoint on an expanded call site"
		}
		sm = append(sm, codegen.StackMapEntry{NativeOff: mapOff(s.NativeOff), DexPC: s.DexPC, Live: s.Live})
	}

	return &codegen.CompiledMethod{
		M:        &dex.Method{ID: rec.ID, Class: "oat", Name: fmt.Sprintf("m%d", rec.ID)},
		Code:     code,
		Meta:     meta,
		StackMap: sm,
		Ext:      ext,
	}, ""
}
