package analysis

import (
	"fmt"

	"repro/internal/a64"
	"repro/internal/par"
)

// The paired rules: interprocedural checks over an (original, rewritten)
// image pair that prove a binary rewrite — debloat composed with
// re-outlining, or re-outlining alone — preserved program meaning at the
// instruction level. Both run only when RunRulesPaired supplies an
// original image; on single-image runs they emit nothing, so enabling
// them in "all"/"interproc" specs never perturbs existing reports.

// flatTok is one token of a method's flattened instruction stream. Two
// methods are equivalent when their token streams are equal: outlined
// calls expand to the callee body, calls reduce to the identity of their
// target region, and PC-relative instructions reduce to their opcode
// (displacement zeroed) plus the flat index of their target — exactly
// the properties a correct outline/inline/relayout round-trip preserves.
type flatTok struct {
	kind uint8  // tokWord, tokPCRel, tokCallMethod, tokCallThunk, tokDangling
	word uint32 // tokWord: the raw word; tokPCRel: the word with displacement zeroed
	a    int64  // tokPCRel: flat target index; calls: target identity; tokDangling: absolute target
}

const (
	tokWord uint8 = iota
	tokPCRel
	tokCallMethod
	tokCallThunk
	tokDangling
)

// flattenMethod expands one method into its flat token stream. It reports
// ok=false when the method calls a malformed outlined body, which makes
// the stream undefined.
func flattenMethod(lay *layout, mi int) ([]flatTok, bool) {
	img := lay.img
	rec := &img.Methods[mi]
	words := img.MethodCode(rec.ID)
	if rec.Size == 0 {
		return nil, true
	}
	if words == nil {
		return nil, false
	}
	n := len(words)
	data := dataWords(rec.Meta.EmbeddedData, rec.Size)

	// inlined[w] is the body the bl at w expands to (nil when the word is
	// not a bl to an outlined-function head).
	inlined := make([][]uint32, n)
	for w := 0; w < n; w++ {
		if data[w] {
			continue
		}
		inst, ok := a64.Decode(words[w])
		if !ok || inst.Op != a64.OpBl {
			continue
		}
		abs := rec.Offset + w*a64.WordSize + int(inst.Imm)
		r, ok := lay.at(abs)
		if !ok || abs != r.off || r.kind != regionBlob {
			continue
		}
		info := lay.blobs[r.off]
		if info == nil || !info.ok {
			return nil, false
		}
		inlined[w] = img.Text[r.off/a64.WordSize : (r.off+r.size)/a64.WordSize-1]
	}

	// Pass 1: flat index of every old word, so PC-relative tokens can name
	// their targets in layout-free coordinates. A PC-relative target is a
	// separator at outline time, so it is never interior to an expanded
	// region on either side of a comparison.
	flatIdx := make([]int, n+1)
	fl := 0
	for w := 0; w < n; w++ {
		flatIdx[w] = fl
		if body := inlined[w]; body != nil {
			fl += len(body)
		} else {
			fl++
		}
	}
	flatIdx[n] = fl

	out := make([]flatTok, 0, fl)
	for w := 0; w < n; w++ {
		if body := inlined[w]; body != nil {
			for _, bw := range body {
				out = append(out, flatTok{kind: tokWord, word: bw})
			}
			continue
		}
		if data[w] {
			out = append(out, flatTok{kind: tokWord, word: words[w]})
			continue
		}
		inst, ok := a64.Decode(words[w])
		if !ok {
			out = append(out, flatTok{kind: tokWord, word: words[w]})
			continue
		}
		if inst.Op == a64.OpBl {
			abs := rec.Offset + w*a64.WordSize + int(inst.Imm)
			r, ok := lay.at(abs)
			if !ok || abs != r.off {
				out = append(out, flatTok{kind: tokDangling, a: int64(abs)})
				continue
			}
			switch r.kind {
			case regionMethod:
				out = append(out, flatTok{kind: tokCallMethod, a: int64(r.method)})
			default: // thunk
				out = append(out, flatTok{kind: tokCallThunk, a: int64(r.sym)})
			}
			continue
		}
		if inst.Op.IsPCRel() {
			zeroed, err := a64.PatchRel(words[w], 0)
			if err != nil {
				out = append(out, flatTok{kind: tokWord, word: words[w]})
				continue
			}
			toff := w*a64.WordSize + int(inst.Imm)
			if toff >= 0 && toff <= rec.Size && toff%a64.WordSize == 0 {
				out = append(out, flatTok{kind: tokPCRel, word: zeroed, a: int64(flatIdx[toff/a64.WordSize])})
			} else {
				// Leaves the method: compare by absolute target.
				out = append(out, flatTok{kind: tokDangling, word: zeroed,
					a: int64(rec.Offset + w*a64.WordSize + int(inst.Imm))})
			}
			continue
		}
		out = append(out, flatTok{kind: tokWord, word: words[w]})
	}
	return out, true
}

// reoutlinedBodies proves flatten-equivalence of every method across a
// paired run: expanding outlined calls and normalizing PC-relative
// displacements must reproduce the original stream exactly. This is the
// interprocedural analogue of outline.VerifyRewriteCtx — it needs no
// compile-time snapshot, only the two images.
func reoutlinedBodies(rc *ruleContext, _ string) error {
	if rc.orig == nil {
		return nil
	}
	if _, err := rc.analysis(); err != nil {
		return err
	}
	newLay, origLay := rc.an.lay, rc.origLayout()
	if len(rc.img.Methods) != len(rc.orig.Methods) {
		rc.emit(Finding{Severity: SevError, Method: NoMethod, Off: -1, Rule: RuleReoutlinedBody,
			Msg: fmt.Sprintf("method table changed size: %d -> %d", len(rc.orig.Methods), len(rc.img.Methods))})
		return nil
	}
	results, err := par.MapCtx(rc.ctx, rc.workers, len(rc.img.Methods), func(i int) (*findings, error) {
		fs := &findings{}
		compareFlattened(origLay, newLay, i, fs)
		return fs, nil
	})
	if err != nil {
		return err
	}
	for _, fs := range results {
		for _, f := range fs.list {
			rc.emit(f)
		}
	}
	return nil
}

// compareFlattened checks flatten-equivalence of one method slot.
func compareFlattened(origLay, newLay *layout, mi int, fs *findings) {
	id := origLay.img.Methods[mi].ID
	o, ok1 := flattenMethod(origLay, mi)
	n, ok2 := flattenMethod(newLay, mi)
	if !ok1 || !ok2 {
		fs.add(SevWarn, id, -1, RuleReoutlinedBody,
			"cannot flatten: a called outlined body is malformed")
		return
	}
	if len(o) != len(n) {
		fs.add(SevError, id, -1, RuleReoutlinedBody,
			"flattened stream changed length: %d -> %d words", len(o), len(n))
		return
	}
	for k := range o {
		if o[k] != n[k] {
			fs.add(SevError, id, -1, RuleReoutlinedBody,
				"flattened streams diverge at flat word %d", k)
			return
		}
	}
}

// liftFrozenUntouched proves the freeze contract of a paired run: every
// method the lift legality mask (LiftFrozen) froze on the original image
// is byte-identical in the new image, except that a bl word may differ
// when both the old and new displacement resolve to the head of the same
// region — the re-binding a relayout forces on even untouched callers.
func liftFrozenUntouched(rc *ruleContext, _ string) error {
	if rc.orig == nil {
		return nil
	}
	origCG, err := rc.origCallGraph()
	if err != nil {
		return err
	}
	if _, err := rc.analysis(); err != nil {
		return err
	}
	if len(rc.img.Methods) != len(rc.orig.Methods) {
		rc.emit(Finding{Severity: SevError, Method: NoMethod, Off: -1, Rule: RuleLiftFrozen,
			Msg: fmt.Sprintf("method table changed size: %d -> %d", len(rc.orig.Methods), len(rc.img.Methods))})
		return nil
	}
	newLay, origLay := rc.an.lay, rc.origLayout()
	frozen := LiftFrozen(rc.orig, origCG)
	for i, fz := range frozen {
		if !fz {
			continue
		}
		orec, nrec := &rc.orig.Methods[i], &rc.img.Methods[i]
		if orec.Size != nrec.Size {
			rc.emit(Finding{Severity: SevError, Method: orec.ID, Off: -1, Rule: RuleLiftFrozen,
				Msg: fmt.Sprintf("frozen method resized: %d -> %d bytes", orec.Size, nrec.Size)})
			continue
		}
		if orec.Size == 0 {
			continue
		}
		ow, nw := rc.orig.MethodCode(orec.ID), rc.img.MethodCode(nrec.ID)
		if ow == nil || nw == nil {
			rc.emit(Finding{Severity: SevWarn, Method: orec.ID, Off: -1, Rule: RuleLiftFrozen,
				Msg: "cannot compare: method record malformed"})
			continue
		}
		for w := range ow {
			if ow[w] == nw[w] {
				continue
			}
			if !sameBlRebinding(origLay, newLay, orec.Offset, nrec.Offset, w, ow[w], nw[w]) {
				rc.emit(Finding{Severity: SevError, Method: orec.ID, Off: w * a64.WordSize, Rule: RuleLiftFrozen,
					Msg: fmt.Sprintf("frozen method word changed (%#08x -> %#08x) beyond bl re-binding", ow[w], nw[w])})
				break
			}
		}
	}
	return nil
}

// sameBlRebinding reports whether a changed word is a bl in both images
// whose old and new displacements resolve to the head of the same region
// (same kind and same method/symbol identity).
func sameBlRebinding(origLay, newLay *layout, ooff, noff, w int, oword, nword uint32) bool {
	oi, ok1 := a64.Decode(oword)
	ni, ok2 := a64.Decode(nword)
	if !ok1 || !ok2 || oi.Op != a64.OpBl || ni.Op != a64.OpBl {
		return false
	}
	oabs := ooff + w*a64.WordSize + int(oi.Imm)
	nabs := noff + w*a64.WordSize + int(ni.Imm)
	or, ok1 := origLay.at(oabs)
	nr, ok2 := newLay.at(nabs)
	if !ok1 || !ok2 || oabs != or.off || nabs != nr.off || or.kind != nr.kind {
		return false
	}
	if or.kind == regionMethod {
		return or.method == nr.method
	}
	return or.sym == nr.sym
}
