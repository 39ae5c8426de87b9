package outline

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/a64"
	"repro/internal/codegen"
)

// rewriteMethod replaces each planned sequence with a single bl to its
// outlined function (§3.3.3) and patches every PC-relative instruction
// whose displacement the rewrite changed (§3.3.4). Metadata and stack maps
// are remapped so they stay consistent with the new code (§3.5).
//
// cm.Ext must be sorted by offset, as every producer hands it over (the
// assembler, the cache codec, the re-outliner's lift, and this function
// itself); the new call sites are merged into it in one pass, and an
// out-of-order entry is an error.
func rewriteMethod(cm *codegen.CompiledMethod, plans []rewritePlan) error {
	slices.SortFunc(plans, func(a, b rewritePlan) int { return cmp.Compare(a.start, b.start) })
	for i := 1; i < len(plans); i++ {
		if plans[i].start < plans[i-1].start+plans[i-1].length {
			return fmt.Errorf("overlapping rewrite plans at word %d", plans[i].start)
		}
	}

	old := cm.Code
	n := len(old)
	newIdx := make([]int, n+1) // old word index -> new word index
	newCode := make([]uint32, 0, n)
	var addedExt []a64.ExtRef

	pi := 0
	for w := 0; w < n; {
		if pi < len(plans) && plans[pi].start == w {
			p := plans[pi]
			if w+p.length > n {
				return fmt.Errorf("rewrite plan overruns code (start %d len %d of %d)", w, p.length, n)
			}
			// Interior words map to the bl's position; nothing may target
			// them (targets are separators), but metadata ranges that
			// *enclose* the region still map monotonically.
			for j := 0; j < p.length; j++ {
				newIdx[w+j] = len(newCode)
			}
			addedExt = append(addedExt, a64.ExtRef{InstOff: len(newCode) * a64.WordSize, Symbol: p.sym})
			newCode = append(newCode, a64.MustEncode(a64.Inst{Op: a64.OpBl}))
			w += p.length
			pi++
			continue
		}
		newIdx[w] = len(newCode)
		newCode = append(newCode, old[w])
		w++
	}
	newIdx[n] = len(newCode)

	mapOff := func(off int) (int, error) {
		if off%a64.WordSize != 0 || off/a64.WordSize > n {
			return 0, fmt.Errorf("unmappable offset %#x", off)
		}
		return newIdx[off/a64.WordSize] * a64.WordSize, nil
	}

	// §3.3.4: patch PC-relative instructions.
	for i, r := range cm.Meta.PCRel {
		ni, err := mapOff(r.InstOff)
		if err != nil {
			return err
		}
		nt, err := mapOff(r.TargetOff)
		if err != nil {
			return err
		}
		if nt-ni != r.TargetOff-r.InstOff {
			patched, err := a64.PatchRel(newCode[ni/a64.WordSize], int64(nt-ni))
			if err != nil {
				return fmt.Errorf("patching PC-relative at %#x: %w", r.InstOff, err)
			}
			newCode[ni/a64.WordSize] = patched
		}
		cm.Meta.PCRel[i] = a64.Reloc{InstOff: ni, TargetOff: nt}
	}

	// Remap terminators, embedded data, slow paths, stack maps, and the
	// pre-existing external call sites.
	for i, t := range cm.Meta.Terminators {
		nt, err := mapOff(t)
		if err != nil {
			return err
		}
		cm.Meta.Terminators[i] = nt
	}
	mapRanges := func(rs []a64.Range) error {
		for i, rg := range rs {
			s, err := mapOff(rg.Start)
			if err != nil {
				return err
			}
			e, err := mapOff(rg.End)
			if err != nil {
				return err
			}
			rs[i] = a64.Range{Start: s, End: e}
		}
		return nil
	}
	if err := mapRanges(cm.Meta.EmbeddedData); err != nil {
		return err
	}
	if err := mapRanges(cm.Meta.Slowpaths); err != nil {
		return err
	}
	for i, s := range cm.StackMap {
		no, err := mapOff(s.NativeOff)
		if err != nil {
			return err
		}
		// Safepoints sit on call instructions, which are separators and
		// therefore survive verbatim; a safepoint landing on a different
		// word would corrupt runtime stack walking (§3.5).
		if newCode[no/a64.WordSize] != old[s.NativeOff/a64.WordSize] {
			return fmt.Errorf("stack map entry at %#x no longer matches its instruction", s.NativeOff)
		}
		cm.StackMap[i].NativeOff = no
	}
	ext, err := mergeExt(cm.Ext, addedExt, mapOff)
	if err != nil {
		return err
	}
	cm.Ext = ext
	cm.Code = newCode
	return nil
}

// mergeExt remaps the method's existing external call sites through
// mapOff and merges the new outlined call sites into them, both in offset
// order, in one linear pass. mapOff is monotonic, so a sorted old list
// stays sorted; an existing site never lands on a new call's word, since
// call sites are separators no plan covers, and on a tie the existing
// entry goes first.
func mergeExt(old, added []a64.ExtRef, mapOff func(int) (int, error)) ([]a64.ExtRef, error) {
	out := make([]a64.ExtRef, 0, len(old)+len(added))
	prev := -1
	for _, e := range old {
		if e.InstOff < prev {
			return nil, fmt.Errorf("external call sites out of order at %#x", e.InstOff)
		}
		prev = e.InstOff
		no, err := mapOff(e.InstOff)
		if err != nil {
			return nil, err
		}
		for len(added) > 0 && added[0].InstOff < no {
			out = append(out, added[0])
			added = added[1:]
		}
		out = append(out, a64.ExtRef{InstOff: no, Symbol: e.Symbol})
	}
	return append(out, added...), nil
}
