package oat

import (
	"fmt"
	"sort"

	"repro/internal/a64"
	"repro/internal/abi"
	"repro/internal/codegen"
	"repro/internal/dex"
)

// EditKind names the record table an edit places its object in.
type EditKind uint8

const (
	EditThunk EditKind = iota
	EditOutlined
	EditMethod
)

// Edit places one code object in the output text. An edit with neither
// Code nor Method keeps the source image's region — the thunk or outlined
// function named Sym, or method slot ID — with its bytes, and for a method
// its metadata. Supplying Code or Method places new code instead; a method
// given new code still stands in for its slot's input region, so kept
// callers of that region are rebound to it.
type Edit struct {
	Kind EditKind
	Sym  int          // EditThunk, EditOutlined: the symbol the record binds
	ID   dex.MethodID // EditMethod: the method-table slot
	// Code is the new body of a thunk or outlined function.
	Code []uint32
	// Method is the new code of a method slot; its Ext call sites are
	// bound against the output layout.
	Method *codegen.CompiledMethod
}

// KeepAll returns the edit list that reproduces src: one keep per thunk,
// outlined function, and non-empty method record, in text order. Callers
// filter and amend it; a method slot left without an edit becomes a stub.
func KeepAll(src *Image) []Edit {
	type keep struct {
		off int
		e   Edit
	}
	var keeps []keep
	for _, f := range src.Thunks {
		keeps = append(keeps, keep{f.Offset, Edit{Kind: EditThunk, Sym: f.Sym}})
	}
	for _, f := range src.Outlined {
		keeps = append(keeps, keep{f.Offset, Edit{Kind: EditOutlined, Sym: f.Sym}})
	}
	for i, m := range src.Methods {
		if m.Size > 0 {
			keeps = append(keeps, keep{m.Offset, Edit{Kind: EditMethod, ID: dex.MethodID(i)}})
		}
	}
	sort.SliceStable(keeps, func(a, b int) bool { return keeps[a].off < keeps[b].off })
	edits := make([]Edit, len(keeps))
	for i, k := range keeps {
		edits[i] = k.e
	}
	return edits
}

// Rewrite is the image editor, the one layout-and-relocate step the
// linker, debloat, and the post-hoc re-outliner share. It emits the image
// an edit list describes over src (which is not modified) in two passes.
// The layout pass places every edit in list order, so record tables come
// out in edit order, and maps each placed input region's old offset to
// its new one. The output keeps src's method slots; a slot with no edit
// becomes a zero-size stub at the end of the text segment, which keeps
// ArtMethod addressing (an ID per slot) intact while its body is gone.
// The relocation pass binds the symbolic call sites (Ext) of new method
// code and repatches the physical bl displacements of kept method bodies
// through the offset map. Every other PC-relative instruction is
// intra-method and moves with its method, and thunk and outlined bodies
// hold no PC-relative code, so these are the only cross-region
// relocations. Rewrite fails, rather than emit a wrong image, when a kept
// method calls a region no edit placed, a symbol does not resolve, a
// method reference names a stub, a symbol or slot is placed twice, or a
// displacement no longer encodes.
func Rewrite(src *Image, edits []Edit) (*Image, error) {
	out := &Image{Methods: make([]MethodRecord, len(src.Methods))}
	placed := make([]bool, len(src.Methods))
	symAddr := map[int]int64{}
	newOff := map[int]int{} // placed input region offset -> output offset
	srcFuncs := map[int]FuncRecord{}
	for _, f := range append(append([]FuncRecord(nil), src.Thunks...), src.Outlined...) {
		srcFuncs[f.Sym] = f
	}
	// Size the text once: the words each edit will place, as the layout
	// pass resolves them (nothing for a body it will refuse).
	total := 0
	for _, e := range edits {
		switch {
		case e.Kind == EditMethod && e.Method != nil:
			total += len(e.Method.Code)
		case e.Kind == EditMethod:
			total += len(src.MethodCode(e.ID))
		case e.Code != nil:
			total += len(e.Code)
		default:
			f := srcFuncs[e.Sym]
			total += len(src.code(f.Offset, f.Size))
		}
	}
	out.Text = make([]uint32, 0, total)

	for _, e := range edits {
		off := out.TextBytes()
		switch e.Kind {
		case EditThunk, EditOutlined:
			words := e.Code
			if words == nil {
				f, ok := srcFuncs[e.Sym]
				if words = src.code(f.Offset, f.Size); !ok || words == nil {
					return nil, fmt.Errorf("oat: no well-formed input record for %s to keep", codegen.SymName(e.Sym))
				}
				newOff[f.Offset] = off
			}
			if _, dup := symAddr[e.Sym]; dup {
				return nil, fmt.Errorf("oat: duplicate symbol %s", codegen.SymName(e.Sym))
			}
			symAddr[e.Sym] = abi.TextBase + int64(off)
			rec := FuncRecord{Sym: e.Sym, Offset: off, Size: len(words) * a64.WordSize}
			if e.Kind == EditThunk {
				out.Thunks = append(out.Thunks, rec)
			} else {
				out.Outlined = append(out.Outlined, rec)
			}
			out.Text = append(out.Text, words...)
		case EditMethod:
			if int(e.ID) >= len(placed) || placed[e.ID] {
				return nil, fmt.Errorf("oat: method slot m%d is placed twice or does not exist", e.ID)
			}
			placed[e.ID] = true
			in := src.Methods[e.ID]
			if in.Size > 0 {
				newOff[in.Offset] = off
			}
			words := src.MethodCode(e.ID)
			if cm := e.Method; cm != nil {
				in.Size, in.Meta, in.StackMap, words = cm.CodeBytes(), cm.Meta, cm.StackMap, cm.Code
			} else if in.Size == 0 || words == nil {
				return nil, fmt.Errorf("oat: no well-formed input body for m%d to keep", e.ID)
			}
			out.Methods[e.ID] = MethodRecord{ID: e.ID, Offset: off, Size: in.Size, Meta: in.Meta, StackMap: in.StackMap}
			out.Text = append(out.Text, words...)
		default:
			return nil, fmt.Errorf("oat: unknown edit kind %d", e.Kind)
		}
	}
	end := out.TextBytes()
	for i := range out.Methods {
		if !placed[i] {
			out.Methods[i] = MethodRecord{ID: dex.MethodID(i), Offset: end}
		}
	}

	for _, e := range edits {
		var err error
		switch {
		case e.Kind != EditMethod:
		case e.Method != nil:
			err = out.bind(e.Method, e.ID, symAddr)
		default:
			err = out.repatch(src, e.ID, newOff)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bind resolves the symbolic call sites of new method code placed in slot
// id: thunk and outlined symbols through the symbol table, SymKindMethod
// references through the output method table.
func (out *Image) bind(cm *codegen.CompiledMethod, id dex.MethodID, symAddr map[int]int64) error {
	rec := out.Methods[id]
	for _, ref := range cm.Ext {
		target, ok := symAddr[ref.Symbol]
		if kind, val := codegen.UnpackSym(ref.Symbol); kind == codegen.SymKindMethod {
			if val < 0 || val >= int64(len(out.Methods)) || out.Methods[val].Size == 0 {
				return fmt.Errorf("oat: m%d calls method m%d, which has no body", id, val)
			}
			target, ok = abi.TextBase+int64(out.Methods[val].Offset), true
		}
		if !ok {
			return fmt.Errorf("oat: m%d: unresolved symbol %s", id, codegen.SymName(ref.Symbol))
		}
		if ref.InstOff < 0 || ref.InstOff%a64.WordSize != 0 || ref.InstOff >= rec.Size {
			return fmt.Errorf("oat: m%d: call site +%#x outside the method", id, ref.InstOff)
		}
		w := (rec.Offset + ref.InstOff) / a64.WordSize
		patched, err := a64.PatchRel(out.Text[w], target-(abi.TextBase+int64(rec.Offset+ref.InstOff)))
		if err != nil {
			return fmt.Errorf("oat: m%d: binding %s: %w", id, codegen.SymName(ref.Symbol), err)
		}
		out.Text[w] = patched
	}
	return nil
}

// repatch re-targets the physical bl sites of kept method id at its new
// position, skipping embedded-data words: every bl must land on the head
// of a placed input region.
func (out *Image) repatch(src *Image, id dex.MethodID, newOff map[int]int) error {
	in, no := src.Methods[id], out.Methods[id].Offset
	for w, word := range src.MethodCode(id) {
		off := w * a64.WordSize
		inst, ok := a64.Decode(word)
		if !ok || inst.Op != a64.OpBl || inData(in.Meta.EmbeddedData, off) {
			continue
		}
		target := in.Offset + off + int(inst.Imm)
		nt, ok := newOff[target]
		if !ok {
			return fmt.Errorf("oat: kept m%d+%#x calls +%#x, a region no edit placed", id, off, target)
		}
		patched, err := a64.PatchRel(word, int64(nt-(no+off)))
		if err != nil {
			return fmt.Errorf("oat: repatching m%d+%#x: %w", id, off, err)
		}
		out.Text[(no+off)/a64.WordSize] = patched
	}
	return nil
}

// inData reports whether a method-relative byte offset lies in one of the
// method's embedded-data ranges.
func inData(ranges []a64.Range, off int) bool {
	for _, r := range ranges {
		if r.Contains(off) {
			return true
		}
	}
	return false
}
