// Package oat models the OAT file: the ELF-like container Android stores
// ahead-of-time compiled code in. The model keeps exactly the structure
// Calibro interacts with — a text segment holding pattern thunks, outlined
// functions, and per-method code, plus per-method metadata (LTBO.1 records
// and stack maps) — and supports binary serialization for the on-disk size
// experiments (Table 4).
package oat

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/a64"
	"repro/internal/abi"
	"repro/internal/codegen"
	"repro/internal/dex"
)

// MethodRecord locates one compiled method inside the text segment.
type MethodRecord struct {
	ID       dex.MethodID
	Offset   int // byte offset within the text segment
	Size     int // byte size
	Meta     codegen.Meta
	StackMap []codegen.StackMapEntry
}

// FuncRecord locates a non-method code object (a CTO pattern thunk or an
// LTBO outlined function) inside the text segment.
type FuncRecord struct {
	Sym    int
	Offset int
	Size   int
}

// Blob is an extra code object handed to the linker: the outliner delivers
// outlined functions this way.
type Blob struct {
	Sym  int
	Code []uint32
}

// Image is a linked OAT image.
type Image struct {
	Text     []uint32
	Methods  []MethodRecord // indexed by dex.MethodID
	Thunks   []FuncRecord
	Outlined []FuncRecord

	att atomic.Pointer[attachment] // see Attach
}

// TextBytes returns the text-segment size in bytes: the paper's primary
// code-size metric.
func (img *Image) TextBytes() int { return len(img.Text) * a64.WordSize }

// EntryAddr returns the absolute entry address of a method.
func (img *Image) EntryAddr(id dex.MethodID) int64 {
	return abi.TextBase + int64(img.Methods[id].Offset)
}

// MethodCode returns the code words of one method, or nil when the id or
// its record does not resolve to a word-aligned range inside the text
// segment. Unmarshal accepts record tables Validate would reject (so
// tooling can inspect corrupt images), which makes the nil here — not a
// slice panic — the contract a dumper of untrusted images relies on.
func (img *Image) MethodCode(id dex.MethodID) []uint32 {
	if int(id) < 0 || int(id) >= len(img.Methods) {
		return nil
	}
	return img.code(img.Methods[id].Offset, img.Methods[id].Size)
}

// code returns the text words of the byte range [off, off+size), or nil
// when the range is not word-aligned inside the text segment.
func (img *Image) code(off, size int) []uint32 {
	if off < 0 || size < 0 || off%a64.WordSize != 0 || size%a64.WordSize != 0 || off+size > img.TextBytes() {
		return nil
	}
	return img.Text[off/a64.WordSize : (off+size)/a64.WordSize]
}

// Link lays out the text segment — thunks first, then outlined functions,
// then method code — and binds every symbolic call site to its target: an
// edit list that places every object over an image with empty method
// slots (see Rewrite).
func Link(methods []*codegen.CompiledMethod, extras []Blob) (*Image, error) {
	// Collect the thunk symbols referenced anywhere.
	thunkSyms := map[int]bool{}
	for _, cm := range methods {
		for _, ref := range cm.Ext {
			kind, _ := codegen.UnpackSym(ref.Symbol)
			switch {
			case codegen.IsThunkSym(ref.Symbol):
				thunkSyms[ref.Symbol] = true
			case kind == codegen.SymKindOutlined:
				// bound against extras
			default:
				return nil, fmt.Errorf("oat: unknown symbol kind %d", kind)
			}
		}
	}
	ordered := make([]int, 0, len(thunkSyms))
	for s := range thunkSyms {
		ordered = append(ordered, s)
	}
	sort.Ints(ordered)

	edits := make([]Edit, 0, len(ordered)+len(extras)+len(methods))
	for _, sym := range ordered {
		words, err := codegen.ThunkWords(sym)
		if err != nil {
			return nil, err
		}
		edits = append(edits, Edit{Kind: EditThunk, Sym: sym, Code: words})
	}
	for _, b := range extras {
		edits = append(edits, Edit{Kind: EditOutlined, Sym: b.Sym, Code: b.Code})
	}
	for i, cm := range methods {
		if cm.M.ID != dex.MethodID(i) {
			return nil, fmt.Errorf("oat: method table out of order at %d", i)
		}
		edits = append(edits, Edit{Kind: EditMethod, ID: cm.M.ID, Method: cm})
	}
	return Rewrite(&Image{Methods: make([]MethodRecord, len(methods))}, edits)
}

// Validate checks the internal consistency of an image, the checks a
// loader would make before mapping it: records in bounds and word-aligned,
// method table indexed by ID, per-method metadata offsets inside the
// method, safepoints on call instructions, and thunk/outlined bodies that
// decode.
func (img *Image) Validate() error {
	size := img.TextBytes()
	checkRecord := func(what string, off, sz int) error {
		if off < 0 || sz < 0 || off%a64.WordSize != 0 || sz%a64.WordSize != 0 || off+sz > size {
			return fmt.Errorf("oat: %s record [%d,%d) outside text of %d bytes", what, off, off+sz, size)
		}
		return nil
	}
	for _, f := range append(append([]FuncRecord(nil), img.Thunks...), img.Outlined...) {
		if err := checkRecord(codegen.SymName(f.Sym), f.Offset, f.Size); err != nil {
			return err
		}
		for w := f.Offset / 4; w < (f.Offset+f.Size)/4; w++ {
			if _, ok := a64.Decode(img.Text[w]); !ok {
				return fmt.Errorf("oat: %s contains undecodable word at +%#x",
					codegen.SymName(f.Sym), w*4-f.Offset)
			}
		}
	}
	for i, m := range img.Methods {
		if m.ID != dex.MethodID(i) {
			return fmt.Errorf("oat: method table slot %d holds m%d", i, m.ID)
		}
		if err := checkRecord(fmt.Sprintf("m%d", m.ID), m.Offset, m.Size); err != nil {
			return err
		}
		inMethod := func(off int) bool { return off >= 0 && off < m.Size && off%a64.WordSize == 0 }
		for _, t := range m.Meta.Terminators {
			if !inMethod(t) {
				return fmt.Errorf("oat: m%d terminator offset %#x out of range", m.ID, t)
			}
		}
		for _, r := range m.Meta.PCRel {
			if !inMethod(r.InstOff) || r.TargetOff < 0 || r.TargetOff > m.Size {
				return fmt.Errorf("oat: m%d PC-relative record %+v out of range", m.ID, r)
			}
		}
		for _, d := range append(append([]a64.Range(nil), m.Meta.EmbeddedData...), m.Meta.Slowpaths...) {
			if d.Start < 0 || d.End < d.Start || d.End > m.Size {
				return fmt.Errorf("oat: m%d range %+v out of range", m.ID, d)
			}
		}
		for _, s := range m.StackMap {
			if !inMethod(s.NativeOff) {
				return fmt.Errorf("oat: m%d safepoint at %#x out of range", m.ID, s.NativeOff)
			}
			inst, ok := a64.Decode(img.Text[(m.Offset+s.NativeOff)/4])
			if !ok || (inst.Op != a64.OpBl && inst.Op != a64.OpBlr) {
				return fmt.Errorf("oat: m%d safepoint at %#x is not a call", m.ID, s.NativeOff)
			}
		}
	}
	return nil
}
