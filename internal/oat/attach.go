package oat

import (
	"slices"

	"repro/internal/a64"
	"repro/internal/codegen"
)

// An image can carry one opaque value derived from its content — the
// static analyzer stores its verification pass there, so the next pass
// over the same image reuses it instead of recomputing it. The value is
// tied to the content it was derived from: the image keeps a private copy
// of its text words and records at Attach time, and Attachment returns
// the value only while the live content still equals that copy. Any edit
// to a word or to a record field, in place or by replacing a slice, makes
// the value invisible. The value lives and dies with the image; nothing
// outside it holds a reference.

// attachment is one attached value plus the content snapshot it is valid
// for.
type attachment struct {
	v       any
	owner   *Image // a by-value copy of the owner does not inherit v
	content *Image
}

// Attach records v as derived from the image's current content,
// replacing any earlier value. It is safe to call concurrently with
// Attachment and with other Attach calls; the image content itself must
// not be modified concurrently.
func (img *Image) Attach(v any) {
	img.att.Store(&attachment{v: v, owner: img, content: img.cloneContent()})
}

// Attachment returns the value last attached, or nil when none was or the
// image's content has changed since.
func (img *Image) Attachment() any {
	a := img.att.Load()
	if a == nil || a.owner != img || !sameContent(img, a.content) {
		return nil
	}
	return a.v
}

// cloneContent deep-copies the text words and every record. Each record
// slice kind shares one backing array, so the copy costs a fixed number of
// allocations, not one per method.
func (img *Image) cloneContent() *Image {
	var nPCRel, nTerm, nRange, nStack int
	for i := range img.Methods {
		m := &img.Methods[i]
		nPCRel += len(m.Meta.PCRel)
		nTerm += len(m.Meta.Terminators)
		nRange += len(m.Meta.EmbeddedData) + len(m.Meta.Slowpaths)
		nStack += len(m.StackMap)
	}
	c := &Image{
		Text:     slices.Clone(img.Text),
		Methods:  slices.Clone(img.Methods),
		Thunks:   slices.Clone(img.Thunks),
		Outlined: slices.Clone(img.Outlined),
	}
	pcrel := make([]a64.Reloc, 0, nPCRel)
	terms := make([]int, 0, nTerm)
	ranges := make([]a64.Range, 0, nRange)
	stack := make([]codegen.StackMapEntry, 0, nStack)
	for i := range c.Methods {
		m := &c.Methods[i]
		m.Meta.PCRel = carve(&pcrel, m.Meta.PCRel)
		m.Meta.Terminators = carve(&terms, m.Meta.Terminators)
		m.Meta.EmbeddedData = carve(&ranges, m.Meta.EmbeddedData)
		m.Meta.Slowpaths = carve(&ranges, m.Meta.Slowpaths)
		m.StackMap = carve(&stack, m.StackMap)
	}
	return c
}

// carve appends src to a shared backing array and returns the copy,
// capped so that appending to it cannot overwrite the next one.
func carve[T any](backing *[]T, src []T) []T {
	n := len(*backing)
	*backing = append(*backing, src...)
	return (*backing)[n:len(*backing):len(*backing)]
}

// sameContent reports whether two images hold equal text words and
// records. A nil and an empty slice compare equal, as they serialize.
func sameContent(a, b *Image) bool {
	if !slices.Equal(a.Text, b.Text) || !slices.Equal(a.Thunks, b.Thunks) ||
		!slices.Equal(a.Outlined, b.Outlined) || len(a.Methods) != len(b.Methods) {
		return false
	}
	for i := range a.Methods {
		x, y := &a.Methods[i], &b.Methods[i]
		if x.ID != y.ID || x.Offset != y.Offset || x.Size != y.Size ||
			x.Meta.HasIndirectJump != y.Meta.HasIndirectJump || x.Meta.IsNative != y.Meta.IsNative ||
			!slices.Equal(x.Meta.PCRel, y.Meta.PCRel) ||
			!slices.Equal(x.Meta.Terminators, y.Meta.Terminators) ||
			!slices.Equal(x.Meta.EmbeddedData, y.Meta.EmbeddedData) ||
			!slices.Equal(x.Meta.Slowpaths, y.Meta.Slowpaths) ||
			!slices.Equal(x.StackMap, y.StackMap) {
			return false
		}
	}
	return true
}
