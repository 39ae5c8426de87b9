package oat

import (
	"reflect"
	"slices"
	"testing"
)

// TestAttachmentFollowsContent attaches a value, then edits every kind of
// content in turn — a text word, each record slice in place, and a record
// field — and requires the value to vanish on each edit and come back
// when the edit is undone.
func TestAttachmentFollowsContent(t *testing.T) {
	img, err := Link(buildMethods(t, true), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := -1
	for i, rec := range img.Methods {
		if len(rec.Meta.PCRel) > 0 && len(rec.Meta.Terminators) > 0 && len(rec.StackMap) > 0 {
			m = i
			break
		}
	}
	if m < 0 || len(img.Thunks) == 0 {
		t.Fatal("fixture has no method with PC-relative records, terminators and stack maps, or no thunks")
	}
	const v = "derived"
	img.Attach(v)
	if img.Attachment() != v {
		t.Fatal("attached value not returned on unchanged content")
	}
	rec := &img.Methods[m]
	for _, c := range []struct {
		name string
		flip func()
	}{
		{"text word", func() { img.Text[len(img.Text)/2] ^= 1 }},
		{"pc-relative record", func() { rec.Meta.PCRel[0].TargetOff ^= 4 }},
		{"terminator", func() { rec.Meta.Terminators[0] ^= 4 }},
		{"stack map", func() { rec.StackMap[0].Live ^= 1 }},
		{"method flag", func() { rec.Meta.IsNative = !rec.Meta.IsNative }},
		{"method size", func() { rec.Size ^= 4 }},
		{"thunk record", func() { img.Thunks[0].Offset ^= 4 }},
	} {
		c.flip()
		if img.Attachment() != nil {
			t.Errorf("%s edited: attachment still returned", c.name)
		}
		c.flip()
		if img.Attachment() != v {
			t.Errorf("%s restored: attachment not returned", c.name)
		}
	}
	saved := rec.Meta.PCRel
	rec.Meta.PCRel = append(slices.Clip(saved), saved[0])
	if img.Attachment() != nil {
		t.Error("record slice replaced: attachment still returned")
	}
	rec.Meta.PCRel = saved
	// A by-value copy (go vet flags one; reflect does not) shares the
	// content but not the attachment, whose value may point back at img.
	cp := new(Image)
	reflect.ValueOf(cp).Elem().Set(reflect.ValueOf(img).Elem())
	if cp.Attachment() != nil {
		t.Error("a by-value copy inherited the attachment")
	}
	img.Attach(nil)
	if img.Attachment() != nil {
		t.Error("Attach(nil) did not clear the value")
	}
}
