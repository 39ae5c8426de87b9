package analysis_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/a64"
	"repro/internal/abi"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/reoutline"
	"repro/internal/workload"
)

// pinnedIndirectImage builds a lint-clean image whose layout is pinned by
// a materialized code address. In the Baseline build of this 12-method
// app, m0 dispatches its first call through an ArtMethod entry-point
// load (movz x0 / movk x0 / ldr x30, [x0, #32] at +0x30..+0x38, then
// blr x30 at +0x3c). The rewrite materializes the last method's head
// address straight into x30 instead, so the blr calls a fixed text
// address: any pass that moves that method leaves m0 calling stale bytes.
func pinnedIndirectImage(t *testing.T) *oat.Image {
	t.Helper()
	app, _, err := workload.Generate(workload.Profile{Seed: 11, Methods: 12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	img := res.Image
	last := dex.MethodID(len(img.Methods) - 1)
	target := img.EntryAddr(last)
	m0 := img.Methods[0].Offset / a64.WordSize
	want := []a64.Op{a64.OpMovz, a64.OpMovk, a64.OpLdrImm, a64.OpBlr}
	for i, op := range want {
		inst, ok := a64.Decode(img.Text[m0+12+i])
		if !ok || inst.Op != op {
			t.Fatalf("m0+%#x is %v, want %v: the fixture's input changed", (12+i)*a64.WordSize, inst.Op, op)
		}
	}
	if target != abi.TextBase+0x21d4 {
		t.Fatalf("last method head at %#x, want 0x1021d4: the fixture's input changed", target)
	}
	img.Text[m0+12] = a64.MustEncode(a64.Inst{Op: a64.OpMovz, Sf: true, Rd: a64.LR, Imm: target & 0xffff})
	img.Text[m0+13] = a64.MustEncode(a64.Inst{Op: a64.OpMovk, Sf: true, Rd: a64.LR, Imm: target >> 16, HW: 1})
	img.Text[m0+14] = a64.MustEncode(a64.Inst{Op: a64.OpNop})
	if fs := lint(t, img); len(fs) > 0 {
		t.Fatalf("pinned image does not lint clean: %s", fs[0])
	}
	cg, _ := analysis.BuildCallGraphCtx(context.Background(), img, 0)
	if id, off, pinned := analysis.PinnedIndirect(img, cg); !pinned || id != 0 || off != 0x3c {
		t.Fatalf("PinnedIndirect = m%d+%#x %v, want m0+0x3c true", id, off, pinned)
	}
	return img
}

// TestPinnedIndirectRefused is the regression test for layout-pinned
// images: both rewriting passes must refuse them at admission. Debloat
// used to accept this image, remove eight methods, move the pinned target
// from 0x1021d4 to 0x100e1c, and leave m0 calling the stale address — its
// re-verification runs only the per-method rules, which cannot see it.
func TestPinnedIndirectRefused(t *testing.T) {
	img := pinnedIndirectImage(t)
	if _, _, err := analysis.DebloatCtx(context.Background(), img, analysis.RootSet{Methods: []dex.MethodID{0}}, 0, nil); err == nil ||
		!strings.Contains(err.Error(), "pins the layout") {
		t.Errorf("Debloat: err = %v, want a pinned-layout refusal", err)
	}
	if _, _, err := reoutline.RunCtx(context.Background(), img, reoutline.Config{}); err == nil ||
		!strings.Contains(err.Error(), "pins the layout") {
		t.Errorf("reoutline.RunCtx: err = %v, want a pinned-layout refusal", err)
	}
}
