package outline

import (
	"context"
	"testing"

	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/dex"
)

// TestPaperTable2Example reproduces the paper's Table 2 walk-through
// bit-for-bit. The original sequence is
//
//	0x00: cbz w0, #+0xc      ; branches over the ldr/cmp pair
//	0x04: ldr w2, [x0]       ; the repeated pair to outline
//	0x08: cmp w2, w1
//	0x0c: mov x3, x4
//	0x10: ldr x3, [x0]
//	0x14: ret
//
// After outlining the pair into "MethodOutliner" (code 2 of Table 2:
// ldr; cmp; br x30) and replacing it with one bl (code 3), the cbz's
// displacement is stale; the patch step (code 4) updates it from +0xc to
// +0x8 so it still reaches the mov.
func TestPaperTable2Example(t *testing.T) {
	mkWords := func() []uint32 {
		return []uint32{
			a64.MustEncode(a64.Inst{Op: a64.OpCbz, Rd: a64.X0, Imm: 0xc}),
			a64.MustEncode(a64.Inst{Op: a64.OpLdrImm, Rd: a64.X2, Rn: a64.X0}),                        // ldr w2, [x0]
			a64.MustEncode(a64.Inst{Op: a64.OpSubsReg, Rd: a64.XZR, Rn: a64.X2, Rm: a64.X1}),          // cmp w2, w1
			a64.MustEncode(a64.Inst{Op: a64.OpOrrReg, Sf: true, Rd: a64.X3, Rn: a64.XZR, Rm: a64.X4}), // mov x3, x4
			a64.MustEncode(a64.Inst{Op: a64.OpLdrImm, Sf: true, Rd: a64.X3, Rn: a64.X0}),              // ldr x3, [x0]
			a64.MustEncode(a64.Inst{Op: a64.OpRet, Rn: a64.LR}),
		}
	}
	// The pair must repeat enough for the Figure 2 model to approve
	// (length 2, 4 occurrences: benefit 8 - 7 = 1), so build four methods
	// with the same body.
	var methods []*codegen.CompiledMethod
	for i := 0; i < 4; i++ {
		methods = append(methods, &codegen.CompiledMethod{
			M:    &dex.Method{ID: dex.MethodID(i), Class: "LT", Name: "t"},
			Code: mkWords(),
			Meta: codegen.Meta{
				PCRel:       []a64.Reloc{{InstOff: 0x0, TargetOff: 0xc}},
				Terminators: []int{0x0, 0x14},
			},
		})
	}

	blobs, stats, err := RunVerifiedCtx(context.Background(), methods, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OutlinedFunctions == 0 {
		t.Fatal("nothing outlined")
	}

	// Code 2: an outlined function holding exactly ldr w2,[x0]; cmp; br x30.
	want2 := []uint32{
		a64.MustEncode(a64.Inst{Op: a64.OpLdrImm, Rd: a64.X2, Rn: a64.X0}),
		a64.MustEncode(a64.Inst{Op: a64.OpSubsReg, Rd: a64.XZR, Rn: a64.X2, Rm: a64.X1}),
		a64.MustEncode(a64.Inst{Op: a64.OpBr, Rn: a64.LR}),
	}
	foundPair := false
	for _, b := range blobs {
		if len(b.Code) == len(want2) {
			same := true
			for i := range want2 {
				same = same && b.Code[i] == want2[i]
			}
			foundPair = foundPair || same
		}
	}
	if !foundPair {
		t.Errorf("Table 2 code 2 (MethodOutliner body) not produced; blobs: %d", len(blobs))
	}

	// Codes 3-4 in every method: cbz patched from +0xc to +0x8, pair
	// replaced by a bl.
	for mi, cm := range methods {
		first, ok := a64.Decode(cm.Code[0])
		if !ok || first.Op != a64.OpCbz {
			t.Fatalf("method %d does not start with cbz", mi)
		}
		if first.Imm != 0x8 {
			t.Errorf("method %d: cbz displacement %#x, want 0x8 (Table 2 code 4)", mi, first.Imm)
		}
		second, ok := a64.Decode(cm.Code[1])
		if !ok || second.Op != a64.OpBl {
			t.Errorf("method %d: word 1 is not the bl call site (Table 2 code 3)", mi)
		}
		// The mov the cbz targets must now sit at offset 0x8.
		target, ok := a64.Decode(cm.Code[2])
		if !ok || target.Op != a64.OpOrrReg || target.Rd != a64.X3 {
			t.Errorf("method %d: cbz no longer reaches the mov", mi)
		}
	}
}
