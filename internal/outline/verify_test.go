package outline

import (
	"strings"
	"testing"

	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/oat"
)

func TestRunVerifiedAcceptsHonestRewrites(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		app, _ := genApp(t, 100+seed, 60)
		methods := compile(t, app, true)
		blobs, stats, err := RunVerified(methods, Options{Parallel: 4, Rounds: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if stats.OutlinedFunctions == 0 || len(blobs) == 0 {
			t.Fatalf("seed %d: nothing outlined", seed)
		}
	}
}

// TestVerifyRewriteCatchesCorruption plants defects into an honest rewrite
// and checks the verifier reports each.
func TestVerifyRewriteCatchesCorruption(t *testing.T) {
	setup := func() ([]*codegen.CompiledMethod, *Snapshot, []oat.Blob, int) {
		app, _ := genApp(t, 77, 60)
		methods := compile(t, app, true)
		snap := Snap(methods)
		blobs, _, err := Run(methods, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Find a method with an outlined call site.
		victim := -1
		for mi, cm := range methods {
			for _, e := range cm.Ext {
				if kind, _ := codegen.UnpackSym(e.Symbol); kind == codegen.SymKindOutlined {
					victim = mi
				}
			}
		}
		if victim == -1 {
			t.Fatal("no outlined call sites")
		}
		return methods, snap, blobs, victim
	}

	t.Run("honest passes", func(t *testing.T) {
		methods, snap, blobs, _ := setup()
		if err := VerifyRewrite(methods, snap, blobs); err != nil {
			t.Fatalf("honest rewrite rejected: %v", err)
		}
	})

	t.Run("corrupted blob body", func(t *testing.T) {
		methods, snap, blobs, _ := setup()
		blobs[0].Code[0] = a64.MustEncode(a64.Inst{Op: a64.OpNop})
		err := VerifyRewrite(methods, snap, blobs)
		if err == nil {
			t.Fatal("corrupted blob accepted")
		}
	})

	t.Run("corrupted method word", func(t *testing.T) {
		methods, snap, blobs, victim := setup()
		// Overwrite a non-call word with a nop.
		cm := methods[victim]
		for w := range cm.Code {
			if inst, ok := a64.Decode(cm.Code[w]); ok && inst.Op == a64.OpMovz {
				cm.Code[w] = a64.MustEncode(a64.Inst{Op: a64.OpNop})
				break
			}
		}
		if err := VerifyRewrite(methods, snap, blobs); err == nil {
			t.Fatal("corrupted method accepted")
		}
	})

	t.Run("protected method touched", func(t *testing.T) {
		methods, snap, blobs, _ := setup()
		for _, cm := range methods {
			if cm.Meta.IsNative {
				cm.Code[0] = a64.MustEncode(a64.Inst{Op: a64.OpNop})
				break
			}
		}
		err := VerifyRewrite(methods, snap, blobs)
		if err == nil || !strings.Contains(err.Error(), "protected") {
			t.Fatalf("modified native method not reported: %v", err)
		}
	})

	t.Run("retargeted branch", func(t *testing.T) {
		methods, snap, blobs, _ := setup()
		// Find a method with a conditional branch and bend its displacement.
		for _, cm := range methods {
			if cm.Meta.IsNative || cm.Meta.HasIndirectJump || len(cm.Meta.PCRel) == 0 {
				continue
			}
			r := cm.Meta.PCRel[0]
			w := r.InstOff / 4
			inst, ok := a64.Decode(cm.Code[w])
			if !ok {
				continue
			}
			patched, err := a64.PatchRel(cm.Code[w], inst.Imm+8)
			if err != nil {
				continue
			}
			cm.Code[w] = patched
			cm.Meta.PCRel[0].TargetOff += 8
			break
		}
		if err := VerifyRewrite(methods, snap, blobs); err == nil {
			t.Fatal("retargeted branch accepted")
		}
	})

	t.Run("target past the method end", func(t *testing.T) {
		methods, snap, blobs, _ := setup()
		// Point a PC-relative record whose original target is not word 0
		// past the end of its method. The verifier must report the
		// retarget (the out-of-range word reads as word 0), not panic.
		bent := false
		for _, cm := range methods {
			if cm.Meta.IsNative || cm.Meta.HasIndirectJump {
				continue
			}
			for k, r := range cm.Meta.PCRel {
				if r.TargetOff/a64.WordSize > 0 {
					cm.Meta.PCRel[k].TargetOff = (len(cm.Code) + 16) * a64.WordSize
					bent = true
					break
				}
			}
			if bent {
				break
			}
		}
		if !bent {
			t.Fatal("no PC-relative record with a nonzero target")
		}
		err := VerifyRewrite(methods, snap, blobs)
		if err == nil || !strings.Contains(err.Error(), "retargeted") {
			t.Fatalf("out-of-range target not reported as a retarget: %v", err)
		}
	})
}
