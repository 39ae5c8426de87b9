package outline

import (
	"context"
	"fmt"

	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/par"
)

// Snapshot captures the pre-outlining state of compiled methods so a
// rewrite can be verified afterwards.
type Snapshot struct {
	codes  [][]uint32
	pcrels [][]a64.Reloc
	native []bool
	indir  []bool
}

// Snap copies what VerifyRewrite needs.
func Snap(methods []*codegen.CompiledMethod) *Snapshot {
	s := &Snapshot{
		codes:  make([][]uint32, len(methods)),
		pcrels: make([][]a64.Reloc, len(methods)),
		native: make([]bool, len(methods)),
		indir:  make([]bool, len(methods)),
	}
	for i, cm := range methods {
		s.codes[i] = append([]uint32(nil), cm.Code...)
		s.pcrels[i] = append([]a64.Reloc(nil), cm.Meta.PCRel...)
		s.native[i] = cm.Meta.IsNative
		s.indir[i] = cm.Meta.HasIndirectJump
	}
	return s
}

// VerifyRewrite checks the §3.3/§3.5 structural invariants of an outlining
// rewrite against the pre-state:
//
//  1. Protected methods (native, indirect-jump) are byte-identical.
//  2. Every rewritten method reconstructs its original instruction stream:
//     replaying the new code and inlining each outlined call's body (minus
//     the trailing br x30) yields the original words, modulo PC-relative
//     displacement patches.
//  3. Every patched PC-relative instruction still refers to the same
//     original instruction word.
//  4. Stack map entries land on call instructions.
//
// It returns the first violation found. Methods replay independently on
// runtime.GOMAXPROCS(0) workers (use VerifyRewriteParallel for an
// explicit width); when several methods are violated, the lowest method
// index's error is reported, exactly as a serial scan would.
func VerifyRewrite(methods []*codegen.CompiledMethod, before *Snapshot, blobs []oat.Blob) error {
	return VerifyRewriteParallel(methods, before, blobs, 0)
}

// VerifyRewriteParallel is VerifyRewrite with an explicit worker count
// (<= 0 selects GOMAXPROCS).
func VerifyRewriteParallel(methods []*codegen.CompiledMethod, before *Snapshot, blobs []oat.Blob, workers int) error {
	return VerifyRewriteTraced(methods, before, blobs, workers, nil)
}

// VerifyRewriteTraced is VerifyRewriteParallel with per-method replay
// spans (category "outline.verify") recorded on the tracer; nil traces
// nothing. Findings are identical either way.
func VerifyRewriteTraced(methods []*codegen.CompiledMethod, before *Snapshot, blobs []oat.Blob, workers int, tracer *obs.Tracer) error {
	return VerifyRewriteCtx(context.Background(), methods, before, blobs, workers, tracer)
}

// VerifyRewriteCtx is VerifyRewriteTraced with cooperative cancellation:
// the per-method replay pool checks ctx before every method and returns
// ctx.Err() when it fires.
func VerifyRewriteCtx(ctx context.Context, methods []*codegen.CompiledMethod, before *Snapshot, blobs []oat.Blob, workers int, tracer *obs.Tracer) error {
	bodyBySym := map[int][]uint32{}
	for _, b := range blobs {
		if len(b.Code) < 1 {
			return fmt.Errorf("outline: empty blob %s", codegen.SymName(b.Sym))
		}
		bodyBySym[b.Sym] = b.Code[:len(b.Code)-1] // strip the br x30
	}
	observer := tracer.PoolObserver("outline.verify", func(mi int) string {
		return methods[mi].M.FullName()
	})
	return par.EachObsCtx(ctx, workers, len(methods), observer, func(mi int) error {
		return verifyMethod(methods[mi], mi, before, bodyBySym)
	})
}

// verifyMethod replays one method's rewrite against the snapshot. It reads
// only the method, the snapshot slot mi, and the (read-only) blob bodies,
// so replays are safe to run concurrently.
func verifyMethod(cm *codegen.CompiledMethod, mi int, before *Snapshot, bodyBySym map[int][]uint32) error {
	name := cm.M.FullName()
	if before.native[mi] || before.indir[mi] {
		if !wordsEqual(cm.Code, before.codes[mi]) {
			return fmt.Errorf("outline: protected method %s was modified", name)
		}
		return nil
	}

	// Reconstruct the original stream. Ext entries are sorted by the
	// rewriter; outlined call sites have SymKindOutlined symbols (or
	// SymKindReoutlined when the post-hoc re-outliner drove the rewrite).
	outlinedAt := map[int]int{} // new word index -> symbol
	for _, e := range cm.Ext {
		if kind, _ := codegen.UnpackSym(e.Symbol); kind == codegen.SymKindOutlined || kind == codegen.SymKindReoutlined {
			outlinedAt[e.InstOff/a64.WordSize] = e.Symbol
		}
	}
	var rebuilt []uint32
	newToOld := make([]int, len(cm.Code)) // new word index -> rebuilt (old) word index
	for w := 0; w < len(cm.Code); w++ {
		newToOld[w] = len(rebuilt)
		if sym, ok := outlinedAt[w]; ok {
			body, found := bodyBySym[sym]
			if !found {
				return fmt.Errorf("outline: %s calls unknown %s", name, codegen.SymName(sym))
			}
			rebuilt = append(rebuilt, body...)
			continue
		}
		rebuilt = append(rebuilt, cm.Code[w])
	}
	orig := before.codes[mi]
	if len(rebuilt) != len(orig) {
		return fmt.Errorf("outline: %s reconstructs to %d words, original %d", name, len(rebuilt), len(orig))
	}
	// Identify positions whose displacement was legitimately patched.
	patched := make([]bool, len(rebuilt))
	for _, r := range cm.Meta.PCRel {
		// An outlined call to an empty body at the method's end maps to
		// len(rebuilt), past every word the loop below reads.
		if w := wordAt(newToOld, r.InstOff/a64.WordSize); w < len(patched) {
			patched[w] = true
		}
	}
	for w := range rebuilt {
		if rebuilt[w] == orig[w] {
			continue
		}
		if !patched[w] {
			return fmt.Errorf("outline: %s word %d changed (%#08x -> %#08x) without being a PC-relative patch",
				name, w, orig[w], rebuilt[w])
		}
		// A patched word must differ only in its displacement field:
		// re-patching the original with the new displacement must
		// reproduce the new word.
		ni, ok := a64.Decode(rebuilt[w])
		if !ok {
			return fmt.Errorf("outline: %s patched word %d does not decode", name, w)
		}
		same, err := a64.PatchRel(orig[w], ni.Imm)
		if err != nil || same != rebuilt[w] {
			return fmt.Errorf("outline: %s word %d patch altered more than the displacement", name, w)
		}
	}

	// PC-relative instructions must keep their logical targets: the
	// new target word (or the outlined body head) must equal the old
	// target word. Index the pre-state relocs by instruction word once
	// (each instruction has at most one reloc) so the check is linear
	// in the reloc count rather than quadratic.
	origTarget := make(map[int]int, len(before.pcrels[mi]))
	for _, orr := range before.pcrels[mi] {
		origTarget[orr.InstOff/a64.WordSize] = orr.TargetOff / a64.WordSize
	}
	for _, r := range cm.Meta.PCRel {
		oldInst := wordAt(newToOld, r.InstOff/a64.WordSize)
		oldTarget := wordAt(newToOld, r.TargetOff/a64.WordSize)
		want, found := origTarget[oldInst]
		if !found {
			return fmt.Errorf("outline: %s has a PC-relative at new offset %#x with no pre-state counterpart",
				name, r.InstOff)
		}
		if want != oldTarget {
			return fmt.Errorf("outline: %s PC-relative at old word %d retargeted from %d to %d",
				name, oldInst, want, oldTarget)
		}
	}

	// Stack maps sit on calls.
	for _, s := range cm.StackMap {
		i, ok := a64.Decode(cm.Code[s.NativeOff/a64.WordSize])
		if !ok || (i.Op != a64.OpBl && i.Op != a64.OpBlr) {
			return fmt.Errorf("outline: %s safepoint at %#x is not a call", name, s.NativeOff)
		}
	}
	return nil
}

// RunVerified is Run followed by VerifyRewrite against an automatic
// snapshot; intended for tooling and tests that want the §3.5 consistency
// guarantees checked explicitly.
func RunVerified(methods []*codegen.CompiledMethod, opts Options) ([]oat.Blob, *Stats, error) {
	return RunVerifiedCtx(context.Background(), methods, opts)
}

// RunVerifiedCtx is RunVerified with cooperative cancellation threaded
// through both the outliner and the rewrite verification; see RunCtx.
func RunVerifiedCtx(ctx context.Context, methods []*codegen.CompiledMethod, opts Options) ([]oat.Blob, *Stats, error) {
	snap := Snap(methods)
	blobs, stats, err := RunCtx(ctx, methods, opts)
	if err != nil {
		return nil, stats, err
	}
	if err := VerifyRewriteCtx(ctx, methods, snap, blobs, opts.Workers, opts.Tracer); err != nil {
		return nil, stats, err
	}
	return blobs, stats, nil
}

// wordAt maps a new word index through newToOld. An index outside the
// method (a corrupt or out-of-range offset) maps to word 0, so the checks
// that follow report it as a mismatch instead of panicking.
func wordAt(newToOld []int, w int) int {
	if w < 0 || w >= len(newToOld) {
		return 0
	}
	return newToOld[w]
}

func wordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
