package outline

import (
	"context"
	"fmt"
	"math"
	"sync"

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

// Snap copies what VerifyRewriteCtx needs.
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

// VerifyRewriteCtx checks the §3.3/§3.5 structural invariants of an
// outlining rewrite against the pre-state:
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
// at most workers goroutines (<= 0 selects GOMAXPROCS); when several
// methods are violated, the lowest method index's error is reported,
// exactly as a serial scan would. A non-nil tracer records per-method
// replay spans (category "outline.verify"); findings are identical
// either way. The replay pool checks ctx before every method and returns
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

	// Reconstruct the original stream. Outlined call sites have
	// SymKindOutlined symbols (or SymKindReoutlined when the post-hoc
	// re-outliner drove the rewrite); both kinds pack to a nonzero symbol,
	// so zero marks a word that is no outlined call.
	orig := before.codes[mi]
	sc := verifyScratch.Get().(*replayScratch)
	defer verifyScratch.Put(sc)
	outlinedAt := sc.outlinedAt.get(len(cm.Code)) // new word index -> symbol
	clear(outlinedAt)
	for _, e := range cm.Ext {
		if kind, _ := codegen.UnpackSym(e.Symbol); kind == codegen.SymKindOutlined || kind == codegen.SymKindReoutlined {
			w := e.InstOff / a64.WordSize
			if e.InstOff < 0 || w >= len(cm.Code) {
				return fmt.Errorf("outline: %s has an outlined call site at %#x outside its %d words", name, e.InstOff, len(cm.Code))
			}
			outlinedAt[w] = e.Symbol
		}
	}
	rebuilt := sc.rebuilt.get(len(orig))[:0]
	newToOld := sc.newToOld.get(len(cm.Code)) // new word index -> rebuilt (old) word index
	for w := 0; w < len(cm.Code); w++ {
		newToOld[w] = len(rebuilt)
		if sym := outlinedAt[w]; sym != 0 {
			body, found := bodyBySym[sym]
			if !found {
				return fmt.Errorf("outline: %s calls unknown %s", name, codegen.SymName(sym))
			}
			rebuilt = append(rebuilt, body...)
			continue
		}
		rebuilt = append(rebuilt, cm.Code[w])
	}
	sc.rebuilt = rebuilt // keep a grown buffer
	if len(rebuilt) != len(orig) {
		return fmt.Errorf("outline: %s reconstructs to %d words, original %d", name, len(rebuilt), len(orig))
	}
	// Identify positions whose displacement was legitimately patched.
	patched := sc.patched.get(len(rebuilt))
	clear(patched)
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
	// in the reloc count rather than quadratic. A mapped instruction
	// index lies in [0, len(orig)], so the table covers every lookup.
	origTarget := sc.origTarget.get(len(orig) + 1)
	for i := range origTarget {
		origTarget[i] = noReloc
	}
	for _, orr := range before.pcrels[mi] {
		if w := orr.InstOff / a64.WordSize; orr.InstOff >= 0 && w < len(origTarget) {
			origTarget[w] = orr.TargetOff / a64.WordSize
		}
	}
	for _, r := range cm.Meta.PCRel {
		oldInst := wordAt(newToOld, r.InstOff/a64.WordSize)
		oldTarget := wordAt(newToOld, r.TargetOff/a64.WordSize)
		want := origTarget[oldInst]
		if want == noReloc {
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
		if w := s.NativeOff / a64.WordSize; s.NativeOff < 0 || w >= len(cm.Code) {
			return fmt.Errorf("outline: %s safepoint at %#x is outside its %d words", name, s.NativeOff, len(cm.Code))
		}
		i, ok := a64.Decode(cm.Code[s.NativeOff/a64.WordSize])
		if !ok || (i.Op != a64.OpBl && i.Op != a64.OpBlr) {
			return fmt.Errorf("outline: %s safepoint at %#x is not a call", name, s.NativeOff)
		}
	}
	return nil
}

// replayScratch holds verifyMethod's per-method tables. Every replay
// sizes and initializes each table it reads, so a recycled one carries
// nothing over.
type replayScratch struct {
	outlinedAt scratch[int]
	rebuilt    scratch[uint32]
	newToOld   scratch[int]
	patched    scratch[bool]
	origTarget scratch[int]
}

// verifyScratch recycles replayScratch across method replays.
var verifyScratch = sync.Pool{New: func() any { return new(replayScratch) }}

// scratch is a reusable buffer.
type scratch[T any] []T

// get returns the buffer resized to n elements, growing it when it is
// shorter; the contents are unspecified.
func (s *scratch[T]) get(n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// noReloc marks a word with no pre-state PC-relative record in
// verifyMethod's target table; no word index, however corrupt, is MinInt.
const noReloc = math.MinInt

// RunVerifiedCtx is RunCtx followed by VerifyRewriteCtx against an
// automatic snapshot, with ctx threaded through both; intended for
// tooling and tests that want the §3.5 consistency guarantees checked
// explicitly.
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
