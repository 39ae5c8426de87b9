package analysis

import (
	"repro/internal/a64"
	"repro/internal/codegen"
)

// The dataflow pass abstractly interprets every path through the
// recovered CFG, tracking three facts the ABI demands at every ret:
//
//   - stack-pointer balance: the frame allocated at entry is released on
//     every return path, and no two paths reach the same block with
//     different sp adjustments;
//   - callee-saved discipline: x19..x29 hold their entry values at ret,
//     which forces the save/restore pairs to match across every path,
//     including the ones that route through outlined functions;
//   - link-register integrity: the x30 that ret jumps through is the
//     caller's return address, not a leftover from an intervening call.
//
// The abstraction is deliberately small: sp is an exact byte delta from
// entry, each register is either clean (still holds its entry value) or
// dirty, and the only memory modeled is the method's own frame, as a
// short vector of (entry-relative sp offset, callee-saved register whose
// entry value was spilled there) pairs sorted by offset. Calls clobber
// the AAPCS caller-saved set; calls into outlined functions replay the
// blob body inline, because an outlined prologue/epilogue fragment saves
// or restores registers on the caller's behalf.

// spUnknown poisons the sp delta after an untracked sp write.
const spUnknown = int64(-1) << 62

// calleeSavedMask covers x19..x29: the registers a method must preserve.
// x18 is the platform register; x30 is tracked separately as the link
// register.
const calleeSavedMask = 0x3FF8_0000

// callerSavedMask covers x0..x17, clobbered by any real call.
const callerSavedMask = 0x0003_FFFF

// slot is one tracked frame save: the callee-saved (or link) register
// whose entry value was spilled at entry-relative sp offset off.
type slot struct {
	off int64
	reg a64.Reg
}

// absState is the abstract machine state at one program point.
type absState struct {
	sp    int64  // sp delta from method entry, in bytes
	dirty uint32 // bit r: xr no longer holds its entry value
	slots []slot // tracked frame saves, sorted by off, one per offset
}

// find returns the index of the first slot at or above off, and whether
// it is exactly off. Frames save a handful of registers, so a linear scan
// suffices.
func (s *absState) find(off int64) (int, bool) {
	for i := range s.slots {
		if s.slots[i].off >= off {
			return i, s.slots[i].off == off
		}
	}
	return len(s.slots), false
}

func (s *absState) get(off int64) (a64.Reg, bool) {
	if i, ok := s.find(off); ok {
		return s.slots[i].reg, true
	}
	return 0, false
}

func (s *absState) set(off int64, reg a64.Reg) {
	i, ok := s.find(off)
	if ok {
		s.slots[i].reg = reg
		return
	}
	s.slots = append(s.slots, slot{})
	copy(s.slots[i+1:], s.slots[i:])
	s.slots[i] = slot{off, reg}
}

func (s *absState) del(off int64) {
	if i, ok := s.find(off); ok {
		s.slots = append(s.slots[:i], s.slots[i+1:]...)
	}
}

// copyFrom overwrites s with src, reusing s's slot storage.
func (s *absState) copyFrom(src *absState) {
	s.sp, s.dirty = src.sp, src.dirty
	s.slots = append(s.slots[:0], src.slots...)
}

// mergeInto folds s into dst, reporting whether dst changed and whether
// the stack deltas disagree (the caller turns that into a finding). A
// slot of dst survives only when s holds the same register at the same
// offset, so dst's slots only ever shrink, in place.
func (s *absState) mergeInto(dst *absState) (changed, spConflict bool) {
	if dst.sp != s.sp {
		if dst.sp != spUnknown {
			spConflict = dst.sp != s.sp && s.sp != spUnknown
			if s.sp == spUnknown || spConflict {
				dst.sp = spUnknown
				changed = true
			}
		}
	}
	if d := dst.dirty | s.dirty; d != dst.dirty {
		dst.dirty = d
		changed = true
	}
	kept, j := dst.slots[:0], 0
	for _, d := range dst.slots {
		for j < len(s.slots) && s.slots[j].off < d.off {
			j++
		}
		if j < len(s.slots) && s.slots[j] == d {
			kept = append(kept, d)
		}
	}
	if len(kept) != len(dst.slots) {
		dst.slots = kept
		changed = true
	}
	return changed, spConflict
}

func (s *absState) markDirty(r a64.Reg) {
	if r < 31 {
		s.dirty |= 1 << r
	}
}

func (s *absState) isClean(r a64.Reg) bool { return r < 31 && s.dirty&(1<<r) == 0 }

// store models a write of reg to the frame slot at entry-relative offset.
// Only a clean callee-saved (or link/frame) register produces a tracked
// save; anything else kills whatever the slot held.
func (s *absState) store(addr int64, reg a64.Reg) {
	if reg < 31 && s.isClean(reg) && (calleeSavedMask|1<<a64.LR)&(1<<reg) != 0 {
		s.set(addr, reg)
	} else {
		s.del(addr)
	}
}

// load models a read of the frame slot at addr into reg: restoring a
// register from its own saved entry value makes it clean again.
func (s *absState) load(addr int64, reg a64.Reg) {
	if reg >= 31 {
		return
	}
	if saved, ok := s.get(addr); ok && saved == reg {
		s.dirty &^= 1 << reg
		return
	}
	s.markDirty(reg)
}

// clobberCall applies the AAPCS effect of a call whose callee is opaque:
// caller-saved registers and the link register are gone; sp, the frame,
// and callee-saved registers are preserved.
func (s *absState) clobberCall() {
	s.dirty |= callerSavedMask | 1<<a64.LR
}

// transfer applies one instruction. It returns false when the state after
// the instruction is meaningless (sp lost), which poisons the path.
func (mc *methodCtx) transfer(s *absState, off int, inst a64.Inst) bool {
	isSP := func(r a64.Reg) bool { return r == 31 }
	switch inst.Op {
	case a64.OpAddImm, a64.OpSubImm:
		imm := inst.Imm
		if inst.Shift12 {
			imm <<= 12
		}
		if inst.Op == a64.OpSubImm {
			imm = -imm
		}
		switch {
		case isSP(inst.Rd) && isSP(inst.Rn):
			if s.sp != spUnknown {
				s.sp += imm
			}
		case isSP(inst.Rd):
			mc.errf(off, RuleSPBalance, "sp written from x%d; stack depth untrackable", inst.Rn)
			s.sp = spUnknown
			return false
		default:
			s.markDirty(inst.Rd)
		}

	case a64.OpAddsImm, a64.OpSubsImm,
		a64.OpAddReg, a64.OpAddsReg, a64.OpSubReg, a64.OpSubsReg,
		a64.OpAndReg, a64.OpOrrReg, a64.OpEorReg,
		a64.OpMul, a64.OpLslReg, a64.OpLsrReg,
		a64.OpMovz, a64.OpMovn, a64.OpMovk,
		a64.OpAdr, a64.OpAdrp, a64.OpLdrLit, a64.OpLdrReg:
		s.markDirty(inst.Rd) // Rd==31 is ZR for these classes: markDirty ignores it

	case a64.OpLdrImm:
		if isSP(inst.Rn) && inst.Sf && s.sp != spUnknown {
			s.load(s.sp+inst.Imm, inst.Rd)
		} else {
			s.markDirty(inst.Rd)
		}

	case a64.OpStrImm:
		if isSP(inst.Rn) && s.sp != spUnknown {
			if inst.Sf {
				s.store(s.sp+inst.Imm, inst.Rd)
			} else {
				s.del(s.sp + inst.Imm)
			}
		}

	case a64.OpStrReg:
		// Store through a computed address: object memory, not the frame.

	case a64.OpLdp, a64.OpStp:
		if !isSP(inst.Rn) {
			if inst.Op == a64.OpLdp {
				s.markDirty(inst.Rd)
				s.markDirty(inst.Rt2)
			} else if inst.Index != a64.IndexOffset {
				s.markDirty(inst.Rn) // writeback to a non-sp base
			}
			break
		}
		if s.sp == spUnknown {
			s.markDirty(inst.Rd)
			s.markDirty(inst.Rt2)
			break
		}
		base := s.sp
		if inst.Index == a64.IndexPre {
			s.sp += inst.Imm
			base = s.sp
		} else if inst.Index == a64.IndexOffset {
			base += inst.Imm
		}
		if inst.Op == a64.OpStp {
			s.store(base, inst.Rd)
			s.store(base+8, inst.Rt2)
		} else {
			s.load(base, inst.Rd)
			s.load(base+8, inst.Rt2)
		}
		if inst.Index == a64.IndexPost {
			s.sp += inst.Imm
		}

	case a64.OpBl:
		s.markDirty(a64.LR)
		abs := mc.r.off + off + int(inst.Imm)
		if info, ok := mc.l.blobs[abs]; ok && info.ok {
			// An outlined function is the caller's own straight-line code:
			// replay its body (minus the trailing br x30) on the state.
			for _, bi := range info.insts[:len(info.insts)-1] {
				mc.transfer(s, off, bi)
			}
		} else {
			s.clobberCall()
		}

	case a64.OpBlr:
		s.clobberCall()

	case a64.OpRet:
		mc.checkRet(s, off, inst)

	case a64.OpB, a64.OpBCond, a64.OpCbz, a64.OpCbnz, a64.OpTbz, a64.OpTbnz,
		a64.OpBr, a64.OpBrk, a64.OpNop:
		// No register or stack effect.
	}
	return true
}

// checkRet enforces the return-path invariants.
func (mc *methodCtx) checkRet(s *absState, off int, inst a64.Inst) {
	if s.sp != 0 && s.sp != spUnknown {
		mc.errf(off, RuleSPBalance,
			"ret with sp adjusted by %+d bytes: the entry frame is not released", s.sp)
	}
	if !s.isClean(inst.Rn) {
		mc.errf(off, RuleLinkReg, "ret through x%d, which no longer holds the return address", inst.Rn)
	}
	if bad := s.dirty & calleeSavedMask; bad != 0 {
		mc.errf(off, RuleCalleeSaved,
			"callee-saved %s not restored to entry values on this path", regList(bad))
	}
}

// stateHeight is the height of the in-state lattice without its slots:
// the first visit, sp going to unknown once, and 31 dirty bits. Merges
// only descend (sp is poisoned once, dirty bits are added, slots are
// deleted), so a block whose first in-state holds k slots is queued at
// most stateHeight+k times.
const stateHeight = 2 + 31

// runDataflow drives the worklist to a fixpoint over the recovered CFG.
// It requires a sound decode (checkCFI found every word an instruction)
// and a recovered CFG. Visits are bounded by the lattice height summed
// over the blocks reached so far, which a correct fixpoint never
// exceeds; if it ever does, the method is refused rather than passed
// with its invariants unproven.
func (mc *methodCtx) runDataflow() {
	if !mc.sound || mc.cfg == nil || len(mc.cfg.Blocks) == 0 {
		return
	}
	mc.checkStackProbe()

	const (
		seen = 1 << iota
		queued
		spReported
	)
	n := len(mc.cfg.Blocks)
	in := make([]absState, n) // in[0] is the entry state: sp 0, all clean, no slots
	flags := make([]uint8, n)
	var arena []slot       // backs the slots of every in-state
	work := make([]int, n) // FIFO ring: a block is queued at most once at a time
	head, size := 0, 0
	push := func(b int) {
		work[(head+size)%n] = b
		size++
		flags[b] |= queued
	}
	flags[0] = seen
	push(0)
	budget, steps := stateHeight, 0
	var st absState // scratch state, refilled for every visit
	for size > 0 {
		bi := work[head]
		head, size = (head+1)%n, size-1
		flags[bi] &^= queued
		if steps++; steps > budget {
			mc.errf(mc.cfg.Blocks[bi].Start, RuleSPBalance,
				"dataflow exceeded the lattice height (%d block visits); stack and register discipline unproven", budget)
			return
		}
		st.copyFrom(&in[bi])
		b := mc.cfg.Blocks[bi]
		okPath := true
		for w := b.Start / a64.WordSize; w < b.End/a64.WordSize; w++ {
			if !mc.transfer(&st, w*a64.WordSize, mc.insts[w]) {
				okPath = false
				break
			}
		}
		if !okPath {
			continue
		}
		for _, succ := range b.Succs {
			if flags[succ]&seen == 0 {
				// In-states only shrink under merge, so the capped arena
				// window never has to grow. A full arena is replaced, not
				// grown, with room for n more windows of this width.
				k := len(st.slots)
				if cap(arena)-len(arena) < k {
					arena = make([]slot, 0, k*n)
				}
				arena = append(arena, st.slots...)
				in[succ] = absState{sp: st.sp, dirty: st.dirty, slots: arena[len(arena)-k : len(arena) : len(arena)]}
				flags[succ] |= seen
				budget += stateHeight + k
				push(succ)
				continue
			}
			changed, conflict := st.mergeInto(&in[succ])
			if conflict && flags[succ]&spReported == 0 {
				flags[succ] |= spReported
				mc.errf(mc.cfg.Blocks[succ].Start, RuleSPBalance,
					"paths reach this block with different sp adjustments")
			}
			if changed && flags[succ]&queued == 0 {
				push(succ)
			}
		}
	}
}

// checkStackProbe verifies that a method which makes real calls performs
// the stack-overflow guard probe (Figure 4c) before its first call: either
// the CTO thunk call or the inline sub/ldr pair. Calls into outlined
// functions do not grow the stack and need no probe.
func (mc *methodCtx) checkStackProbe() {
	probe, firstCall := -1, -1
	for w := 0; w < len(mc.words); w++ {
		if !mc.decoded[w] {
			continue
		}
		inst := mc.insts[w]
		off := w * a64.WordSize
		switch inst.Op {
		case a64.OpBl:
			abs := mc.r.off + off + int(inst.Imm)
			if r, ok := mc.l.at(abs); ok && abs == r.off {
				switch r.kind {
				case regionThunk:
					if kind, _ := codegen.UnpackSym(r.sym); kind == codegen.SymKindStackCheck {
						if probe < 0 {
							probe = off
						}
						continue
					}
				case regionBlob:
					continue
				}
			}
			if firstCall < 0 {
				firstCall = off
			}
		case a64.OpBlr:
			if firstCall < 0 {
				firstCall = off
			}
		case a64.OpSubImm:
			// sub x16, sp, #guard, lsl #12 ; ldr wzr, [x16]
			if inst.Rd == a64.IP0 && inst.Rn == 31 && inst.Shift12 &&
				w+1 < len(mc.words) && mc.decoded[w+1] {
				next := mc.insts[w+1]
				if next.Op == a64.OpLdrImm && next.Rd == 31 && next.Rn == a64.IP0 && probe < 0 {
					probe = off
				}
			}
		}
	}
	if firstCall < 0 {
		return // leaf: no probe required
	}
	switch {
	case probe < 0:
		mc.errf(firstCall, RuleStackProbe,
			"method makes calls but never probes the stack guard")
	case probe > firstCall:
		mc.errf(firstCall, RuleStackProbe,
			"first call at %#x precedes the stack guard probe at %#x", firstCall, probe)
	}
}

// regList renders a register bitmask for diagnostics.
func regList(mask uint32) string {
	out := ""
	for r := 0; r < 31; r++ {
		if mask&(1<<r) != 0 {
			if out != "" {
				out += ","
			}
			out += "x" + itoa(r)
		}
	}
	return out
}

func itoa(v int) string {
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}
