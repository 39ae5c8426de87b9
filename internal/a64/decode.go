package a64

import "fmt"

// signExtend interprets the low bits of v as a signed integer of the given
// width.
func signExtend(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

// Decode interprets w as an A64 instruction word. It returns ok=false for
// any word outside the modeled subset — including words that are valid
// AArch64 but unused by the ART code generator, and arbitrary embedded data.
func Decode(w uint32) (Inst, bool) {
	sf := w>>31 == 1
	rd := Reg(w & 0x1F)
	rn := Reg((w >> 5) & 0x1F)
	rm := Reg((w >> 16) & 0x1F)

	// System instructions first: their fixed patterns would otherwise be
	// shadowed by broad masks below.
	if w == 0xD503201F {
		return Inst{Op: OpNop}, true
	}
	if w&0xFFE0001F == 0xD4200000 {
		return Inst{Op: OpBrk, Imm: int64((w >> 5) & 0xFFFF)}, true
	}
	switch w & 0xFFFFFC1F {
	case 0xD61F0000:
		return Inst{Op: OpBr, Rn: rn}, true
	case 0xD63F0000:
		return Inst{Op: OpBlr, Rn: rn}, true
	case 0xD65F0000:
		return Inst{Op: OpRet, Rn: rn}, true
	}

	// Add/subtract immediate: bits 28..23 == 100010.
	if (w>>23)&0x3F == 0x22 {
		i := Inst{Sf: sf, Rd: rd, Rn: rn, Imm: int64((w >> 10) & 0xFFF), Shift12: w>>22&1 == 1}
		switch (w >> 29) & 3 { // op:S
		case 0:
			i.Op = OpAddImm
		case 1:
			i.Op = OpAddsImm
		case 2:
			i.Op = OpSubImm
		case 3:
			i.Op = OpSubsImm
		}
		return i, true
	}

	// Move wide immediate: bits 28..23 == 100101.
	if (w>>23)&0x3F == 0x25 {
		i := Inst{Sf: sf, Rd: rd, Imm: int64((w >> 5) & 0xFFFF), HW: uint8((w >> 21) & 3)}
		switch (w >> 29) & 3 {
		case 0:
			i.Op = OpMovn
		case 2:
			i.Op = OpMovz
		case 3:
			i.Op = OpMovk
		default:
			return Inst{}, false
		}
		if !sf && i.HW > 1 {
			return Inst{}, false
		}
		return i, true
	}

	// Add/subtract shifted register: bits 28..24 == 01011, shift amount 0.
	if (w>>24)&0x1F == 0x0B {
		if (w>>10)&0x3F != 0 || (w>>22)&3 != 0 || (w>>21)&1 != 0 {
			return Inst{}, false // shifted/extended forms not modeled
		}
		i := Inst{Sf: sf, Rd: rd, Rn: rn, Rm: rm}
		switch (w >> 29) & 3 {
		case 0:
			i.Op = OpAddReg
		case 1:
			i.Op = OpAddsReg
		case 2:
			i.Op = OpSubReg
		case 3:
			i.Op = OpSubsReg
		}
		return i, true
	}

	// Logical shifted register: bits 28..24 == 01010, N==0, shift 0.
	if (w>>24)&0x1F == 0x0A {
		if (w>>10)&0x3F != 0 || (w>>21)&7 != 0 {
			return Inst{}, false
		}
		i := Inst{Sf: sf, Rd: rd, Rn: rn, Rm: rm}
		switch (w >> 29) & 3 {
		case 0:
			i.Op = OpAndReg
		case 1:
			i.Op = OpOrrReg
		case 2:
			i.Op = OpEorReg
		default:
			return Inst{}, false // ANDS not modeled
		}
		return i, true
	}

	// MUL (MADD with Ra=zr) and variable shifts.
	switch w & 0x7FE0FC00 {
	case 0x1B007C00:
		return Inst{Op: OpMul, Sf: sf, Rd: rd, Rn: rn, Rm: rm}, true
	case 0x1AC02000:
		return Inst{Op: OpLslReg, Sf: sf, Rd: rd, Rn: rn, Rm: rm}, true
	case 0x1AC02400:
		return Inst{Op: OpLsrReg, Sf: sf, Rd: rd, Rn: rn, Rm: rm}, true
	}

	// Load/store register, unsigned immediate: bits 29..24 == 111001.
	if (w>>24)&0x3F == 0x39 {
		size := (w >> 30) & 3
		opc := (w >> 22) & 3
		if size < 2 || opc > 1 {
			return Inst{}, false // byte/half and signed forms not modeled
		}
		scale := int64(4)
		if size == 3 {
			scale = 8
		}
		i := Inst{Sf: size == 3, Rd: rd, Rn: rn, Imm: int64((w>>10)&0xFFF) * scale}
		if opc == 1 {
			i.Op = OpLdrImm
		} else {
			i.Op = OpStrImm
		}
		return i, true
	}

	// Load/store register offset (64-bit, LSL #3 only).
	switch w & 0xFFE0FC00 {
	case 0xF8607800:
		return Inst{Op: OpLdrReg, Sf: true, Rd: rd, Rn: rn, Rm: rm}, true
	case 0xF8207800:
		return Inst{Op: OpStrReg, Sf: true, Rd: rd, Rn: rn, Rm: rm}, true
	}

	// Load/store pair, 64-bit.
	switch w & 0xFFC00000 {
	case 0xA9000000, 0xA9400000, 0xA9800000, 0xA9C00000, 0xA8800000, 0xA8C00000:
		i := Inst{Rd: rd, Rn: rn, Rt2: Reg((w >> 10) & 0x1F), Imm: signExtend((w>>15)&0x7F, 7) * 8}
		if w>>22&1 == 1 {
			i.Op = OpLdp
		} else {
			i.Op = OpStp
		}
		switch w & 0xFF800000 {
		case 0xA9000000:
			i.Index = IndexOffset
		case 0xA9800000:
			i.Index = IndexPre
		case 0xA8800000:
			i.Index = IndexPost
		}
		return i, true
	}

	// LDR literal.
	switch w & 0xFF000000 {
	case 0x18000000, 0x58000000:
		return Inst{Op: OpLdrLit, Sf: w>>30&1 == 1, Rd: rd, Imm: signExtend((w>>5)&0x7FFFF, 19) * WordSize}, true
	}

	// Unconditional immediate branches.
	switch w & 0xFC000000 {
	case 0x14000000:
		return Inst{Op: OpB, Imm: signExtend(w&0x3FFFFFF, 26) * WordSize}, true
	case 0x94000000:
		return Inst{Op: OpBl, Imm: signExtend(w&0x3FFFFFF, 26) * WordSize}, true
	}

	// Conditional branch.
	if w&0xFF000010 == 0x54000000 {
		return Inst{Op: OpBCond, Cond: Cond(w & 0xF), Imm: signExtend((w>>5)&0x7FFFF, 19) * WordSize}, true
	}

	// Compare-and-branch.
	switch w & 0x7F000000 {
	case 0x34000000:
		return Inst{Op: OpCbz, Sf: sf, Rd: rd, Imm: signExtend((w>>5)&0x7FFFF, 19) * WordSize}, true
	case 0x35000000:
		return Inst{Op: OpCbnz, Sf: sf, Rd: rd, Imm: signExtend((w>>5)&0x7FFFF, 19) * WordSize}, true
	case 0x36000000, 0x37000000:
		i := Inst{Rd: rd, Bit: uint8(w>>31<<5 | w>>19&0x1F), Imm: signExtend((w>>5)&0x3FFF, 14) * WordSize}
		if w>>24&0x7F == 0x37 {
			i.Op = OpTbnz
		} else {
			i.Op = OpTbz
		}
		return i, true
	}

	// PC-relative address formation.
	switch w & 0x9F000000 {
	case 0x10000000:
		return Inst{Op: OpAdr, Rd: rd, Imm: signExtend((w>>29&3)|(w>>5&0x7FFFF)<<2, 21)}, true
	case 0x90000000:
		return Inst{Op: OpAdrp, Rd: rd, Imm: signExtend((w>>29&3)|(w>>5&0x7FFFF)<<2, 21) << 12}, true
	}

	return Inst{}, false
}

// PatchRel re-encodes the PC-relative displacement of the instruction word w
// to newOff (a byte offset from the instruction itself; for ADRP a byte
// offset between pages). It returns the patched word. The word must decode
// to a PC-relative instruction in the subset.
func PatchRel(w uint32, newOff int64) (uint32, error) {
	// B and BL, the common case, take the new imm26 in place when it
	// encodes; any other word, and every refusal, goes through Encode.
	if w&0x7C000000 == 0x14000000 && newOff%WordSize == 0 {
		if words := newOff / WordSize; words >= -1<<25 && words < 1<<25 {
			return w&0xFC000000 | uint32(words)&0x3FFFFFF, nil
		}
	}
	i, ok := Decode(w)
	if !ok || !i.Op.IsPCRel() {
		return 0, errNotPCRel(w)
	}
	i.Imm = newOff
	return Encode(i)
}

type notPCRelError uint32

func errNotPCRel(w uint32) error { return notPCRelError(w) }

// Error names the offending word: this message is the only diagnostic a
// failed patch surfaces, so it must say *what* refused to patch.
func (e notPCRelError) Error() string {
	return fmt.Sprintf("a64: word %#08x is not a PC-relative instruction in the modeled subset", uint32(e))
}
