package codegen

import (
	"fmt"
	"sync"

	"repro/internal/a64"
	"repro/internal/abi"
	"repro/internal/dex"
	"repro/internal/hgraph"
)

// Register conventions (mirroring ART's arm64 backend in speed mode):
//
//	x0       ArtMethod* on entry / return value
//	x1..x7   arguments
//	x8..x10  template scratch
//	x16,x17  ip0/ip1 scratch
//	x19      thread register
//	x20..x27 callee-saved: dex registers v0..v7 live here
//	x29,x30  frame pointer / link register
//
// Virtual registers v8 and up spill to stack slots. Frame layout:
//
//	[sp, #0]               saved x29, x30
//	[sp, #16 .. #80)       saved x20..x27
//	[sp, #80 + 8*(v-8)]    spill slot of vreg v (v >= 8)
const (
	numAllocRegs  = 8
	firstAllocReg = a64.X20
	spillBase     = 16 + 8*numAllocRegs
)

type emitter struct {
	m    *dex.Method
	g    *hgraph.Graph
	opts Options

	asm         a64.Asm
	blockLabels []a64.Label
	frame       int64

	npeLabel    a64.Label
	boundsLabel a64.Label
	npeUsed     bool
	boundsUsed  bool

	terms    []int
	slow     []a64.Range
	stackmap []StackMapEntry
	indirect bool
	dexPC    int32
	curLive  uint32

	pool      map[uint64]a64.Label
	poolOrder []uint64
	tables    []switchTable
}

type switchTable struct {
	label   a64.Label
	targets []a64.Label
}

// emitterPool recycles emitters (and, through them, the assembler's item
// and label arrays and all metadata scratch slices) across methods. A
// worker compiles thousands of methods per build; once an emitter has
// grown to the largest method seen it emits without allocating, except
// for the output slices that escape into the CompiledMethod.
var emitterPool = sync.Pool{New: func() any {
	return &emitter{pool: map[uint64]a64.Label{}}
}}

// reset prepares a pooled emitter for the next method, keeping every
// backing array.
func (e *emitter) reset(m *dex.Method, g *hgraph.Graph, opts Options) {
	e.m, e.g, e.opts = m, g, opts
	e.asm.Reset()
	e.blockLabels = e.blockLabels[:0]
	e.frame = 0
	e.npeLabel, e.boundsLabel = 0, 0
	e.npeUsed, e.boundsUsed = false, false
	e.terms = e.terms[:0]
	e.slow = e.slow[:0]
	e.stackmap = e.stackmap[:0]
	e.indirect = false
	e.dexPC = 0
	e.curLive = 0
	clear(e.pool)
	e.poolOrder = e.poolOrder[:0]
	e.tables = e.tables[:0]
}

// allocated returns the physical register holding vr, if register-allocated.
func allocated(vr uint8) (a64.Reg, bool) {
	if vr < numAllocRegs {
		return firstAllocReg + a64.Reg(vr), true
	}
	return 0, false
}

// spillOff returns the frame offset of a spilled vreg slot.
func spillOff(vr uint8) int64 { return spillBase + 8*int64(vr-numAllocRegs) }

// emit generates the complete method; lv is the graph's liveness.
func (e *emitter) emit(lv *hgraph.Liveness) (*CompiledMethod, error) {
	spills := e.m.NumRegs - numAllocRegs
	if spills < 0 {
		spills = 0
	}
	e.frame = align16(spillBase + 8*int64(spills))
	if cap(e.blockLabels) < len(e.g.Blocks) {
		e.blockLabels = make([]a64.Label, len(e.g.Blocks))
	} else {
		e.blockLabels = e.blockLabels[:len(e.g.Blocks)]
	}
	for i := range e.blockLabels {
		e.blockLabels[i] = e.asm.NewLabel()
	}
	e.npeLabel = e.asm.NewLabel()
	e.boundsLabel = e.asm.NewLabel()

	liveMasks := hgraph.LiveAfterMasks(e.g, lv)
	e.prologue()
	for bi, b := range e.g.Blocks {
		e.asm.Bind(e.blockLabels[b.ID])
		for idx, in := range b.Insns {
			e.curLive = liveMasks[b.ID][idx]
			if err := e.insn(b, in); err != nil {
				return nil, err
			}
			e.dexPC++
		}
		e.blockFallThrough(bi, b)
	}
	e.slowpaths()
	e.emitTablesAndPool()

	prog, err := e.asm.Finalize()
	if err != nil {
		return nil, err
	}
	// The emitter is pooled: slices that escape into the CompiledMethod are
	// copied out at their exact size so the scratch can be reused.
	return &CompiledMethod{
		M:    e.m,
		Code: prog.Words,
		Meta: Meta{
			PCRel:           prog.PCRel,
			Terminators:     copyOut(e.terms),
			EmbeddedData:    prog.Data,
			Slowpaths:       copyOut(e.slow),
			HasIndirectJump: e.indirect,
		},
		StackMap: copyOut(e.stackmap),
		Ext:      prog.Ext,
	}, nil
}

// copyOut clones a scratch slice at exact size, preserving nil for empty
// so pooled and non-pooled emitters produce identical metadata.
func copyOut[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

func align16(n int64) int64 { return (n + 15) &^ 15 }

// isLeaf reports whether the method can execute without calling anything —
// no invokes, no allocations, and no checks that might reach a throwing
// slow path.
func (e *emitter) isLeaf() bool {
	for _, b := range e.g.Blocks {
		for _, in := range b.Insns {
			switch in.Op {
			case dex.OpInvoke, dex.OpInvokeNative, dex.OpNewInstance, dex.OpNewArray,
				dex.OpIGet, dex.OpIPut, dex.OpAGet, dex.OpAPut, dex.OpArrayLen:
				return false
			}
		}
	}
	return true
}

// src makes vr's value available in a register: the allocated register
// itself, or tmp after a spill load.
func (e *emitter) src(vr uint8, tmp a64.Reg) a64.Reg {
	if r, ok := allocated(vr); ok {
		return r
	}
	e.asm.Inst(a64.Inst{Op: a64.OpLdrImm, Sf: true, Rd: tmp, Rn: a64.SP, Imm: spillOff(vr)})
	return tmp
}

// dst returns the register an instruction should compute vr's new value
// into; store must be called afterwards.
func (e *emitter) dst(vr uint8, tmp a64.Reg) a64.Reg {
	if r, ok := allocated(vr); ok {
		return r
	}
	return tmp
}

// store completes a dst: spilled vregs are written back.
func (e *emitter) store(vr uint8, reg a64.Reg) {
	if _, ok := allocated(vr); ok {
		return
	}
	e.asm.Inst(a64.Inst{Op: a64.OpStrImm, Sf: true, Rd: reg, Rn: a64.SP, Imm: spillOff(vr)})
}

// moveTo copies vr's value into a specific physical register (argument
// setup).
func (e *emitter) moveTo(phys a64.Reg, vr uint8) {
	if r, ok := allocated(vr); ok {
		e.asm.Inst(a64.Inst{Op: a64.OpOrrReg, Sf: true, Rd: phys, Rn: a64.XZR, Rm: r})
		return
	}
	e.asm.Inst(a64.Inst{Op: a64.OpLdrImm, Sf: true, Rd: phys, Rn: a64.SP, Imm: spillOff(vr)})
}

// setFrom copies a physical register into vr (call results, arguments).
func (e *emitter) setFrom(vr uint8, phys a64.Reg) {
	if r, ok := allocated(vr); ok {
		e.asm.Inst(a64.Inst{Op: a64.OpOrrReg, Sf: true, Rd: r, Rn: a64.XZR, Rm: phys})
		return
	}
	e.asm.Inst(a64.Inst{Op: a64.OpStrImm, Sf: true, Rd: phys, Rn: a64.SP, Imm: spillOff(vr)})
}

// branchTo emits a PC-relative branch to a label and records it as a
// terminator for the outliner.
func (e *emitter) branchTo(i a64.Inst, l a64.Label) {
	e.terms = append(e.terms, e.asm.InstTo(i, l))
}

// termInst emits a non-label control-transfer instruction (ret, br, blr)
// and records it.
func (e *emitter) termInst(i a64.Inst) int {
	off := e.asm.Inst(i)
	e.terms = append(e.terms, off)
	return off
}

// materialize emits movz/movn/movk to load an arbitrary constant.
func (e *emitter) materialize(reg a64.Reg, v int64) {
	chunk := func(x int64, k uint) int64 { return (x >> (16 * k)) & 0xFFFF }
	if v >= 0 {
		first := true
		for k := uint(0); k < 4; k++ {
			c := chunk(v, k)
			if c == 0 {
				continue
			}
			if first {
				e.asm.Inst(a64.Inst{Op: a64.OpMovz, Sf: true, Rd: reg, Imm: c, HW: uint8(k)})
				first = false
			} else {
				e.asm.Inst(a64.Inst{Op: a64.OpMovk, Sf: true, Rd: reg, Imm: c, HW: uint8(k)})
			}
		}
		if first {
			e.asm.Inst(a64.Inst{Op: a64.OpMovz, Sf: true, Rd: reg})
		}
		return
	}
	e.asm.Inst(a64.Inst{Op: a64.OpMovn, Sf: true, Rd: reg, Imm: chunk(^v, 0)})
	for k := uint(1); k < 4; k++ {
		if c := chunk(v, k); c != 0xFFFF {
			e.asm.Inst(a64.Inst{Op: a64.OpMovk, Sf: true, Rd: reg, Imm: c, HW: uint8(k)})
		}
	}
}

// prologue emits the frame setup, callee-saved spills, the stack-overflow
// check (Figure 4c), and argument placement.
func (e *emitter) prologue() {
	if e.frame <= 504 {
		e.asm.Inst(a64.Inst{Op: a64.OpStp, Rd: a64.FP, Rt2: a64.LR, Rn: a64.SP,
			Imm: -e.frame, Index: a64.IndexPre})
	} else {
		e.asm.Inst(a64.Inst{Op: a64.OpSubImm, Sf: true, Rd: a64.SP, Rn: a64.SP, Imm: e.frame})
		e.asm.Inst(a64.Inst{Op: a64.OpStp, Rd: a64.FP, Rt2: a64.LR, Rn: a64.SP})
	}
	// mov x29, sp
	e.asm.Inst(a64.Inst{Op: a64.OpAddImm, Sf: true, Rd: a64.FP, Rn: a64.SP})

	if !e.isLeaf() {
		// The stack-overflow checking pattern. With CTO it collapses to a
		// one-instruction thunk call; x29/x30 are already saved, so
		// clobbering x30 here is safe.
		if e.opts.CTO {
			e.terms = append(e.terms, e.asm.BlSym(PackSym(SymKindStackCheck, 0)))
		} else {
			e.asm.Inst(a64.Inst{Op: a64.OpSubImm, Sf: true, Rd: a64.IP0, Rn: a64.SP,
				Imm: abi.StackGuard >> 12, Shift12: true})
			e.asm.Inst(a64.Inst{Op: a64.OpLdrImm, Rd: a64.XZR, Rn: a64.IP0})
		}
	}
	// Save the callee-saved dex-register file.
	for pair := 0; pair < numAllocRegs/2; pair++ {
		e.asm.Inst(a64.Inst{Op: a64.OpStp,
			Rd: firstAllocReg + a64.Reg(2*pair), Rt2: firstAllocReg + a64.Reg(2*pair+1),
			Rn: a64.SP, Imm: 16 + 16*int64(pair)})
	}
	for i := 0; i < e.m.NumIns && i < 2; i++ {
		vr := uint8(e.m.NumRegs - e.m.NumIns + i)
		e.setFrom(vr, a64.X1+a64.Reg(i))
	}
}

// epilogue restores saved registers, tears down the frame, and returns.
func (e *emitter) epilogue() {
	for pair := 0; pair < numAllocRegs/2; pair++ {
		e.asm.Inst(a64.Inst{Op: a64.OpLdp,
			Rd: firstAllocReg + a64.Reg(2*pair), Rt2: firstAllocReg + a64.Reg(2*pair+1),
			Rn: a64.SP, Imm: 16 + 16*int64(pair)})
	}
	if e.frame <= 504 {
		e.asm.Inst(a64.Inst{Op: a64.OpLdp, Rd: a64.FP, Rt2: a64.LR, Rn: a64.SP,
			Imm: e.frame, Index: a64.IndexPost})
	} else {
		e.asm.Inst(a64.Inst{Op: a64.OpLdp, Rd: a64.FP, Rt2: a64.LR, Rn: a64.SP})
		e.asm.Inst(a64.Inst{Op: a64.OpAddImm, Sf: true, Rd: a64.SP, Rn: a64.SP, Imm: e.frame})
	}
	e.termInst(a64.Inst{Op: a64.OpRet, Rn: a64.LR})
}

// blockFallThrough closes a block that does not end in an unconditional
// transfer: if the fall-through successor is not the next block in layout
// order, branch to it.
func (e *emitter) blockFallThrough(bi int, b *hgraph.Block) {
	t := b.Terminator()
	if t != nil && t.Op.IsTerminal() {
		return
	}
	if len(b.Succs) == 0 {
		return
	}
	ft := b.Succs[0]
	if bi+1 < len(e.g.Blocks) && e.g.Blocks[bi+1].ID == ft {
		return
	}
	e.branchTo(a64.Inst{Op: a64.OpB}, e.blockLabels[ft])
}

// poolLabel interns a 64-bit constant in the literal pool.
func (e *emitter) poolLabel(v uint64) a64.Label {
	if l, ok := e.pool[v]; ok {
		return l
	}
	l := e.asm.NewLabel()
	e.pool[v] = l
	e.poolOrder = append(e.poolOrder, v)
	return l
}

// javaCall emits the Java function calling pattern (Figure 4a): the callee
// ArtMethod is already in x0.
func (e *emitter) javaCall() {
	if e.opts.CTO {
		off := e.asm.BlSym(PackSym(SymKindJavaEntry, abi.EntryPointOffset))
		e.terms = append(e.terms, off)
		e.stackmap = append(e.stackmap, StackMapEntry{NativeOff: off, DexPC: e.dexPC, Live: e.curLive})
		return
	}
	e.asm.Inst(a64.Inst{Op: a64.OpLdrImm, Sf: true, Rd: a64.LR, Rn: a64.X0, Imm: abi.EntryPointOffset})
	off := e.termInst(a64.Inst{Op: a64.OpBlr, Rn: a64.LR})
	e.stackmap = append(e.stackmap, StackMapEntry{NativeOff: off, DexPC: e.dexPC, Live: e.curLive})
}

// nativeCall emits the ART native function calling pattern (Figure 4b).
func (e *emitter) nativeCall(f dex.NativeFunc) {
	epOff := f.EntrypointOffset()
	if e.opts.CTO {
		off := e.asm.BlSym(PackSym(SymKindNativeEP, epOff))
		e.terms = append(e.terms, off)
		e.stackmap = append(e.stackmap, StackMapEntry{NativeOff: off, DexPC: e.dexPC, Live: e.curLive})
		return
	}
	e.asm.Inst(a64.Inst{Op: a64.OpLdrImm, Sf: true, Rd: a64.LR, Rn: a64.TR, Imm: epOff})
	off := e.termInst(a64.Inst{Op: a64.OpBlr, Rn: a64.LR})
	e.stackmap = append(e.stackmap, StackMapEntry{NativeOff: off, DexPC: e.dexPC, Live: e.curLive})
}

// nullCheck branches to the shared null-pointer slow path if reg is zero.
func (e *emitter) nullCheck(reg a64.Reg) {
	e.npeUsed = true
	e.branchTo(a64.Inst{Op: a64.OpCbz, Sf: true, Rd: reg}, e.npeLabel)
}

// arrayElemAddr performs the null check, bounds check, and element base
// computation shared by aget/aput: on return ip0 holds &arr[0] and the
// returned register holds the index for register-offset addressing.
func (e *emitter) arrayElemAddr(arrReg, idxReg uint8) a64.Reg {
	arr := e.src(arrReg, a64.X9)
	e.nullCheck(arr)
	idx := e.src(idxReg, a64.X10)
	e.asm.Inst(a64.Inst{Op: a64.OpLdrImm, Sf: true, Rd: a64.IP0, Rn: arr}) // length header
	e.asm.Inst(a64.Inst{Op: a64.OpSubsReg, Sf: true, Rd: a64.XZR, Rn: idx, Rm: a64.IP0})
	e.boundsUsed = true
	e.branchTo(a64.Inst{Op: a64.OpBCond, Cond: a64.HS}, e.boundsLabel)
	e.asm.Inst(a64.Inst{Op: a64.OpAddImm, Sf: true, Rd: a64.IP0, Rn: arr, Imm: abi.ObjectHeaderSize})
	return idx
}

// insn emits one IR instruction.
func (e *emitter) insn(b *hgraph.Block, in hgraph.Insn) error {
	switch in.Op {
	case dex.OpNopCode:

	case dex.OpConst:
		d := e.dst(in.A, a64.X8)
		e.materialize(d, in.Lit)
		e.store(in.A, d)

	case dex.OpConstPool:
		l := e.poolLabel(e.m.Pool[in.Lit])
		d := e.dst(in.A, a64.X8)
		e.asm.InstTo(a64.Inst{Op: a64.OpLdrLit, Sf: true, Rd: d}, l)
		e.store(in.A, d)

	case dex.OpMove:
		s := e.src(in.B, a64.X9)
		if d, ok := allocated(in.A); ok {
			e.asm.Inst(a64.Inst{Op: a64.OpOrrReg, Sf: true, Rd: d, Rn: a64.XZR, Rm: s})
		} else {
			e.store(in.A, s)
		}

	case dex.OpAdd, dex.OpSub, dex.OpAnd, dex.OpOr, dex.OpXor,
		dex.OpMul, dex.OpShl, dex.OpShr:
		sb := e.src(in.B, a64.X9)
		sc := e.src(in.C, a64.X10)
		var op a64.Op
		switch in.Op {
		case dex.OpAdd:
			op = a64.OpAddReg
		case dex.OpSub:
			op = a64.OpSubReg
		case dex.OpAnd:
			op = a64.OpAndReg
		case dex.OpOr:
			op = a64.OpOrrReg
		case dex.OpMul:
			op = a64.OpMul
		case dex.OpShl:
			op = a64.OpLslReg
		case dex.OpShr:
			op = a64.OpLsrReg
		default:
			op = a64.OpEorReg
		}
		d := e.dst(in.A, a64.X8)
		e.asm.Inst(a64.Inst{Op: op, Sf: true, Rd: d, Rn: sb, Rm: sc})
		e.store(in.A, d)

	case dex.OpAddLit:
		sb := e.src(in.B, a64.X9)
		d := e.dst(in.A, a64.X8)
		switch {
		case in.Lit >= 0 && in.Lit <= 0xFFF:
			e.asm.Inst(a64.Inst{Op: a64.OpAddImm, Sf: true, Rd: d, Rn: sb, Imm: in.Lit})
		case in.Lit < 0 && -in.Lit <= 0xFFF:
			e.asm.Inst(a64.Inst{Op: a64.OpSubImm, Sf: true, Rd: d, Rn: sb, Imm: -in.Lit})
		default:
			e.materialize(a64.X10, in.Lit)
			e.asm.Inst(a64.Inst{Op: a64.OpAddReg, Sf: true, Rd: d, Rn: sb, Rm: a64.X10})
		}
		e.store(in.A, d)

	case dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfGe:
		sa := e.src(in.A, a64.X9)
		sb := e.src(in.B, a64.X10)
		e.asm.Inst(a64.Inst{Op: a64.OpSubsReg, Sf: true, Rd: a64.XZR, Rn: sa, Rm: sb})
		var c a64.Cond
		switch in.Op {
		case dex.OpIfEq:
			c = a64.EQ
		case dex.OpIfNe:
			c = a64.NE
		case dex.OpIfLt:
			c = a64.LT
		default:
			c = a64.GE
		}
		e.branchTo(a64.Inst{Op: a64.OpBCond, Cond: c}, e.blockLabels[in.Target])

	case dex.OpIfEqz:
		e.branchTo(a64.Inst{Op: a64.OpCbz, Sf: true, Rd: e.src(in.A, a64.X9)}, e.blockLabels[in.Target])

	case dex.OpIfNez:
		e.branchTo(a64.Inst{Op: a64.OpCbnz, Sf: true, Rd: e.src(in.A, a64.X9)}, e.blockLabels[in.Target])

	case dex.OpGoto:
		e.branchTo(a64.Inst{Op: a64.OpB}, e.blockLabels[in.Target])

	case dex.OpPackedSwitch:
		e.indirect = true
		tbl := switchTable{label: e.asm.NewLabel()}
		for _, t := range in.Targets {
			tbl.targets = append(tbl.targets, e.blockLabels[t])
		}
		e.tables = append(e.tables, tbl)
		fall := e.blockLabels[b.Succs[0]]
		sa := e.src(in.A, a64.X9)
		if n := int64(len(in.Targets)); n <= 0xFFF {
			e.asm.Inst(a64.Inst{Op: a64.OpSubsImm, Sf: true, Rd: a64.XZR, Rn: sa, Imm: n})
		} else {
			return fmt.Errorf("switch with %d targets", len(in.Targets))
		}
		e.branchTo(a64.Inst{Op: a64.OpBCond, Cond: a64.HS}, fall)
		e.asm.InstTo(a64.Inst{Op: a64.OpAdr, Rd: a64.IP0}, tbl.label)
		e.asm.Inst(a64.Inst{Op: a64.OpLdrReg, Sf: true, Rd: a64.IP1, Rn: a64.IP0, Rm: sa})
		e.asm.Inst(a64.Inst{Op: a64.OpAddReg, Sf: true, Rd: a64.IP1, Rn: a64.IP0, Rm: a64.IP1})
		e.termInst(a64.Inst{Op: a64.OpBr, Rn: a64.IP1})

	case dex.OpInvoke:
		e.moveTo(a64.X1, in.B)
		e.moveTo(a64.X2, in.C)
		e.materialize(a64.X0, abi.ArtMethodAddr(uint32(in.Method)))
		e.javaCall()
		e.setFrom(in.A, a64.X0)

	case dex.OpInvokeNative:
		e.moveTo(a64.X1, in.B)
		e.moveTo(a64.X2, in.C)
		e.nativeCall(in.Native)
		e.setFrom(in.A, a64.X0)

	case dex.OpNewInstance:
		size := in.Lit
		if size <= 0 {
			size = 1
		}
		e.materialize(a64.X1, size)
		e.nativeCall(dex.NativeAllocObjectResolved)
		e.setFrom(in.A, a64.X0)

	case dex.OpNewArray:
		e.moveTo(a64.X1, in.B)
		e.nativeCall(dex.NativeAllocArrayResolved)
		e.setFrom(in.A, a64.X0)

	case dex.OpIGet:
		obj := e.src(in.B, a64.X9)
		e.nullCheck(obj)
		d := e.dst(in.A, a64.X8)
		e.asm.Inst(a64.Inst{Op: a64.OpLdrImm, Sf: true, Rd: d, Rn: obj, Imm: abi.FieldOffset(in.Lit)})
		e.store(in.A, d)

	case dex.OpIPut:
		obj := e.src(in.B, a64.X9)
		e.nullCheck(obj)
		val := e.src(in.A, a64.X8)
		e.asm.Inst(a64.Inst{Op: a64.OpStrImm, Sf: true, Rd: val, Rn: obj, Imm: abi.FieldOffset(in.Lit)})

	case dex.OpAGet:
		idx := e.arrayElemAddr(in.B, in.C)
		d := e.dst(in.A, a64.X8)
		e.asm.Inst(a64.Inst{Op: a64.OpLdrReg, Sf: true, Rd: d, Rn: a64.IP0, Rm: idx})
		e.store(in.A, d)

	case dex.OpAPut:
		idx := e.arrayElemAddr(in.B, in.C)
		val := e.src(in.A, a64.X8)
		e.asm.Inst(a64.Inst{Op: a64.OpStrReg, Sf: true, Rd: val, Rn: a64.IP0, Rm: idx})

	case dex.OpArrayLen:
		arr := e.src(in.B, a64.X9)
		e.nullCheck(arr)
		d := e.dst(in.A, a64.X8)
		e.asm.Inst(a64.Inst{Op: a64.OpLdrImm, Sf: true, Rd: d, Rn: arr})
		e.store(in.A, d)

	case dex.OpReturn:
		e.moveTo(a64.X0, in.A)
		e.epilogue()

	case dex.OpReturnVoid:
		e.asm.Inst(a64.Inst{Op: a64.OpMovz, Sf: true, Rd: a64.X0})
		e.epilogue()

	default:
		return fmt.Errorf("unsupported opcode %s", in.Op)
	}
	return nil
}

// slowpaths emits the shared cold exception paths and records their ranges
// (the §3.2 "slowpath" metadata).
func (e *emitter) slowpaths() {
	emitThrow := func(label a64.Label, f dex.NativeFunc) {
		start := e.asm.PC()
		e.asm.Bind(label)
		e.nativeCall(f)
		// The throw entrypoint never returns; a brk documents that.
		e.terms = append(e.terms, e.asm.Inst(a64.Inst{Op: a64.OpBrk}))
		e.slow = append(e.slow, a64.Range{Start: start, End: e.asm.PC()})
	}
	if e.npeUsed {
		emitThrow(e.npeLabel, dex.NativeThrowNullPointer)
	} else {
		e.asm.Bind(e.npeLabel)
	}
	if e.boundsUsed {
		emitThrow(e.boundsLabel, dex.NativeThrowArrayBounds)
	} else {
		e.asm.Bind(e.boundsLabel)
	}
}

// emitTablesAndPool appends switch jump tables and the literal pool.
func (e *emitter) emitTablesAndPool() {
	for _, tbl := range e.tables {
		e.asm.Bind(tbl.label)
		for _, t := range tbl.targets {
			e.asm.RawLabelDiff(t, tbl.label)
		}
	}
	for _, v := range e.poolOrder {
		e.asm.Bind(e.pool[v])
		e.asm.Raw64(v)
	}
}
