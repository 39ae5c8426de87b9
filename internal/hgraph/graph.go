// Package hgraph implements the HGraph-style intermediate representation
// that the dex2oat-like pipeline optimizes before code generation, mirroring
// the Android compilation flow in Figure 5 of the Calibro paper: each dex
// method is translated into an HGraph independently, optimized per function,
// and handed to the code generator.
//
// The package also contains a reference interpreter (Run) that defines the
// semantics of a method graph. The binary-code emulator (internal/emu) must
// agree with it; differential tests between the two validate the code
// generator and, transitively, the outliner's semantic preservation.
package hgraph

import (
	"fmt"

	"repro/internal/dex"
)

// Insn is one IR instruction. It mirrors the dex instruction but expresses
// control flow in terms of basic-block IDs rather than bytecode indices.
type Insn struct {
	Op      dex.Opcode
	A, B, C uint8
	Lit     int64
	Target  int            // branch target block ID
	Targets []int          // packed-switch target block IDs
	Method  dex.MethodID   // invoke callee
	Native  dex.NativeFunc // invoke-native callee
}

func (in Insn) String() string {
	switch {
	case in.Op == dex.OpInvoke:
		return fmt.Sprintf("v%d = invoke m%d(v%d, v%d)", in.A, in.Method, in.B, in.C)
	case in.Op == dex.OpInvokeNative:
		return fmt.Sprintf("v%d = %s(v%d, v%d)", in.A, in.Native, in.B, in.C)
	case in.Op == dex.OpPackedSwitch:
		return fmt.Sprintf("switch v%d -> B%v", in.A, in.Targets)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s v%d, v%d -> B%d", in.Op, in.A, in.B, in.Target)
	default:
		return fmt.Sprintf("%s v%d, v%d, v%d, #%d", in.Op, in.A, in.B, in.C, in.Lit)
	}
}

// Block is a basic block: straight-line instructions where only the last
// one may branch.
type Block struct {
	ID    int
	Insns []Insn
	Succs []int // successor block IDs; Succs[0] is the fall-through when the
	// terminator is conditional
	Preds []int
}

// Graph is the per-method IR.
type Graph struct {
	Method *dex.Method
	Blocks []*Block // Blocks[0] is the entry; IDs index this slice
}

// Build translates a dex method body into a control-flow graph.
func Build(m *dex.Method) (*Graph, error) {
	if m.Native {
		return nil, fmt.Errorf("hgraph: %s is native and has no body", m.FullName())
	}
	if len(m.Code) == 0 {
		return nil, fmt.Errorf("hgraph: %s has an empty body", m.FullName())
	}

	// Find leaders: the first instruction, every branch target, and every
	// instruction following a branch.
	leader := make([]bool, len(m.Code))
	leader[0] = true
	for pc, in := range m.Code {
		if !in.Op.IsBranch() {
			continue
		}
		if in.Op == dex.OpPackedSwitch {
			for _, t := range in.Targets {
				leader[t] = true
			}
		} else {
			leader[in.Target] = true
		}
		if pc+1 < len(m.Code) {
			leader[pc+1] = true
		}
	}

	g := &Graph{Method: m}
	numBlocks := 0
	blockAt := make([]int, len(m.Code)) // leader pc -> block ID
	for pc := range m.Code {
		if leader[pc] {
			blockAt[pc] = numBlocks
			numBlocks++
		} else if pc > 0 {
			blockAt[pc] = blockAt[pc-1]
		}
	}

	// Count instructions and edges per block so every slice below is carved
	// out of one backing array; the fill loop then never grows a slice. The
	// edge walk mirrors the fill loop exactly (fall-through first).
	insnCount := make([]int32, numBlocks)
	succCount := make([]int32, numBlocks)
	predCount := make([]int32, numBlocks) // upper bound; Preds dedupe
	forEachEdge(m, leader, blockAt, func(from, to int) {
		succCount[from]++
		predCount[to]++
	})
	for pc := range m.Code {
		insnCount[blockAt[pc]]++
	}
	blocks := make([]Block, numBlocks)
	insns := make([]Insn, len(m.Code))
	totalSucc, totalPred := 0, 0
	for i := range blocks {
		totalSucc += int(succCount[i])
		totalPred += int(predCount[i])
	}
	edges := make([]int, totalSucc+totalPred)
	g.Blocks = make([]*Block, numBlocks)
	insnOff, edgeOff := 0, 0
	for i := range blocks {
		b := &blocks[i]
		b.ID = i
		b.Insns = insns[insnOff : insnOff : insnOff+int(insnCount[i])]
		insnOff += int(insnCount[i])
		b.Succs = edges[edgeOff : edgeOff : edgeOff+int(succCount[i])]
		edgeOff += int(succCount[i])
		b.Preds = edges[edgeOff : edgeOff : edgeOff+int(predCount[i])]
		edgeOff += int(predCount[i])
		g.Blocks[i] = b
	}

	// Fill blocks and record edges.
	for pc, in := range m.Code {
		b := g.Blocks[blockAt[pc]]
		ir := Insn{
			Op: in.Op, A: in.A, B: in.B, C: in.C, Lit: in.Lit,
			Method: in.Method, Native: in.Native,
		}
		last := pc == len(m.Code)-1 || leader[pc+1]
		switch {
		case in.Op == dex.OpPackedSwitch:
			ir.Targets = make([]int, len(in.Targets))
			for i, t := range in.Targets {
				ir.Targets[i] = blockAt[t]
			}
			b.Insns = append(b.Insns, ir)
			// Fall-through first, then the switch targets.
			if pc+1 < len(m.Code) {
				g.addEdge(b.ID, blockAt[pc+1])
			}
			for _, t := range ir.Targets {
				g.addEdge(b.ID, t)
			}
		case in.Op.IsBranch():
			ir.Target = blockAt[in.Target]
			b.Insns = append(b.Insns, ir)
			if in.Op != dex.OpGoto && pc+1 < len(m.Code) {
				g.addEdge(b.ID, blockAt[pc+1]) // fall-through first
			}
			g.addEdge(b.ID, ir.Target)
		default:
			b.Insns = append(b.Insns, ir)
			if last && !in.Op.IsTerminal() && pc+1 < len(m.Code) {
				g.addEdge(b.ID, blockAt[pc+1])
			}
		}
	}
	return g, nil
}

// forEachEdge replays the edge-recording decisions of Build's fill loop
// without materializing blocks, so edge slice capacities can be counted
// up front.
func forEachEdge(m *dex.Method, leader []bool, blockAt []int, emit func(from, to int)) {
	for pc, in := range m.Code {
		from := blockAt[pc]
		last := pc == len(m.Code)-1 || leader[pc+1]
		switch {
		case in.Op == dex.OpPackedSwitch:
			if pc+1 < len(m.Code) {
				emit(from, blockAt[pc+1])
			}
			for _, t := range in.Targets {
				emit(from, blockAt[t])
			}
		case in.Op.IsBranch():
			if in.Op != dex.OpGoto && pc+1 < len(m.Code) {
				emit(from, blockAt[pc+1])
			}
			emit(from, blockAt[in.Target])
		default:
			if last && !in.Op.IsTerminal() && pc+1 < len(m.Code) {
				emit(from, blockAt[pc+1])
			}
		}
	}
}

// addEdge records a CFG edge, keeping duplicates out of Preds but allowing
// duplicate Succs only when a switch lists the same block twice.
func (g *Graph) addEdge(from, to int) {
	f, t := g.Blocks[from], g.Blocks[to]
	f.Succs = append(f.Succs, to)
	for _, p := range t.Preds {
		if p == from {
			return
		}
	}
	t.Preds = append(t.Preds, from)
}

// removeEdge deletes one occurrence of the edge from->to, and the pred link
// if no occurrences remain.
func (g *Graph) removeEdge(from, to int) {
	f := g.Blocks[from]
	for i, s := range f.Succs {
		if s == to {
			f.Succs = append(f.Succs[:i], f.Succs[i+1:]...)
			break
		}
	}
	for _, s := range f.Succs {
		if s == to {
			return // another occurrence keeps the pred link alive
		}
	}
	t := g.Blocks[to]
	for i, p := range t.Preds {
		if p == from {
			t.Preds = append(t.Preds[:i], t.Preds[i+1:]...)
			return
		}
	}
}

// Terminator returns the final instruction of b, or nil if b is empty.
func (b *Block) Terminator() *Insn {
	if len(b.Insns) == 0 {
		return nil
	}
	return &b.Insns[len(b.Insns)-1]
}

// NumInsns counts instructions across all blocks.
func (g *Graph) NumInsns() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Insns)
	}
	return n
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	s := fmt.Sprintf("graph %s\n", g.Method.FullName())
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		s += fmt.Sprintf("B%d (preds %v, succs %v):\n", b.ID, b.Preds, b.Succs)
		for _, in := range b.Insns {
			s += "  " + in.String() + "\n"
		}
	}
	return s
}

// def returns the register an instruction writes, if any.
func (in Insn) def() (uint8, bool) {
	switch in.Op {
	case dex.OpConst, dex.OpConstPool, dex.OpNewInstance:
		return in.A, true
	case dex.OpMove, dex.OpAddLit, dex.OpIGet, dex.OpNewArray, dex.OpArrayLen:
		return in.A, true
	case dex.OpAdd, dex.OpSub, dex.OpAnd, dex.OpOr, dex.OpXor,
		dex.OpMul, dex.OpShl, dex.OpShr,
		dex.OpAGet, dex.OpInvoke, dex.OpInvokeNative:
		return in.A, true
	}
	return 0, false
}

// uses returns the registers an instruction reads. The registers are
// returned by value (an instruction reads at most three) so the hot
// liveness and DCE loops never allocate; callers iterate regs[:n].
func (in Insn) uses() (regs [3]uint8, n int) {
	switch in.Op {
	case dex.OpMove, dex.OpAddLit, dex.OpIGet, dex.OpNewArray, dex.OpArrayLen:
		regs[0] = in.B
		return regs, 1
	case dex.OpAdd, dex.OpSub, dex.OpAnd, dex.OpOr, dex.OpXor,
		dex.OpMul, dex.OpShl, dex.OpShr, dex.OpAGet:
		regs[0], regs[1] = in.B, in.C
		return regs, 2
	case dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfGe:
		regs[0], regs[1] = in.A, in.B
		return regs, 2
	case dex.OpIfEqz, dex.OpIfNez, dex.OpReturn, dex.OpPackedSwitch:
		regs[0] = in.A
		return regs, 1
	case dex.OpIPut:
		regs[0], regs[1] = in.A, in.B
		return regs, 2
	case dex.OpAPut:
		regs[0], regs[1], regs[2] = in.A, in.B, in.C
		return regs, 3
	case dex.OpInvoke, dex.OpInvokeNative:
		regs[0], regs[1] = in.B, in.C
		return regs, 2
	}
	return regs, 0
}

// pure reports whether the instruction can be removed when its result is
// unused: no memory effects, no allocation, no possible exception.
func (in Insn) pure() bool {
	switch in.Op {
	case dex.OpConst, dex.OpConstPool, dex.OpMove, dex.OpAdd, dex.OpSub,
		dex.OpAnd, dex.OpOr, dex.OpXor, dex.OpMul, dex.OpShl, dex.OpShr,
		dex.OpAddLit, dex.OpNopCode:
		return true
	}
	return false
}
