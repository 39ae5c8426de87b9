package hgraph

import (
	"fmt"

	"repro/internal/dex"
)

// flatten linearizes a graph back into dex bytecode: blocks are laid out in
// ID order, branch targets become instruction indices, and explicit gotos
// are inserted where a block's fall-through successor is not the next block
// in layout order. The result is a method body with the same semantics as
// the graph, suitable for the reference interpreter.
func flatten(g *Graph) ([]dex.Insn, error) {
	type slot struct {
		in       Insn
		isGoto   bool // synthesized goto
		gotoTo   int  // block ID the synthesized goto targets
		hasBlock bool // slot carries a real instruction from a block
	}
	var slots []slot
	blockStartSlot := make([]int, len(g.Blocks))

	next := func(i int) int {
		if i+1 < len(g.Blocks) {
			return g.Blocks[i+1].ID
		}
		return -1
	}

	for bi, b := range g.Blocks {
		blockStartSlot[b.ID] = len(slots)
		for _, in := range b.Insns {
			slots = append(slots, slot{in: in, hasBlock: true})
		}
		// Decide whether a fall-through goto is needed.
		t := b.Terminator()
		fallsThrough := true
		if t != nil && t.Op.IsTerminal() {
			fallsThrough = false
		}
		if fallsThrough {
			if len(b.Succs) == 0 {
				if t == nil {
					return nil, fmt.Errorf("hgraph: flatten: block B%d is empty with no successors", b.ID)
				}
				// Block ends in a non-terminal with no successor: only legal
				// if it is the method's final return-bearing block, which
				// IsTerminal already covered. Anything else is malformed.
				return nil, fmt.Errorf("hgraph: flatten: block B%d falls off the end", b.ID)
			}
			ft := b.Succs[0]
			if ft != next(bi) {
				slots = append(slots, slot{isGoto: true, gotoTo: ft})
			}
		}
	}

	// Resolve block IDs to instruction indices.
	code := make([]dex.Insn, 0, len(slots))
	for _, s := range slots {
		if s.isGoto {
			code = append(code, dex.Insn{Op: dex.OpGoto, Target: int32(blockStartSlot[s.gotoTo])})
			continue
		}
		in := s.in
		d := dex.Insn{
			Op: in.Op, A: in.A, B: in.B, C: in.C, Lit: in.Lit,
			Method: in.Method, Native: in.Native,
		}
		if in.Op == dex.OpPackedSwitch {
			d.Targets = make([]int32, len(in.Targets))
			for i, t := range in.Targets {
				d.Targets[i] = int32(blockStartSlot[t])
			}
		} else if in.Op.IsBranch() {
			d.Target = int32(blockStartSlot[in.Target])
		}
		code = append(code, d)
	}
	if len(code) == 0 {
		return nil, fmt.Errorf("hgraph: flatten: empty program")
	}
	// A branch targeting a block that flattened to the very end (an empty
	// tail block) points one past the last instruction, and a trailing
	// non-terminal instruction would fall off the end; both are fixed by a
	// single return-void landing pad.
	needPad := !code[len(code)-1].Op.IsTerminal()
	for _, in := range code {
		if in.Op == dex.OpPackedSwitch {
			for _, t := range in.Targets {
				needPad = needPad || int(t) >= len(code)
			}
		} else if in.Op.IsBranch() {
			needPad = needPad || int(in.Target) >= len(code)
		}
	}
	if needPad {
		code = append(code, dex.Insn{Op: dex.OpReturnVoid})
	}
	return code, nil
}

// FlattenInto builds a copy of m with its body replaced by the flattened
// graph, for feeding optimized code back to the reference interpreter.
func FlattenInto(g *Graph, m *dex.Method) (*dex.Method, error) {
	code, err := flatten(g)
	if err != nil {
		return nil, err
	}
	out := *m
	out.Code = code
	return &out, nil
}
