package hgraph

import (
	"math/bits"
	"sync"

	"repro/internal/dex"
)

// Optimize runs the per-function optimization pipeline the way dex2oat's
// HGraph phase does when every code-size optimization is enabled. Each
// round runs six passes in order: constant folding and propagation with
// copy propagation, local value numbering and branch folding; dead code
// elimination; unreachable-block removal; block coalescing; loop-invariant
// code motion; and return merging. Rounds repeat until one round in which
// no pass reports a change, and stop after four rounds regardless.
//
// A pass is skipped, and counts as reporting no change, while the graph
// is exactly as it was when that pass last ran and altered nothing: a
// pass is a function of the graph alone, so it would do nothing again.
// Liveness is computed once per graph state and shared by the passes
// that read it. Optimize returns the liveness of the optimized graph,
// which LiveAfterMasks takes so the code generator need not recompute it.
func Optimize(g *Graph) *Liveness {
	return optimize(g, nil)
}

// The passes, in the order every round runs them.
const (
	passFold = iota
	passDCE
	passUnreachable
	passCoalesce
	passLICM
	passMergeReturns
	numPasses
)

// optimizer is Optimize's state: a version number for the graph and the
// liveness of one version.
type optimizer struct {
	g *Graph
	// gen names the graph's current state; every pass that alters the
	// graph, whether or not it reports the change, moves it on.
	gen   int
	lv    *Liveness
	lvGen int // the state lv describes; 0 when there is none
}

// liveness returns the liveness of the current graph, computing it only
// when the graph has changed since the last computation.
func (o *optimizer) liveness() *Liveness {
	if o.lvGen != o.gen {
		o.lv, o.lvGen = ComputeLiveness(o.g), o.gen
	}
	return o.lv
}

// run runs pass p once. It returns whether the pass reports a change,
// which drives the round loop, and whether it altered the graph at all,
// which decides what may be skipped: fold's copy propagation rewrites
// operands without reporting it.
func (o *optimizer) run(p int) (reported, altered bool) {
	switch p {
	case passFold:
		return foldAndPropagate(o.g)
	case passDCE:
		reported = eliminateDeadCode(o.g, o.liveness())
	case passUnreachable:
		reported = removeUnreachable(o.g)
	case passCoalesce:
		reported = coalesceBlocks(o.g)
	case passLICM:
		reported = hoistInvariants(o.g, o.liveness)
	case passMergeReturns:
		reported = mergeReturns(o.g)
	}
	return reported, reported
}

// optimize is Optimize; when ran is non-nil it counts each pass's runs.
func optimize(g *Graph, ran *[numPasses]int) *Liveness {
	o := optimizer{g: g, gen: 1}
	// cleanAt[p] is the state in which pass p last ran and altered
	// nothing; 0 when it has not run or its last run altered the graph.
	var cleanAt [numPasses]int
	for round := 0; round < 4; round++ {
		changed := false
		for p := 0; p < numPasses; p++ {
			if cleanAt[p] == o.gen {
				continue
			}
			if ran != nil {
				ran[p]++
			}
			reported, altered := o.run(p)
			changed = changed || reported
			if altered {
				o.gen++
				cleanAt[p] = 0
			} else {
				cleanAt[p] = o.gen
			}
		}
		if !changed {
			break
		}
	}
	return o.liveness()
}

// foldAndPropagate performs, per basic block: constant propagation, copy
// propagation, arithmetic constant folding, local value numbering, and
// folding of conditional branches whose outcome is known. It reports
// whether it folded anything, and separately whether it altered the graph
// at all, which also covers propagated copies and dropped nops.
func foldAndPropagate(g *Graph) (changed, altered bool) {
	st := foldPool.Get().(*foldState)
	st.altered = false
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		st.reset()
		if blockFold(g, b, st) {
			changed = true
		}
	}
	altered = changed || st.altered
	foldPool.Put(st)
	return changed, altered
}

// exprKey identifies a pure computation for local value numbering.
type exprKey struct {
	op   dex.Opcode
	b, c uint8
	lit  int64
}

// exprEntry is one available expression and the register holding it.
type exprEntry struct {
	key exprKey
	reg uint8
}

// foldState is the per-block scratch for blockFold. Constant and copy facts
// are keyed by register, so dense arrays guarded by presence bitsets hold
// them; the value-numbering table is a short slice searched linearly (a
// block holds a handful of available expressions, and invalidation must
// visit them all on every def). States are pooled across methods —
// blockFold runs on every block of every method every round, so this is
// one of the hottest paths in the compiler.
type foldState struct {
	constVal [256]int64 // reg -> known constant (when constSet has reg)
	copyOf   [256]uint8 // reg -> original it copies (when copySet has reg)
	constSet regSet
	copySet  regSet
	exprs    []exprEntry // available expressions, each key at most once
	// altered records, across the blocks of one fold, a rewrite blockFold
	// does not report: a propagated copy or a dropped nop.
	altered bool
}

var foldPool = sync.Pool{New: func() any { return new(foldState) }}

// reset clears all facts; the arrays need no clearing because the bitsets
// gate every read.
func (st *foldState) reset() {
	st.constSet = regSet{}
	st.copySet = regSet{}
	st.exprs = st.exprs[:0]
}

func (st *foldState) constOf(r uint8) (int64, bool) {
	if !st.constSet.has(r) {
		return 0, false
	}
	return st.constVal[r], true
}

// lookupExpr returns the register holding key's value, if one does.
func (st *foldState) lookupExpr(key exprKey) (uint8, bool) {
	for _, e := range st.exprs {
		if e.key == key {
			return e.reg, true
		}
	}
	return 0, false
}

// insertExpr records that reg holds key's value.
func (st *foldState) insertExpr(key exprKey, reg uint8) {
	for i := range st.exprs {
		if st.exprs[i].key == key {
			st.exprs[i].reg = reg
			return
		}
	}
	st.exprs = append(st.exprs, exprEntry{key, reg})
}

// invalidate removes every fact that mentions r.
func (st *foldState) invalidate(r uint8) {
	st.constSet.remove(r)
	st.copySet.remove(r)
	// Drop copies whose source is r: walk only the registers with facts.
	for w, word := range st.copySet {
		for word != 0 {
			bit := uint8(bits.TrailingZeros64(word))
			word &^= 1 << bit
			k := uint8(w<<6) | bit
			if st.copyOf[k] == r {
				st.copySet.remove(k)
			}
		}
	}
	kept := st.exprs[:0]
	for _, e := range st.exprs {
		if e.reg != r && e.key.b != r && e.key.c != r {
			kept = append(kept, e)
		}
	}
	st.exprs = kept
}

// resolve chases the copy chain for an operand. A copy is recorded only
// between distinct registers, so every hit rewrites the operand.
func (st *foldState) resolve(r uint8) uint8 {
	if st.copySet.has(r) {
		st.altered = true
		return st.copyOf[r]
	}
	return r
}

func blockFold(g *Graph, b *Block, st *foldState) bool {
	changed := false
	resolve := st.resolve
	invalidate := st.invalidate

	for idx := range b.Insns {
		in := &b.Insns[idx]

		// Copy-propagate operands first.
		switch in.Op {
		case dex.OpMove, dex.OpAddLit, dex.OpIGet, dex.OpNewArray, dex.OpArrayLen:
			in.B = resolve(in.B)
		case dex.OpAdd, dex.OpSub, dex.OpAnd, dex.OpOr, dex.OpXor,
			dex.OpMul, dex.OpShl, dex.OpShr, dex.OpAGet:
			in.B, in.C = resolve(in.B), resolve(in.C)
		case dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfGe:
			in.A, in.B = resolve(in.A), resolve(in.B)
		case dex.OpIfEqz, dex.OpIfNez, dex.OpReturn, dex.OpPackedSwitch:
			in.A = resolve(in.A)
		case dex.OpIPut:
			in.A, in.B = resolve(in.A), resolve(in.B)
		case dex.OpAPut:
			in.A, in.B, in.C = resolve(in.A), resolve(in.B), resolve(in.C)
		case dex.OpInvoke, dex.OpInvokeNative:
			in.B, in.C = resolve(in.B), resolve(in.C)
		}

		// Fold arithmetic over known constants.
		switch in.Op {
		case dex.OpAdd, dex.OpSub, dex.OpAnd, dex.OpOr, dex.OpXor,
			dex.OpMul, dex.OpShl, dex.OpShr:
			vb, okb := st.constOf(in.B)
			vc, okc := st.constOf(in.C)
			if okb && okc {
				*in = Insn{Op: dex.OpConst, A: in.A, Lit: foldArith(in.Op, vb, vc)}
				changed = true
			}
		case dex.OpAddLit:
			if vb, ok := st.constOf(in.B); ok {
				*in = Insn{Op: dex.OpConst, A: in.A, Lit: vb + in.Lit}
				changed = true
			}
		case dex.OpMove:
			if vb, ok := st.constOf(in.B); ok {
				*in = Insn{Op: dex.OpConst, A: in.A, Lit: vb}
				changed = true
			}
		}

		// Algebraic simplification / strength reduction, another of the
		// HGraph code-size optimizations dex2oat runs: identities with a
		// constant or repeated operand collapse to moves or constants.
		if simplified, ok := simplifyAlgebraic(*in, st); ok {
			*in = simplified
			changed = true
		}

		// Fold conditional branches with known outcomes. Succs[0] is the
		// fall-through; the recorded Target is the taken edge.
		if taken, known := foldBranch(in, st); known {
			fallThrough := b.Succs[0]
			if taken {
				g.removeEdge(b.ID, fallThrough)
				*in = Insn{Op: dex.OpGoto, Target: in.Target}
			} else {
				g.removeEdge(b.ID, in.Target)
				*in = Insn{Op: dex.OpNopCode}
			}
			changed = true
		}

		// Local value numbering for pure arithmetic.
		switch in.Op {
		case dex.OpAdd, dex.OpSub, dex.OpAnd, dex.OpOr, dex.OpXor,
			dex.OpMul, dex.OpShl, dex.OpShr, dex.OpAddLit:
			key := exprKey{op: in.Op, b: in.B, lit: in.Lit}
			if in.Op != dex.OpAddLit {
				key.c = in.C
			}
			if holder, ok := st.lookupExpr(key); ok && holder != in.A {
				*in = Insn{Op: dex.OpMove, A: in.A, B: holder}
				changed = true
			} else {
				d := in.A
				invalidate(d)
				if key.b != d && key.c != d {
					st.insertExpr(key, d)
				}
				continue
			}
		}

		// Update facts for the (possibly rewritten) instruction.
		if d, ok := in.def(); ok {
			invalidate(d)
			switch in.Op {
			case dex.OpConst:
				st.constVal[d] = in.Lit
				st.constSet.add(d)
			case dex.OpMove:
				if in.B != d {
					st.copyOf[d] = in.B
					st.copySet.add(d)
				}
			}
		}
	}
	// Drop nops introduced by branch folding (and any the input carried).
	out := b.Insns[:0]
	for _, in := range b.Insns {
		if in.Op != dex.OpNopCode {
			out = append(out, in)
		}
	}
	if len(out) != len(b.Insns) {
		st.altered = true
	}
	b.Insns = out
	return changed
}

// simplifyAlgebraic applies operand identities: x+0, x-0, x|0, x^0 → move;
// x&0 → 0; x-x, x^x → 0; x&x, x|x → move. It returns the replacement and
// whether one applies (and is actually simpler).
func simplifyAlgebraic(in Insn, st *foldState) (Insn, bool) {
	isZero := func(r uint8) bool { v, ok := st.constOf(r); return ok && v == 0 }
	mv := func(dst, src uint8) (Insn, bool) {
		if dst == src {
			return Insn{Op: dex.OpNopCode}, true // self-move: drop entirely
		}
		return Insn{Op: dex.OpMove, A: dst, B: src}, true
	}
	zero := func(dst uint8) (Insn, bool) {
		return Insn{Op: dex.OpConst, A: dst, Lit: 0}, true
	}
	switch in.Op {
	case dex.OpAdd, dex.OpOr, dex.OpXor:
		if in.B == in.C {
			switch in.Op {
			case dex.OpXor:
				return zero(in.A)
			case dex.OpOr:
				return mv(in.A, in.B)
			}
			// x+x has no cheaper form in the modeled set.
			return Insn{}, false
		}
		if isZero(in.C) {
			return mv(in.A, in.B)
		}
		if isZero(in.B) {
			return mv(in.A, in.C)
		}
	case dex.OpSub:
		if in.B == in.C {
			return zero(in.A)
		}
		if isZero(in.C) {
			return mv(in.A, in.B)
		}
	case dex.OpAnd:
		if in.B == in.C {
			return mv(in.A, in.B)
		}
		if isZero(in.B) || isZero(in.C) {
			return zero(in.A)
		}
	case dex.OpMul:
		isOne := func(r uint8) bool { v, ok := st.constOf(r); return ok && v == 1 }
		if isZero(in.B) || isZero(in.C) {
			return zero(in.A)
		}
		if isOne(in.C) {
			return mv(in.A, in.B)
		}
		if isOne(in.B) {
			return mv(in.A, in.C)
		}
	case dex.OpShl, dex.OpShr:
		if isZero(in.C) {
			return mv(in.A, in.B)
		}
		if isZero(in.B) {
			return zero(in.A)
		}
	case dex.OpAddLit:
		if in.Lit == 0 {
			return mv(in.A, in.B)
		}
	}
	return Insn{}, false
}

// foldArith evaluates a binary arithmetic op over int64 operands, matching
// the reference interpreter's semantics exactly.
func foldArith(op dex.Opcode, a, b int64) int64 {
	switch op {
	case dex.OpAdd:
		return a + b
	case dex.OpSub:
		return a - b
	case dex.OpAnd:
		return a & b
	case dex.OpOr:
		return a | b
	case dex.OpXor:
		return a ^ b
	case dex.OpMul:
		return a * b
	case dex.OpShl:
		return a << uint64(b&63)
	case dex.OpShr:
		return int64(uint64(a) >> uint64(b&63))
	}
	panic("hgraph: not an arithmetic op")
}

// foldBranch decides a conditional branch whose operands are constants.
func foldBranch(in *Insn, st *foldState) (taken, known bool) {
	switch in.Op {
	case dex.OpIfEqz, dex.OpIfNez:
		va, ok := st.constOf(in.A)
		if !ok {
			return false, false
		}
		if in.Op == dex.OpIfEqz {
			return va == 0, true
		}
		return va != 0, true
	case dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfGe:
		va, oka := st.constOf(in.A)
		vb, okb := st.constOf(in.B)
		if !oka || !okb {
			return false, false
		}
		switch in.Op {
		case dex.OpIfEq:
			return va == vb, true
		case dex.OpIfNe:
			return va != vb, true
		case dex.OpIfLt:
			return va < vb, true
		default:
			return va >= vb, true
		}
	}
	return false, false
}

// eliminateDeadCode removes pure instructions whose results are never read,
// using lv, the graph's global liveness.
func eliminateDeadCode(g *Graph, lv *Liveness) bool {
	changed := false
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		live := lv.Out[b.ID]
		// Walk backwards, compacting survivors toward the end of the slice
		// in place (the write cursor never passes the read cursor), then
		// shift them back to the front. No per-block allocation.
		n := len(b.Insns)
		w := n
		for i := n - 1; i >= 0; i-- {
			in := b.Insns[i]
			d, hasDef := in.def()
			if hasDef && in.pure() && !live.has(d) {
				changed = true
				continue
			}
			if hasDef {
				live.remove(d)
			}
			us, un := in.uses()
			for _, u := range us[:un] {
				live.add(u)
			}
			w--
			b.Insns[w] = in
		}
		if w > 0 {
			copy(b.Insns, b.Insns[w:])
			b.Insns = b.Insns[:n-w]
		}
	}
	return changed
}

// removeUnreachable deletes blocks not reachable from the entry and
// compacts block IDs.
func removeUnreachable(g *Graph) bool {
	// newID doubles as the visited set during the DFS (-1 = unreachable);
	// it shares one backing allocation with the DFS stack.
	nb := len(g.Blocks)
	scratch := make([]int, 2*nb)
	newID := scratch[:nb]
	for i := range newID {
		newID[i] = -1
	}
	stack := scratch[nb:nb]
	stack = append(stack, 0)
	newID[0] = 0
	reached := 1
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[id].Succs {
			if newID[s] == -1 {
				newID[s] = 0
				reached++
				stack = append(stack, s)
			}
		}
	}
	if reached == nb {
		return false
	}
	// Renumber.
	kept := make([]*Block, 0, reached)
	for id, b := range g.Blocks {
		if newID[id] == 0 {
			newID[id] = len(kept)
			kept = append(kept, b)
		} else {
			newID[id] = -1
		}
	}
	for _, b := range kept {
		b.ID = newID[b.ID]
		b.Succs = remapIDs(b.Succs, newID)
		b.Preds = remapIDs(b.Preds, newID)
		if t := b.Terminator(); t != nil {
			if t.Op == dex.OpPackedSwitch {
				t.Targets = remapIDs(t.Targets, newID)
			} else if t.Op.IsBranch() {
				t.Target = newID[t.Target]
			}
		}
	}
	g.Blocks = kept
	return true
}

// remapIDs rewrites block IDs through the renumbering table, dropping
// references to removed blocks (only possible for Preds).
func remapIDs(ids []int, newID []int) []int {
	out := ids[:0]
	for _, id := range ids {
		if n := newID[id]; n >= 0 {
			out = append(out, n)
		}
	}
	return out
}

// coalesceBlocks merges a block into its successor when the edge between
// them is the successor's only incoming edge: a trailing goto is dropped and
// the successor's instructions are absorbed. This cleans up the chains that
// branch folding and unreachable elimination leave behind.
func coalesceBlocks(g *Graph) bool {
	changed := false
	for again := true; again; {
		again = false
		for _, b := range g.Blocks {
			if len(b.Succs) != 1 {
				continue
			}
			tid := b.Succs[0]
			if tid == b.ID {
				continue
			}
			t := g.Blocks[tid]
			if len(t.Preds) != 1 {
				continue
			}
			if term := b.Terminator(); term != nil {
				switch term.Op {
				case dex.OpGoto:
					b.Insns = b.Insns[:len(b.Insns)-1]
				case dex.OpReturn, dex.OpReturnVoid, dex.OpPackedSwitch,
					dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfGe, dex.OpIfEqz, dex.OpIfNez:
					continue // not a plain fall-through/goto edge
				}
			}
			b.Insns = append(b.Insns, t.Insns...)
			b.Succs = append([]int(nil), t.Succs...)
			for _, s := range t.Succs {
				preds := g.Blocks[s].Preds
				for i, p := range preds {
					if p == tid {
						preds[i] = b.ID
					}
				}
				g.Blocks[s].Preds = dedupInts(preds)
			}
			t.Insns, t.Succs, t.Preds = nil, nil, nil
			changed, again = true, true
		}
		if again {
			removeUnreachable(g)
		}
	}
	return changed
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for _, x := range xs {
		dup := false
		for _, y := range out {
			if y == x {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

// mergeReturns implements the dex2oat "return merging" code-size
// optimization: all blocks that end in an identical return instruction are
// rewritten to jump to one canonical return block, so the code generator
// emits a single epilogue per returned register.
func mergeReturns(g *Graph) bool {
	// Group return blocks by (opcode, returned register) without a map:
	// collect (key, block) pairs and insertion-sort them — methods have a
	// handful of returns, and the sorted walk also makes the group
	// processing order deterministic (a map walk is not, and group order
	// decides the IDs of any synthesized canonical return blocks).
	type retEntry struct {
		op  dex.Opcode
		reg uint8
		id  int
	}
	var entries []retEntry
	for _, b := range g.Blocks {
		t := b.Terminator()
		if t == nil || (t.Op != dex.OpReturn && t.Op != dex.OpReturnVoid) {
			continue
		}
		e := retEntry{op: t.Op, reg: t.A, id: b.ID}
		if t.Op == dex.OpReturnVoid {
			e.reg = 0
		}
		entries = append(entries, e)
	}
	less := func(a, b retEntry) bool {
		if a.op != b.op {
			return a.op < b.op
		}
		if a.reg != b.reg {
			return a.reg < b.reg
		}
		return a.id < b.id
	}
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && less(entries[j], entries[j-1]); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	changed := false
	for lo := 0; lo < len(entries); {
		hi := lo + 1
		for hi < len(entries) && entries[hi].op == entries[lo].op && entries[hi].reg == entries[lo].reg {
			hi++
		}
		ids := entries[lo:hi]
		lo = hi
		if len(ids) < 2 {
			continue
		}
		// Prefer an existing bare-return block as the canonical copy.
		canon := -1
		for _, e := range ids {
			if len(g.Blocks[e.id].Insns) == 1 {
				canon = e.id
				break
			}
		}
		if canon == -1 {
			first := g.Blocks[ids[0].id]
			ret := *first.Terminator()
			nb := &Block{ID: len(g.Blocks), Insns: []Insn{ret}}
			g.Blocks = append(g.Blocks, nb)
			canon = nb.ID
		}
		for _, e := range ids {
			if e.id == canon {
				continue
			}
			b := g.Blocks[e.id]
			b.Insns[len(b.Insns)-1] = Insn{Op: dex.OpGoto, Target: canon}
			g.addEdge(e.id, canon)
			changed = true
		}
	}
	return changed
}
