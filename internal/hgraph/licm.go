package hgraph

import (
	"sort"

	"repro/internal/dex"
)

// Dominators computes the immediate dominator of every reachable block
// with the iterative algorithm of Cooper, Harvey & Kennedy. The entry
// block's idom is itself; unreachable blocks get -1.
func Dominators(g *Graph) []int {
	n := len(g.Blocks)
	// idom escapes to the caller; every DFS scratch slice shares a second
	// backing allocation (the pass runs once per optimization round per
	// method, so its allocation count is hot).
	idom := make([]int, n)
	scratch := make([]int, 4*n)
	order := scratch[0:0:n]
	rpoNum := scratch[n : 2*n : 2*n]
	stack := scratch[2*n : 2*n : 3*n]
	cursor := scratch[3*n:]
	state := make([]uint8, n)
	for i := range idom {
		idom[i] = -1
		rpoNum[i] = -1
	}
	// Iterative post-order DFS (same visit order as the recursive form:
	// successors explored in order, node appended after its children).
	stack = append(stack, 0)
	state[0] = 1
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		descended := false
		for cursor[b] < len(g.Blocks[b].Succs) {
			s := g.Blocks[b].Succs[cursor[b]]
			cursor[b]++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, s)
				descended = true
				break
			}
		}
		if !descended {
			order = append(order, b)
			stack = stack[:len(stack)-1]
		}
	}
	// order is post-order; reverse it.
	for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	for i, b := range order {
		rpoNum[b] = i
	}

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if idom[p] == -1 {
					continue // not yet processed or unreachable
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// dominates reports whether a dominates b under the idom tree.
func dominates(idom []int, a, b int) bool {
	for {
		if b == a {
			return true
		}
		if b == 0 || idom[b] == -1 {
			return false
		}
		if idom[b] == b {
			return b == a
		}
		b = idom[b]
	}
}

// loop is one natural loop: the header plus the body block set.
type loopInfo struct {
	header int
	blocks map[int]bool
}

// naturalLoops finds the natural loop of every back edge (latch -> header
// where header dominates latch); loops sharing a header are merged.
func naturalLoops(g *Graph, idom []int) []loopInfo {
	var byHeader map[int]map[int]bool // lazy: most methods have no loops
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if idom[s] == -1 || idom[b.ID] == -1 {
				continue
			}
			if !dominates(idom, s, b.ID) {
				continue // not a back edge
			}
			if byHeader == nil {
				byHeader = map[int]map[int]bool{}
			}
			body := byHeader[s]
			if body == nil {
				body = map[int]bool{s: true}
				byHeader[s] = body
			}
			// Walk predecessors from the latch up to the header.
			stack := []int{b.ID}
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[cur] {
					continue
				}
				body[cur] = true
				for _, p := range g.Blocks[cur].Preds {
					stack = append(stack, p)
				}
			}
		}
	}
	var loops []loopInfo
	for h, body := range byHeader {
		loops = append(loops, loopInfo{header: h, blocks: body})
	}
	// Map iteration order is random; hoisting processes loops in slice
	// order and mints preheader block IDs as it goes, so the order must be
	// deterministic for the byte-identical-images contract. Methods have a
	// handful of loops at most; insertion sort avoids sort.Slice's closure.
	for i := 1; i < len(loops); i++ {
		for j := i; j > 0 && loops[j].header < loops[j-1].header; j-- {
			loops[j], loops[j-1] = loops[j-1], loops[j]
		}
	}
	return loops
}

// hoistInvariants performs loop-invariant code motion, one of the HGraph
// code-size/speed optimizations the dex2oat pipeline runs. Loops headed by
// the entry block are left alone. A pure instruction is hoisted into a
// freshly created preheader when:
//
//   - every operand is loop-invariant (no definition inside the loop,
//     or defined only by an already-hoisted instruction);
//   - its destination has exactly one definition in the loop;
//   - its destination is not live into the header from outside the loop
//     (hoisting must not clobber a value the first iteration reads);
//   - its block dominates every loop exit (a value computed on a partial
//     iteration must not escape) and every in-loop use of the destination.
//
// liveness returns the graph's liveness; it is called at most once, and
// only when there is a loop to hoist from. Loops that hoist nothing leave
// the graph alone, so every loop up to the first hoist reads the same
// liveness. A graph with no backward edge has no cycle, so no loop, and
// skips the dominator tree too.
func hoistInvariants(g *Graph, liveness func() *Liveness) bool {
	if !hasBackwardEdge(g) {
		return false
	}
	idom := Dominators(g)
	loops := naturalLoops(g, idom)
	var lv *Liveness
	for _, lp := range loops {
		if lp.header == 0 {
			// The method is entered at block 0 from outside the graph,
			// so no preheader can be put in front of it.
			continue
		}
		if lv == nil {
			lv = liveness()
		}
		if g.hoistLoop(lp, idom, lv) {
			// CFG shape changed (new preheader); let the caller re-run the
			// pipeline so dominators and loop sets are fresh.
			return true
		}
	}
	return false
}

// hasBackwardEdge reports whether some edge runs from block i to a block
// j <= i. Every cycle has such an edge, so without one the graph is
// acyclic.
func hasBackwardEdge(g *Graph) bool {
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s <= b.ID {
				return true
			}
		}
	}
	return false
}

// hoistLoop hoists what it can out of one loop; returns whether anything
// moved. lv is the graph's liveness on entry, and every round reads it.
// The one liveness fact canHoist asks is whether a candidate's
// destination d is live into the header, and a register's liveness
// depends only on the CFG and the instructions that define or read it.
// Removing a hoisted instruction changes neither for d: the CFG stays
// as it is until the preheader is made; the removed instruction defines
// a register now marked hoisted, which d is not; and it reads only
// registers the loop never defines or that are marked hoisted, while d is
// defined in the loop and not marked.
func (g *Graph) hoistLoop(lp loopInfo, idom []int, lv *Liveness) bool {
	// Definition counts per register inside the loop; a dense stack array
	// beats a map here (registers are uint8 and the loop runs per method).
	var defCount [256]int32
	for b := range lp.blocks {
		for _, in := range g.Blocks[b].Insns {
			if d, ok := in.def(); ok {
				defCount[d]++
			}
		}
	}
	// Exit blocks: outside blocks with an in-loop predecessor.
	var exits []int
	for b := range lp.blocks {
		for _, s := range g.Blocks[b].Succs {
			if !lp.blocks[s] {
				exits = append(exits, s)
			}
		}
	}

	loopBlocks := make([]int, 0, len(lp.blocks))
	for b := range lp.blocks {
		loopBlocks = append(loopBlocks, b)
	}
	sort.Ints(loopBlocks)

	hoisted := map[uint8]bool{}
	var hoistedInsns []Insn
	for again := true; again; {
		again = false
		// The hoisted set is frozen for the round so that instructions
		// hoisted together never depend on one another; dependence chains
		// hoist over successive rounds, which also puts them in dependence
		// order inside the preheader.
		type mark struct{ block, idx int }
		var marks []mark
		var newlyHoisted []uint8
		for _, b := range loopBlocks {
			for idx, in := range g.Blocks[b].Insns {
				if g.canHoist(in, idx, b, lp, idom, lv, &defCount, hoisted, exits) {
					marks = append(marks, mark{b, idx})
					d, _ := in.def()
					newlyHoisted = append(newlyHoisted, d)
					// One hoist per block per round keeps indices valid.
					break
				}
			}
		}
		for _, m := range marks {
			blk := g.Blocks[m.block]
			hoistedInsns = append(hoistedInsns, blk.Insns[m.idx])
			blk.Insns = append(blk.Insns[:m.idx:m.idx], blk.Insns[m.idx+1:]...)
			again = true
		}
		for _, d := range newlyHoisted {
			hoisted[d] = true
		}
	}
	if len(hoistedInsns) == 0 {
		return false
	}

	// Create the preheader and route non-loop predecessors through it.
	pre := &Block{ID: len(g.Blocks), Insns: hoistedInsns}
	g.Blocks = append(g.Blocks, pre)
	h := g.Blocks[lp.header]
	var outside, inside []int
	for _, p := range h.Preds {
		if lp.blocks[p] {
			inside = append(inside, p)
		} else {
			outside = append(outside, p)
		}
	}
	for _, p := range outside {
		pb := g.Blocks[p]
		for i, s := range pb.Succs {
			if s == lp.header {
				pb.Succs[i] = pre.ID
			}
		}
		if t := pb.Terminator(); t != nil {
			if t.Op == dex.OpPackedSwitch {
				for i, tgt := range t.Targets {
					if tgt == lp.header {
						t.Targets[i] = pre.ID
					}
				}
			} else if t.Op.IsBranch() && t.Target == lp.header {
				t.Target = pre.ID
			}
		}
		pre.Preds = append(pre.Preds, p)
	}
	pre.Succs = []int{lp.header}
	h.Preds = append([]int{pre.ID}, inside...)
	return true
}

// canHoist checks the safety conditions for hoisting the instruction at
// g.Blocks[blockID].Insns[inIdx].
func (g *Graph) canHoist(in Insn, inIdx, blockID int, lp loopInfo, idom []int, lv *Liveness,
	defCount *[256]int32, hoisted map[uint8]bool, exits []int) bool {
	if !in.pure() {
		return false
	}
	d, ok := in.def()
	if !ok || defCount[d] != 1 || hoisted[d] {
		return false
	}
	// Self-referencing instructions (d among uses) are induction-like.
	us, n := in.uses()
	for _, u := range us[:n] {
		if u == d {
			return false
		}
		if defCount[u] > 0 && !hoisted[u] {
			return false // operand varies inside the loop
		}
	}
	// The incoming value of d must be dead at the header: hoisting must not
	// clobber a value the first iteration could read.
	if lv.In[lp.header].has(d) {
		return false
	}
	// The defining block must dominate every exit (so the value cannot
	// escape from an iteration that would not have computed it) ...
	for _, e := range exits {
		if !dominates(idom, blockID, e) {
			return false
		}
	}
	// ... and every in-loop use of d.
	for b := range lp.blocks {
		for idx, other := range g.Blocks[b].Insns {
			uses := false
			ous, on := other.uses()
			for _, u := range ous[:on] {
				uses = uses || u == d
			}
			if !uses {
				continue
			}
			if b == blockID {
				if idx < inIdx {
					return false
				}
			} else if !dominates(idom, blockID, b) {
				return false
			}
		}
	}
	return true
}
