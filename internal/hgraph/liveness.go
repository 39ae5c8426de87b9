package hgraph

// regSet is a bitset over the 256 possible virtual registers.
type regSet [4]uint64

func (s *regSet) has(r uint8) bool { return s[r>>6]&(1<<(r&63)) != 0 }
func (s *regSet) add(r uint8)      { s[r>>6] |= 1 << (r & 63) }
func (s *regSet) remove(r uint8)   { s[r>>6] &^= 1 << (r & 63) }

// union merges o into s and reports whether s changed.
func (s *regSet) union(o regSet) bool {
	changed := false
	for i, w := range o {
		if s[i]|w != s[i] {
			s[i] |= w
			changed = true
		}
	}
	return changed
}

// Liveness holds per-block live-in/live-out register sets.
type Liveness struct {
	In  []regSet
	Out []regSet
}

// ComputeLiveness runs the standard backward dataflow over the graph.
func ComputeLiveness(g *Graph) *Liveness {
	// One backing array serves all four per-block set slices; the dataflow
	// runs several times per method, so the allocation count matters.
	nb := len(g.Blocks)
	sets := make([]regSet, 4*nb)
	lv := &Liveness{
		In:  sets[0:nb:nb],
		Out: sets[nb : 2*nb : 2*nb],
	}
	// Per-block gen (upward-exposed uses) and kill (defs).
	gen := sets[2*nb : 3*nb : 3*nb]
	kill := sets[3*nb:]
	for _, b := range g.Blocks {
		if b == nil {
			continue
		}
		for _, in := range b.Insns {
			us, n := in.uses()
			for _, u := range us[:n] {
				if !kill[b.ID].has(u) {
					gen[b.ID].add(u)
				}
			}
			if d, ok := in.def(); ok {
				kill[b.ID].add(d)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(g.Blocks) - 1; i >= 0; i-- {
			b := g.Blocks[i]
			if b == nil {
				continue
			}
			for _, s := range b.Succs {
				if lv.Out[i].union(lv.In[s]) {
					changed = true
				}
			}
			newIn := lv.Out[i]
			for w := range newIn {
				newIn[w] = (newIn[w] &^ kill[i][w]) | gen[i][w]
			}
			if lv.In[i].union(newIn) {
				changed = true
			}
		}
	}
	return lv
}

// LiveAfterMasks returns, for every block, the registers live immediately
// after each instruction as 32-bit masks (virtual registers above v31 are
// not represented; the modeled methods use at most 12). lv must be the
// graph's liveness, as Optimize or ComputeLiveness returns it. The code
// generator records these in stack map entries (§3.5).
func LiveAfterMasks(g *Graph, lv *Liveness) [][]uint32 {
	out := make([][]uint32, len(g.Blocks))
	backing := make([]uint32, g.NumInsns())
	for _, b := range g.Blocks {
		masks := backing[:len(b.Insns):len(b.Insns)]
		backing = backing[len(b.Insns):]
		live := lv.Out[b.ID]
		for i := len(b.Insns) - 1; i >= 0; i-- {
			masks[i] = uint32(live[0])
			in := b.Insns[i]
			if d, ok := in.def(); ok {
				live.remove(d)
			}
			us, n := in.uses()
			for _, u := range us[:n] {
				live.add(u)
			}
		}
		out[b.ID] = masks
	}
	return out
}
