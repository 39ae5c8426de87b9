// Package suffixtree implements Ukkonen's on-line suffix tree construction
// (O(n), Ukkonen 1995) over sequences of uint32 symbols, plus the repeat
// enumeration and the benefit model (paper Figure 2) that Calibro's
// redundancy detection is built on (§2.1.2, §2.2, §3.3.2).
//
// Sequences are instruction words mapped to symbols by the outliner; every
// basic-block terminator is mapped to a symbol unique to its position, so
// no repeated substring can cross a basic-block boundary (§3.3.2). The same
// trick generalizes the tree: concatenating many methods with unique
// separators yields one tree over the whole program.
package suffixtree

import (
	"fmt"
	"math/bits"
)

// node is one suffix-tree node. The edge leading into the node is labeled
// seq[start:end]; leaves use end == -1 meaning "to the end of the sequence"
// (Ukkonen's global end). Positions are int32 like node indices; a tree
// over n symbols has 2n+2 nodes at most, so int32 positions add no limit
// that the node indices do not already impose.
//
// Children are kept two ways: a doubly linked first-child/sibling list on
// the nodes themselves for iteration, and one flat tree-level hash table
// (Tree.children) for by-symbol lookup. The back link makes an Ukkonen
// split O(1): the split node takes over the replaced child's list position
// without a walk of the parent's list, which under the root is one entry
// per unique separator symbol and so grows with the input.
type node struct {
	start       int32
	end         int32
	link        int32
	firstChild  int32 // head of the child list, -1 for leaves
	nextSibling int32 // next child of this node's parent, -1 at the end
	prevSibling int32 // previous child of this node's parent, -1 at the head
	parent      int32 // set when the node is bound as a child

	// Filled by finish():
	leafCount int32
	depth     int32 // symbols from the root to the end of this node's edge
}

// Tree is a built suffix tree.
type Tree struct {
	seq   []uint32
	nodes []node
	// children is an open-addressing (linear probing) hash table from
	// (parent, edge first symbol) to child. A slot holds only the child's
	// index plus one (0 marks an empty slot): the key is read back from
	// the child itself, whose parent and edge start the build keeps
	// current for every bound child, so a slot costs four bytes. Build
	// sizes it once for the largest tree the sequence can produce, and
	// nothing is ever deleted, so it needs neither growth nor tombstones;
	// a split rebinds an existing key in place.
	children []int32
	shift    uint // 64 - log2(len(children)), for Fibonacci hashing
	// internal build state
	activeNode   int32
	activeEdge   int
	activeLength int
	remainder    int
	finished     bool
}

const root int32 = 0

// slot returns the children slot bound to (parent, sym), or the empty
// slot where that binding belongs.
func (t *Tree) slot(parent int32, sym uint32) *int32 {
	mask := uint64(len(t.children) - 1)
	i := ((uint64(uint32(parent))<<32 | uint64(sym)) * 0x9E3779B97F4A7C15) >> t.shift
	for {
		s := &t.children[i]
		if *s == 0 {
			return s
		}
		if c := &t.nodes[*s-1]; c.parent == parent && t.seq[c.start] == sym {
			return s
		}
		i = (i + 1) & mask
	}
}

// childOf looks up the child of n whose edge starts with sym.
func (t *Tree) childOf(n int32, sym uint32) (int32, bool) {
	s := t.slot(n, sym)
	return *s - 1, *s != 0
}

// setChild binds c as the child of parent under edge symbol sym, either
// prepending it to the child list or substituting it for the previous
// holder (an Ukkonen split), which keeps the list position: c inherits
// the old child's sibling links and its neighbours point at c. The caller
// has already set c's edge to start with sym.
func (t *Tree) setChild(parent int32, sym uint32, c int32) {
	s := t.slot(parent, sym)
	nc := &t.nodes[c]
	nc.parent = parent
	if *s != 0 {
		old := &t.nodes[*s-1]
		nc.prevSibling, nc.nextSibling = old.prevSibling, old.nextSibling
		if nc.prevSibling == -1 {
			t.nodes[parent].firstChild = c
		} else {
			t.nodes[nc.prevSibling].nextSibling = c
		}
		if nc.nextSibling != -1 {
			t.nodes[nc.nextSibling].prevSibling = c
		}
	} else {
		head := t.nodes[parent].firstChild
		nc.prevSibling, nc.nextSibling = -1, head
		if head != -1 {
			t.nodes[head].prevSibling = c
		}
		t.nodes[parent].firstChild = c
	}
	*s = c + 1
}

// Build constructs the suffix tree of seq. The caller must guarantee that
// the final symbol of seq terminates every intended suffix (the outliner's
// per-position separator symbols provide this); Build appends nothing.
func Build(seq []uint32) *Tree {
	// At most 2n+2 nodes means at most 2n+1 child bindings; a table of
	// the next power of two at or above twice that keeps the load at or
	// below one half.
	logSize := bits.Len(uint(4*len(seq) + 3))
	t := &Tree{
		seq:      seq,
		nodes:    make([]node, 1, 2*len(seq)+2),
		children: make([]int32, 1<<logSize),
		shift:    uint(64 - logSize),
	}
	t.nodes[0] = node{start: -1, end: -1, firstChild: -1, nextSibling: -1, prevSibling: -1}
	for i := range seq {
		t.extend(i)
	}
	t.finish()
	return t
}

// newNode appends a node and returns its index.
func (t *Tree) newNode(start, end int) int32 {
	t.nodes = append(t.nodes, node{start: int32(start), end: int32(end), firstChild: -1, nextSibling: -1, prevSibling: -1})
	return int32(len(t.nodes) - 1)
}

// edgeEnd resolves a node's edge end against the current phase.
func (t *Tree) edgeEnd(n int32, pos int) int {
	if t.nodes[n].end == -1 {
		return pos
	}
	return int(t.nodes[n].end)
}

// extend runs one Ukkonen phase for seq[i].
func (t *Tree) extend(i int) {
	t.remainder++
	var lastCreated int32 = -1
	addLink := func(n int32) {
		if lastCreated != -1 {
			t.nodes[lastCreated].link = n
		}
		lastCreated = n
	}
	for t.remainder > 0 {
		if t.activeLength == 0 {
			t.activeEdge = i
		}
		edgeSym := t.seq[t.activeEdge]
		child, ok := t.childOf(t.activeNode, edgeSym)
		if !ok {
			leaf := t.newNode(i, -1)
			t.setChild(t.activeNode, edgeSym, leaf)
			addLink(t.activeNode)
		} else {
			edgeLen := t.edgeEnd(child, i+1) - int(t.nodes[child].start)
			if t.activeLength >= edgeLen {
				t.activeEdge += edgeLen
				t.activeLength -= edgeLen
				t.activeNode = child
				continue
			}
			if t.seq[int(t.nodes[child].start)+t.activeLength] == t.seq[i] {
				t.activeLength++
				addLink(t.activeNode)
				break
			}
			split := t.newNode(int(t.nodes[child].start), int(t.nodes[child].start)+t.activeLength)
			t.setChild(t.activeNode, edgeSym, split)
			leaf := t.newNode(i, -1)
			t.setChild(split, t.seq[i], leaf)
			t.nodes[child].start += int32(t.activeLength)
			t.setChild(split, t.seq[t.nodes[child].start], child)
			addLink(split)
		}
		t.remainder--
		if t.activeNode == root && t.activeLength > 0 {
			t.activeLength--
			t.activeEdge = i - t.remainder + 1
		} else if t.activeNode != root {
			t.activeNode = t.nodes[t.activeNode].link
		}
	}
}

// finish computes leaf counts and depths bottom-up.
func (t *Tree) finish() {
	if t.finished {
		return
	}
	t.finished = true
	n := int32(len(t.seq))
	// Iterative post-order.
	type frame struct {
		node  int32
		stage int
	}
	stack := []frame{{node: root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		nd := &t.nodes[f.node]
		if f.stage == 0 {
			f.stage = 1
			if f.node != root {
				parentDepth := t.nodes[nd.parent].depth
				end := nd.end
				if end == -1 {
					end = n
				}
				nd.depth = parentDepth + end - nd.start
			}
			if nd.firstChild == -1 {
				nd.leafCount = 1
				stack = stack[:len(stack)-1]
				continue
			}
			for c := nd.firstChild; c != -1; c = t.nodes[c].nextSibling {
				stack = append(stack, frame{node: c})
			}
			continue
		}
		for c := nd.firstChild; c != -1; c = t.nodes[c].nextSibling {
			nd.leafCount += t.nodes[c].leafCount
		}
		stack = stack[:len(stack)-1]
	}
}

// NumNodes returns the node count (root included).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumLeaves returns the number of leaves, which equals the number of
// suffixes represented.
func (t *Tree) NumLeaves() int { return int(t.nodes[root].leafCount) }

// Repeat describes a repeated subsequence found in the tree: an internal
// node whose subtree holds Count >= 2 leaves; the subsequence is the path
// label from the root, of the given Length.
type Repeat struct {
	Node   int
	Length int
	Count  int
}

// Repeats enumerates internal nodes representing repeats with
// Length >= minLen and Count >= minCount, in no particular order.
func (t *Tree) Repeats(minLen, minCount int) []Repeat {
	if minCount < 2 {
		minCount = 2
	}
	var out []Repeat
	for idx := 1; idx < len(t.nodes); idx++ {
		nd := &t.nodes[idx]
		if nd.firstChild == -1 {
			continue // leaf
		}
		if int(nd.depth) >= minLen && int(nd.leafCount) >= minCount {
			out = append(out, Repeat{Node: idx, Length: int(nd.depth), Count: int(nd.leafCount)})
		}
	}
	return out
}

// Occurrences returns the start positions (in seq) of the repeat rooted at
// the given node, one per descendant leaf. The order is deterministic (a
// depth-first walk, last child first) but not increasing; callers sort as
// needed.
func (t *Tree) Occurrences(nodeIdx int) []int {
	n := len(t.seq)
	var occ []int
	var stack []int32
	stack = append(stack, int32(nodeIdx))
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[cur]
		if nd.firstChild == -1 {
			// Leaf: the suffix starts at n - depth; the repeat occurrence
			// starts there too (the repeat is a prefix of the suffix).
			suffixStart := n - int(nd.depth)
			occ = append(occ, suffixStart)
			continue
		}
		for c := nd.firstChild; c != -1; c = t.nodes[c].nextSibling {
			stack = append(stack, c)
		}
	}
	return occ
}

// Label returns the subsequence represented by a node (the path label).
func (t *Tree) Label(nodeIdx int) []uint32 {
	nd := &t.nodes[nodeIdx]
	// Walk one occurrence instead of composing edges: the repeat is
	// seq[occ : occ+depth] for any occurrence.
	occ := t.firstLeafSuffix(int32(nodeIdx))
	return t.seq[occ : occ+int(nd.depth)]
}

// FirstOccurrence returns one deterministic start position (in seq) of the
// repeat rooted at the given node — the first-child-path leaf's suffix —
// without walking the whole subtree like Occurrences does.
func (t *Tree) FirstOccurrence(nodeIdx int) int {
	return t.firstLeafSuffix(int32(nodeIdx))
}

func (t *Tree) firstLeafSuffix(nodeIdx int32) int {
	cur := nodeIdx
	for t.nodes[cur].firstChild != -1 {
		cur = t.nodes[cur].firstChild
	}
	return len(t.seq) - int(t.nodes[cur].depth)
}

// Benefit evaluates the paper's Figure 2 model: the instruction-count
// saving from outlining a repeat of the given length occurring count times
// (the +1 is the outlined function's return instruction).
func Benefit(length, count int) int {
	original := length * count
	optimized := count + 1 + length
	return original - optimized
}

// ReductionRatio is Figure 2's ratio form of Benefit.
func ReductionRatio(length, count int) float64 {
	original := length * count
	if original == 0 {
		return 0
	}
	return float64(Benefit(length, count)) / float64(original)
}

// Validate performs internal consistency checks (used by tests): every
// occurrence of every repeat matches the node's label.
func (t *Tree) Validate() error {
	for idx := 1; idx < len(t.nodes); idx++ {
		nd := &t.nodes[idx]
		if nd.firstChild == -1 {
			continue
		}
		label := t.Label(idx)
		for _, occ := range t.Occurrences(idx) {
			if occ < 0 || occ+len(label) > len(t.seq) {
				return fmt.Errorf("suffixtree: node %d occurrence %d out of range", idx, occ)
			}
			for k, s := range label {
				if t.seq[occ+k] != s {
					return fmt.Errorf("suffixtree: node %d occurrence %d mismatches label at +%d", idx, occ, k)
				}
			}
		}
	}
	return nil
}
