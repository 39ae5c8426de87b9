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
	depth       int32 // symbols from the root to the end of this node's edge, fixed at creation
	leafCount   int32 // leaves in this node's subtree, filled by finish()
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
	// a split rebinds an existing key in place. finish reuses it as
	// scratch, and Build drops it: lookups by symbol end with construction.
	children []int32
	shift    uint // 64 - log2(len(children)), for Fibonacci hashing
	// internal build state
	activeNode   int32
	activeEdge   int
	activeLength int
	remainder    int
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
	t.children = nil // construction state: let it go while the tree is in use
	return t
}

// newNode appends a node and returns its index. depth is final: an
// Ukkonen split shortens the edge into an existing node from the top and
// hangs it under a node whose depth makes up the difference, so no node's
// depth ever changes after creation.
func (t *Tree) newNode(start, end int, depth int32) int32 {
	t.nodes = append(t.nodes, node{start: int32(start), end: int32(end), firstChild: -1, nextSibling: -1, prevSibling: -1, depth: depth})
	return int32(len(t.nodes) - 1)
}

// newLeaf appends the leaf for the suffix that phase i adds under parent:
// its edge runs from i to the end of the sequence.
func (t *Tree) newLeaf(parent int32, i int) int32 {
	return t.newNode(i, -1, t.nodes[parent].depth+int32(len(t.seq)-i))
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
			leaf := t.newLeaf(t.activeNode, i)
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
			split := t.newNode(int(t.nodes[child].start), int(t.nodes[child].start)+t.activeLength,
				t.nodes[t.activeNode].depth+int32(t.activeLength))
			t.setChild(t.activeNode, edgeSym, split)
			leaf := t.newLeaf(split, i)
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

// finish computes leaf counts bottom-up without walking the tree. Every
// leaf counts into its parent; then the internal nodes, in decreasing
// depth, add their totals into their parents. A child is strictly deeper
// than its parent, so each node's count is complete before it is added
// on. The depth order is a counting sort over the internal nodes' depths,
// which reads the node array linearly where a child-list walk would miss
// the cache on nearly every step. The root starts at zero, so the tree of
// an empty sequence has no leaves.
func (t *Tree) finish() {
	maxDepth := int32(0)
	internal := 0
	for idx := 1; idx < len(t.nodes); idx++ {
		nd := &t.nodes[idx]
		if nd.firstChild == -1 {
			nd.leafCount = 1
			t.nodes[nd.parent].leafCount++
			continue
		}
		internal++
		maxDepth = max(maxDepth, nd.depth)
	}
	if internal == 0 {
		return
	}
	// The child table is dead once construction ends, and it holds at
	// least 4n+4 slots, room for both scratch arrays: bucket (one slot per
	// depth, at most n) and order (one per internal node, at most n).
	// bucket[d] ends as the first slot of depth d in order, which lists
	// the internal nodes deepest first.
	bucket := t.children[:maxDepth+1]
	order := t.children[maxDepth+1 : int(maxDepth)+1+internal]
	clear(bucket)
	for idx := 1; idx < len(t.nodes); idx++ {
		if nd := &t.nodes[idx]; nd.firstChild != -1 {
			bucket[nd.depth]++
		}
	}
	sum := int32(0)
	for d := maxDepth; d >= 0; d-- {
		sum, bucket[d] = sum+bucket[d], sum
	}
	for idx := 1; idx < len(t.nodes); idx++ {
		if nd := &t.nodes[idx]; nd.firstChild != -1 {
			order[bucket[nd.depth]] = int32(idx)
			bucket[nd.depth]++
		}
	}
	for _, idx := range order {
		nd := &t.nodes[idx]
		t.nodes[nd.parent].leafCount += nd.leafCount
	}
}

// NumNodes returns the node count (root included).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumLeaves returns the number of leaves, which equals the number of
// suffixes represented: zero for an empty sequence.
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
// depth-first walk in child-list order) but not increasing; callers sort
// as needed. The walk follows the parent and sibling links instead of
// keeping a stack, so the result, sized from the node's leaf count, is
// its one allocation.
func (t *Tree) Occurrences(nodeIdx int) []int {
	n := len(t.seq)
	top := int32(nodeIdx)
	occ := make([]int, 0, t.nodes[top].leafCount)
	for cur := top; ; {
		for t.nodes[cur].firstChild != -1 {
			cur = t.nodes[cur].firstChild
		}
		// A leaf: its suffix starts at n - depth, and so does the repeat,
		// a prefix of that suffix.
		occ = append(occ, n-int(t.nodes[cur].depth))
		for cur != top && t.nodes[cur].nextSibling == -1 {
			cur = t.nodes[cur].parent
		}
		if cur == top {
			return occ
		}
		cur = t.nodes[cur].nextSibling
	}
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
