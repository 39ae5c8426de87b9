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

// links are the fields every node has, leaf or internal: its parent and
// its neighbours in the parent's child list.
//
// A child or sibling is named by a reference: an internal node by its
// index in Tree.nodes (>= 1), a leaf by the complement of its suffix
// (^i < 0). The root is no node's child or sibling, so the reference 0
// means "none".
type links struct {
	parent      int32 // an internal node; set when the node is bound as a child
	nextSibling int32 // next child of this node's parent, 0 at the end
	prevSibling int32 // previous child of this node's parent, 0 at the head
}

// leaf is leaf i of the tree: the node of suffix i, stored at index i.
// Its other fields follow from the suffix and the parent: the edge into
// it runs from i + depth(parent) to the end of the sequence (Ukkonen's
// global end), and its depth is n - i.
type leaf = links

// node is one internal suffix-tree node; the root is node 0. The edge
// leading into the node is labeled seq[start:end]. Positions are int32
// like node references; a tree over n symbols has at most n leaves and
// n internal nodes, so int32 positions add no limit that the references
// do not already impose.
//
// Children are kept two ways: a doubly linked first-child/sibling list on
// the nodes themselves for iteration, and one flat tree-level hash table
// (Tree.children) for by-symbol lookup. The back link makes an Ukkonen
// split O(1): the split node takes over the replaced child's list position
// without a walk of the parent's list, which under the root is one entry
// per unique separator symbol and so grows with the input.
type node struct {
	links
	start      int32
	end        int32
	link       int32 // suffix link, an internal node (the root by default)
	firstChild int32 // head of the child list, 0 only for an empty tree's root
	depth      int32 // symbols from the root to the end of this node's edge, fixed at creation
	leafCount  int32 // leaves in this node's subtree, filled by finish()
}

// Tree is a built suffix tree.
type Tree struct {
	seq []uint32
	// nodes holds the internal nodes in creation order, the root first;
	// leaves holds the leaves by suffix. Ukkonen's algorithm inserts the
	// suffixes in increasing order, one leaf each, so a leaf's index is
	// both its creation rank and its suffix.
	nodes  []node
	leaves []leaf
	// children is an open-addressing (linear probing) hash table from
	// (parent, edge first symbol) to child. A slot holds only the child's
	// reference (0 marks an empty slot): the key is read back from the
	// child itself, whose parent and edge start the build keeps current
	// for every bound child, so a slot costs four bytes. Build sizes it
	// once for the largest tree the sequence can produce, and nothing is
	// ever deleted, so it needs neither growth nor tombstones; a split
	// rebinds an existing key in place. finish reuses it as scratch, and
	// Build drops it: lookups by symbol end with construction.
	children []int32
	shift    uint // 64 - log2(len(children)), for Fibonacci hashing
	// internal build state
	activeNode   int32
	activeEdge   int
	activeLength int
	remainder    int
}

const root int32 = 0

// linksOf returns the parent and sibling fields of the node c references.
func (t *Tree) linksOf(c int32) *links {
	if c < 0 {
		return &t.leaves[^c]
	}
	return &t.nodes[c].links
}

// edgeStart returns where the edge into the node c references starts.
func (t *Tree) edgeStart(c int32) int {
	if c < 0 {
		return int(^c + t.nodes[t.leaves[^c].parent].depth)
	}
	return int(t.nodes[c].start)
}

// slot returns the children slot bound to (parent, sym), or the empty
// slot where that binding belongs.
func (t *Tree) slot(parent int32, sym uint32) *int32 {
	mask := uint64(len(t.children) - 1)
	i := ((uint64(uint32(parent))<<32 | uint64(sym)) * 0x9E3779B97F4A7C15) >> t.shift
	depth := t.nodes[parent].depth
	for {
		s := &t.children[i]
		switch c := *s; {
		case c == 0:
			return s
		case c < 0:
			if t.leaves[^c].parent == parent && t.seq[^c+depth] == sym {
				return s
			}
		default:
			if nd := &t.nodes[c]; nd.parent == parent && t.seq[nd.start] == sym {
				return s
			}
		}
		i = (i + 1) & mask
	}
}

// setChild binds c as the child of parent under edge symbol sym, either
// prepending it to the child list or substituting it for the previous
// holder (an Ukkonen split), which keeps the list position: c inherits
// the old child's sibling links and its neighbours point at c. The caller
// has already made c's edge start with sym.
func (t *Tree) setChild(parent int32, sym uint32, c int32) {
	s := t.slot(parent, sym)
	nc := t.linksOf(c)
	nc.parent = parent
	if *s != 0 {
		old := t.linksOf(*s)
		nc.prevSibling, nc.nextSibling = old.prevSibling, old.nextSibling
		if nc.prevSibling == 0 {
			t.nodes[parent].firstChild = c
		} else {
			t.linksOf(nc.prevSibling).nextSibling = c
		}
		if nc.nextSibling != 0 {
			t.linksOf(nc.nextSibling).prevSibling = c
		}
	} else {
		head := t.nodes[parent].firstChild
		nc.prevSibling, nc.nextSibling = 0, head
		if head != 0 {
			t.linksOf(head).prevSibling = c
		}
		t.nodes[parent].firstChild = c
	}
	*s = c
}

// Build constructs the suffix tree of seq. The caller must guarantee that
// the final symbol of seq terminates every intended suffix (the outliner's
// per-position separator symbols provide this); Build appends nothing.
func Build(seq []uint32) *Tree {
	// At most 2n nodes besides the root means at most 2n child bindings;
	// a table of the next power of two at or above twice that keeps the
	// load at or below one half.
	logSize := bits.Len(uint(4*len(seq) + 3))
	t := &Tree{
		seq: seq,
		// Every suffix gets a leaf when the last symbol is unique, while
		// the internal nodes are as few as the repeats the sequence holds;
		// they start at a sixteenth and grow by append.
		nodes:    make([]node, 1, len(seq)/16+1),
		leaves:   make([]leaf, 0, len(seq)),
		children: make([]int32, 1<<logSize),
		shift:    uint(64 - logSize),
	}
	t.nodes[root] = node{start: -1, end: -1}
	for i := range seq {
		t.extend(i)
	}
	t.finish()
	t.children = nil // construction state: let it go while the tree is in use
	return t
}

// newNode appends an internal node and returns its index. depth is final:
// an Ukkonen split shortens the edge into an existing node from the top
// and hangs it under a node whose depth makes up the difference, so no
// node's depth ever changes after creation.
func (t *Tree) newNode(start, end int, depth int32) int32 {
	t.nodes = append(t.nodes, node{start: int32(start), end: int32(end), depth: depth})
	return int32(len(t.nodes) - 1)
}

// newLeaf appends the leaf of the next suffix, unbound, and returns its
// reference.
func (t *Tree) newLeaf() int32 {
	t.leaves = append(t.leaves, leaf{})
	return ^int32(len(t.leaves) - 1)
}

// edgeEnd resolves the end of the edge into c against the current phase.
func (t *Tree) edgeEnd(c int32, pos int) int {
	if c < 0 {
		return pos
	}
	return int(t.nodes[c].end)
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
		child := *t.slot(t.activeNode, edgeSym)
		if child == 0 {
			t.setChild(t.activeNode, edgeSym, t.newLeaf())
			addLink(t.activeNode)
		} else {
			start := t.edgeStart(child)
			edgeLen := t.edgeEnd(child, i+1) - start
			if t.activeLength >= edgeLen {
				// Never a leaf: its edge runs to the end of the phase.
				t.activeEdge += edgeLen
				t.activeLength -= edgeLen
				t.activeNode = child
				continue
			}
			if t.seq[start+t.activeLength] == t.seq[i] {
				t.activeLength++
				addLink(t.activeNode)
				break
			}
			split := t.newNode(start, start+t.activeLength, t.nodes[t.activeNode].depth+int32(t.activeLength))
			t.setChild(t.activeNode, edgeSym, split)
			t.setChild(split, t.seq[i], t.newLeaf())
			// The old child now hangs below split; a leaf's edge start
			// follows from its new parent's depth by itself.
			if child > 0 {
				t.nodes[child].start += int32(t.activeLength)
			}
			t.setChild(split, t.seq[start+t.activeLength], child)
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

// finish computes leaf counts bottom-up without walking the tree. One
// pass over the leaf array counts every leaf into its parent; then the
// internal nodes, in decreasing depth, add their totals into their
// parents. A child is strictly deeper than its parent, so each node's
// count is complete before it is added on. The depth order is a counting
// sort over the internal nodes' depths, which reads the node array
// linearly where a child-list walk would miss the cache on nearly every
// step. The root starts at zero, so the tree of an empty sequence has no
// leaves.
func (t *Tree) finish() {
	for i := range t.leaves {
		t.nodes[t.leaves[i].parent].leafCount++
	}
	internal := t.nodes[1:]
	if len(internal) == 0 {
		return
	}
	maxDepth := int32(0)
	for i := range internal {
		maxDepth = max(maxDepth, internal[i].depth)
	}
	// The child table is dead once construction ends, and it holds at
	// least 4n+4 slots, room for both scratch arrays: bucket (one slot per
	// depth, at most n) and order (one per internal node, at most n).
	// bucket[d] ends as the first slot of depth d in order, which lists
	// the internal nodes deepest first.
	bucket := t.children[:maxDepth+1]
	order := t.children[maxDepth+1 : int(maxDepth)+1+len(internal)]
	clear(bucket)
	for i := range internal {
		bucket[internal[i].depth]++
	}
	sum := int32(0)
	for d := maxDepth; d >= 0; d-- {
		sum, bucket[d] = sum+bucket[d], sum
	}
	for i := range internal {
		d := internal[i].depth
		order[bucket[d]] = int32(i + 1)
		bucket[d]++
	}
	for _, idx := range order {
		nd := &t.nodes[idx]
		t.nodes[nd.parent].leafCount += nd.leafCount
	}
}

// NumNodes returns the node count, leaves and the root included.
func (t *Tree) NumNodes() int { return len(t.nodes) + len(t.leaves) }

// NumLeaves returns the number of leaves, which equals the number of
// suffixes represented: zero for an empty sequence.
func (t *Tree) NumLeaves() int { return int(t.nodes[root].leafCount) }

// Repeat describes a repeated subsequence found in the tree: an internal
// node whose subtree holds Count >= 2 leaves; the subsequence is the path
// label from the root, of the given Length. Node indexes the internal
// nodes in creation order.
type Repeat struct {
	Node   int
	Length int
	Count  int
}

// Repeats enumerates internal nodes representing repeats with
// Length >= minLen and Count >= minCount, in creation order.
func (t *Tree) Repeats(minLen, minCount int) []Repeat {
	if minCount < 2 {
		minCount = 2
	}
	var out []Repeat
	for idx := 1; idx < len(t.nodes); idx++ {
		nd := &t.nodes[idx]
		if int(nd.depth) >= minLen && int(nd.leafCount) >= minCount {
			out = append(out, Repeat{Node: idx, Length: int(nd.depth), Count: int(nd.leafCount)})
		}
	}
	return out
}

// Sweep returns the occurrences of each repeat in reps, the start
// positions (in seq) of its Count suffixes, in increasing order. It makes
// one pass over the leaves in suffix order and appends each leaf's suffix
// to the list of every listed ancestor, so every list comes out sorted;
// the lists share one backing array sized from the counts. The walk up
// from a leaf skips the unlisted nodes: each node's nearest listed
// ancestor is resolved once. reps must name distinct non-root nodes with
// their counts, as Repeats returns them.
func (t *Tree) Sweep(reps []Repeat) [][]int32 {
	lists := make([][]int32, len(reps))
	listed := make([]int32, len(t.nodes)) // index in reps plus one, 0 when unlisted
	total := 0
	for _, r := range reps {
		total += r.Count
	}
	backing := make([]int32, total)
	off := 0
	for k, r := range reps {
		listed[r.Node] = int32(k + 1)
		lists[k] = backing[off : off : off+r.Count]
		off += r.Count
	}
	// near[v] is the nearest listed node at or above v, the root standing
	// for none, or -1 until resolved.
	near := make([]int32, len(t.nodes))
	for v := 1; v < len(near); v++ {
		near[v] = -1
	}
	var path []int32
	for i := range t.leaves {
		v := t.leaves[i].parent
		if near[v] < 0 {
			// Climb to the first resolved node, then resolve the path
			// top down.
			path = path[:0]
			for u := v; near[u] < 0; u = t.nodes[u].parent {
				path = append(path, u)
			}
			for k := len(path) - 1; k >= 0; k-- {
				u := path[k]
				if listed[u] != 0 {
					near[u] = u
				} else {
					near[u] = near[t.nodes[u].parent]
				}
			}
		}
		for m := near[v]; m != root; m = near[t.nodes[m].parent] {
			k := listed[m] - 1
			lists[k] = append(lists[k], int32(i))
		}
	}
	return lists
}

// Occurrences returns the start positions (in seq) of the repeat rooted at
// the given internal node, one per descendant leaf. The order is
// deterministic (a depth-first walk in child-list order) but not
// increasing; Sweep lists them sorted. The walk follows the parent and
// sibling links instead of keeping a stack, so the result, sized from the
// node's leaf count, is its one allocation.
func (t *Tree) Occurrences(nodeIdx int) []int {
	top := int32(nodeIdx)
	occ := make([]int, 0, t.nodes[top].leafCount)
	if t.nodes[top].firstChild == 0 {
		return occ
	}
	for cur := top; ; {
		for cur >= 0 {
			cur = t.nodes[cur].firstChild
		}
		// A leaf: its suffix starts at its index, and so does the repeat,
		// a prefix of that suffix.
		occ = append(occ, int(^cur))
		for cur != top && t.linksOf(cur).nextSibling == 0 {
			cur = t.linksOf(cur).parent
		}
		if cur == top {
			return occ
		}
		cur = t.linksOf(cur).nextSibling
	}
}

// Label returns the subsequence represented by an internal node (the path
// label).
func (t *Tree) Label(nodeIdx int) []uint32 {
	// Walk one occurrence instead of composing edges: the repeat is
	// seq[occ : occ+depth] for any occurrence.
	occ := t.firstLeafSuffix(int32(nodeIdx))
	return t.seq[occ : occ+int(t.nodes[nodeIdx].depth)]
}

// FirstOccurrence returns one deterministic start position (in seq) of the
// repeat rooted at the given internal node — the first-child-path leaf's
// suffix — without walking the whole subtree like Occurrences does.
func (t *Tree) FirstOccurrence(nodeIdx int) int {
	return t.firstLeafSuffix(int32(nodeIdx))
}

func (t *Tree) firstLeafSuffix(nodeIdx int32) int {
	if t.nodes[nodeIdx].firstChild == 0 {
		return len(t.seq) // the root of an empty tree
	}
	cur := nodeIdx
	for cur >= 0 {
		cur = t.nodes[cur].firstChild
	}
	return int(^cur)
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
